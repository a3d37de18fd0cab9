#!/usr/bin/env python3
"""Print frozen references of ``exp(x) E1(x)`` for ``specfun.e1_cf_factor``.

The continued fraction runs backward from a depth fixed by its smallest
argument, so the points sit on each side of every depth switch, then far
out, and at the arguments where the earlier forward evaluation had every
step factor round an ulp off one.  Each value is evaluated by mpmath at
40 significant digits and printed as the double nearest to it, by
``repr``, which round-trips.  ``tests/test_specfun.py`` keeps the table as
``E1_SCALED`` and holds the fraction to it within two ulp; replace that
block with this script's output, never by hand.

mpmath must be installed, but no extra of ``pyproject.toml`` declares it:
the tests read the printed table and never import it.

    python scripts/e1_references.py
"""

import mpmath

DIGITS = 40

#: Each side of every depth switch (6, 10, 30 and 100; 4 is the series
#: switch), two far arguments, and the rounding-bound arguments.
POINTS = [
    4.0 + 1e-12, 5.999, 6.0, 9.999, 10.0, 29.99, 30.0, 99.99, 100.0, 1e4, 1e8,
    1.073741823e17, 4.2949673e17, 245690564412334.34,
]


def scaled_e1(x: float) -> float:
    with mpmath.workdps(DIGITS):
        value = mpmath.mpf(x)
        return float(mpmath.exp(value) * mpmath.e1(value))


def table() -> str:
    lines = ["E1_SCALED = {"]
    lines += [f"    {x!r}: {scaled_e1(x)!r}," for x in POINTS]
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table())
