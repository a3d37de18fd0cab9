#!/usr/bin/env python3
"""Print frozen references of ``g(x) = exp(x) E1(x)`` for the ``E1`` kernels.

Two tables, one per side of the series switch at 4:

* ``E1_SCALED``, past 4, for ``specfun.e1_cf_factor``.  The continued
  fraction runs backward at one depth for every argument, so the points
  sit just above the switch, where that depth is barely enough, on each
  side of the depths the fraction once switched between, far out, and at
  the arguments where an earlier forward evaluation had every step factor
  round an ulp off one.
* ``E1_SCALED_SERIES``, on ``(0, 4]``, for ``analytic._scaled_e1`` and
  ``_scaled_e1_array``, which form ``g`` from the ``Ei`` series there.  The
  series loses digits to cancellation as its argument grows, so the points
  thicken toward 4, where the relative error is worst.

Each value is evaluated by mpmath at 40 significant digits and printed as
the double nearest to it, by ``repr``, which round-trips.
``tests/test_specfun.py`` keeps both tables and holds the kernels to them;
replace those blocks with this script's output, never by hand.

mpmath comes with the ``refs`` extra of ``pyproject.toml`` (``pip install
-e .[refs]``); the tests read the printed tables and never import it.

    python scripts/e1_references.py
"""

import mpmath

DIGITS = 40

#: Just above the series switch at 4, each side of 6, 10, 30 and 100, two
#: far arguments, and the rounding-bound arguments.
POINTS = [
    4.0 + 1e-12, 5.999, 6.0, 9.999, 10.0, 29.99, 30.0, 99.99, 100.0, 1e4, 1e8,
    1.073741823e17, 4.2949673e17, 245690564412334.34,
]

#: The series side, up to the switch itself.
SERIES_POINTS = [1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 3.458, 3.86, 4.0]


def scaled_e1(x: float) -> float:
    with mpmath.workdps(DIGITS):
        value = mpmath.mpf(x)
        return float(mpmath.exp(value) * mpmath.e1(value))


def table(name: str, points: list[float]) -> str:
    lines = [f"{name} = {{"]
    lines += [f"    {x!r}: {scaled_e1(x)!r}," for x in points]
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table("E1_SCALED", POINTS))
    print()
    print(table("E1_SCALED_SERIES", SERIES_POINTS))
