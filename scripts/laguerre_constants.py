#!/usr/bin/env python3
"""Print the stored default Gauss-Laguerre rule as Python literals.

``crul.specfun`` keeps the nodes and log-weights of the default order
(``crul.analytic.DEFAULT_NODES``) as float literals, so no process runs
the Newton build for it.  This script prints that block from
``specfun._newton_rule``; ``repr`` round-trips every double exactly.  To
change the stored rule, replace the ``_STORED_RULES`` block at the end of
``src/crul/specfun.py`` with this script's output, never by hand:
``tests/test_specfun.py`` holds it to the Newton build byte for byte.

    PYTHONPATH=src python scripts/laguerre_constants.py
"""

from crul.analytic import DEFAULT_NODES
from crul.specfun import _newton_rule

PER_LINE = 3


def literal_block(order: int) -> str:
    lines = ["_STORED_RULES = {", f"    {order}: ("]
    for values in _newton_rule(order):
        lines.append("        (")
        for start in range(0, len(values), PER_LINE):
            chunk = values[start : start + PER_LINE]
            lines.append("            " + " ".join(f"{float(v)!r}," for v in chunk))
        lines.append("        ),")
    lines += ["    ),", "}"]
    return "\n".join(lines)


if __name__ == "__main__":
    print(literal_block(DEFAULT_NODES))
