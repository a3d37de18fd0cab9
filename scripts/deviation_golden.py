#!/usr/bin/env python3
"""Write the stored deviation report of the ``validate --quick`` grid.

``tests/golden/deviation_quick.json`` is :func:`crul.crosscheck.deviation_report`
on the quick release grid (both links at 0, 20 and 40 dB), exactly as
``crul validate --quick`` writes it into ``deviation_report.json``.
``tests/test_golden.py`` holds the report to this file: its labels, routes,
flags and errors exactly, its values to 1e-12 relative and its deviations
to 1e-9.  A change that moves the report regenerates the file with this
script and explains the diff:

    PYTHONPATH=src python scripts/deviation_golden.py
"""

import json
from pathlib import Path

from crul import validation

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "deviation_quick.json"


def quick_report() -> dict:
    _, report = validation.criterion_analytic_oracle(validation._QUICK_ANALYTIC_GRID)
    return report


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(quick_report(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
