"""Byte-for-byte regression against committed CLI outputs.

Each file under ``golden/`` is the CSV that ``crul`` wrote with the
arguments next to its name.  The two sweeps cover every protocol and every
method; the equal-SNR one reaches 40 dB, where term arbitration falls back
to the oracle's own term value.  The two figure presets pin every
analytic and oracle row of their full grids.  A change that claims to keep
results must keep these bytes; one that moves them regenerates the files
with the same arguments and explains the diff.

``golden/deviation_quick.json`` is the deviation report of ``crul validate
--quick``, written by ``scripts/deviation_golden.py``.
"""

import json
import math
from pathlib import Path

import pytest

from crul import cli, validation

GOLDEN = Path(__file__).parent / "golden"
SWEEPS = {
    "sweep_both.csv": [
        "sweep", "--start", "0", "--stop", "40", "--step", "10", "--samples", "20000",
    ],
    "sweep_pu.csv": [
        "sweep", "--sweep-var", "pu", "--start", "0", "--stop", "60", "--step", "20",
        "--samples", "20000",
    ],
    "figure2_exact.csv": ["figure2", "--method", "analytic,oracle"],
    "figure3_exact.csv": ["figure3", "--method", "analytic,oracle"],
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli.main([*SWEEPS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


REGENERATE = "regenerate it with scripts/deviation_golden.py and explain the diff"
#: The report's fields compared exactly, beside its values and deviations.
EXACT_FIELDS = (
    "config",
    "protocol",
    "term",
    "chosen_route",
    "counts_toward_total",
    "flagged_routes",
    "route_errors",
)


def _close(value: float, stored: float, *, rel: float = 0.0, abs_: float = 0.0) -> bool:
    """Within ``rel`` of ``stored`` or ``abs_`` of it; NaN matches only NaN."""
    if math.isnan(stored) or math.isnan(value):
        return math.isnan(stored) and math.isnan(value)
    return value == stored or abs(value - stored) <= max(rel * abs(stored), abs_)


def test_deviation_report_matches_golden():
    _, report = validation.criterion_analytic_oracle(validation._QUICK_ANALYTIC_GRID)
    report = json.loads(json.dumps(report))  # the types the stored file reads back as
    stored = json.loads((GOLDEN / "deviation_quick.json").read_text(encoding="utf-8"))
    assert list(report) == list(stored), REGENERATE
    for key in ("arbitration_rel_tol", "report_rel_tol"):
        assert report[key] == stored[key], f"{key}: {REGENERATE}"
    assert len(report["entries"]) == len(stored["entries"]), REGENERATE
    for entry, golden in zip(report["entries"], stored["entries"]):
        where = f"{golden['config']} {golden['protocol']} {golden['term']}"
        assert list(entry) == list(golden), f"{where}: {REGENERATE}"
        for key in EXACT_FIELDS:
            assert entry[key] == golden[key], f"{where} {key}: {REGENERATE}"
        assert list(entry["routes"]) == list(golden["routes"]), f"{where}: {REGENERATE}"
        assert list(entry["deviations"]) == list(golden["deviations"]), f"{where}: {REGENERATE}"
        values = [("oracle", entry["oracle"], golden["oracle"])]
        values.append(("chosen_value", entry["chosen_value"], golden["chosen_value"]))
        values += [(route, entry["routes"][route], v) for route, v in golden["routes"].items()]
        for name, value, reference in values:
            assert _close(value, reference, rel=1e-12), (
                f"{where} {name}: {value!r} against {reference!r}; {REGENERATE}"
            )
        for route, reference in golden["deviations"].items():
            value = entry["deviations"][route]
            assert _close(value, reference, abs_=1e-9), (
                f"{where} deviation of {route}: {value!r} against {reference!r}; {REGENERATE}"
            )
    assert len(report["flagged"]) == len(stored["flagged"]), REGENERATE
    for flag, golden in zip(report["flagged"], stored["flagged"]):
        deviation, reference = flag.pop("deviation"), golden.pop("deviation")
        assert flag == golden, REGENERATE
        assert _close(deviation, reference, abs_=1e-9), f"{golden}: {REGENERATE}"
