"""Byte-for-byte regression against committed CLI outputs.

Each file under ``golden/`` is the CSV that ``crul`` wrote with the
arguments next to its name.  The two sweeps cover every protocol and every
method; the equal-SNR one reaches 40 dB, where term arbitration falls back
to the oracle's own term value.  The two figure presets pin every
analytic and oracle row of their full grids.  The Monte Carlo sweep draws
two full chunks and a short one per pass, so it pins how chunks are
scheduled and folded; it runs on one worker thread and on two, each from
a process with no kept draws, so each draws its chunks.  A change
that claims to keep results must keep these bytes; one that moves them
regenerates the files with the same arguments and explains the diff.

``golden/deviation_quick.json`` is the deviation report of ``crul validate
--quick``, written by ``scripts/deviation_golden.py``, and
``golden/chunk_sums.json`` the Monte Carlo chunk kernel's per-chunk sums,
written by ``scripts/chunk_sums_golden.py``.
"""

import importlib.util
import json
import math
import shlex
from pathlib import Path

import pytest

from crul import cli, montecarlo

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
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
    "sweep_mc_chunks.csv": [
        "sweep", "--method", "mc", "--start", "0", "--stop", "40", "--step", "20",
        "--samples", "250001",
    ],
}
#: The worker thread counts each file is written on, where they matter.
THREADS = {"sweep_mc_chunks.csv": ("1", "2")}


def _first_difference(written: bytes, stored: bytes) -> str:
    """Where two CSVs part: their first differing row, or their row counts."""
    rows, golden_rows = written.decode().splitlines(), stored.decode().splitlines()
    for number, (row, golden) in enumerate(zip(rows, golden_rows), start=1):
        if row != golden:
            return f"row {number} reads {row!r}, stored {golden!r}"
    return f"{len(rows)} rows written, {len(golden_rows)} stored"


@pytest.mark.parametrize(
    "name,threads",
    [
        pytest.param(name, threads, id=name if threads is None else f"{name}-threads{threads}")
        for name in sorted(SWEEPS)
        for threads in THREADS.get(name, (None,))
    ],
)
def test_sweep_matches_golden_bytes(name, threads, tmp_path, monkeypatch, capsys):
    # As in a new process: no workspace or standard draw is kept from before.
    monkeypatch.setattr(montecarlo, "_reserve", montecarlo._Reserve())
    if threads is not None:
        monkeypatch.setenv("CRUL_THREADS", threads)
    out = tmp_path / name
    assert cli.main([*SWEEPS[name], "--out", str(out)]) == 0
    written, stored = out.read_bytes(), (GOLDEN / name).read_bytes()
    command = shlex.join(["crul", *SWEEPS[name], "--out", f"tests/golden/{name}"])
    assert written == stored, (
        f"{name}: {_first_difference(written, stored)}; "
        f"regenerate it with `{command}` and explain the diff"
    )


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


def _script(name: str):
    """The generator ``scripts/<name>.py``, loaded as a module, so a test
    and the script that writes its golden file cannot drift apart."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_deviation_report_matches_golden():
    report = _script("deviation_golden").quick_report()
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


def test_chunk_sums_match_golden_bits():
    """Every family's sum and squared sum of each stored chunk, compared as
    the hex of their doubles."""
    written = _script("chunk_sums_golden").chunk_sums()
    stored = json.loads((GOLDEN / "chunk_sums.json").read_text(encoding="utf-8"))
    regenerate = "regenerate it with scripts/chunk_sums_golden.py and explain the diff"
    entries, golden_entries = written.pop("entries"), stored.pop("entries")
    assert written == stored, regenerate
    assert len(entries) == len(golden_entries), regenerate
    for entry, golden in zip(entries, golden_entries):
        where = (
            f"{golden['primary_db']} dB, rate_th {golden['rate_th']}, "
            f"chunk {golden['chunk']}, {golden['pass']} pass"
        )
        assert entry == golden, f"{where}: {regenerate}"
