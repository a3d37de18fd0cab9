"""Byte-for-byte regression against committed CLI outputs.

Each file under ``golden/`` is the CSV that ``crul`` wrote with the
arguments next to its name.  The two sweeps cover every protocol and every
method; the equal-SNR one reaches 40 dB, where term arbitration falls back
to the oracle's own term value.  The two figure presets pin every
analytic and oracle row of their full grids.  A change that claims to keep
results must keep these bytes; one that moves them regenerates the files
with the same arguments and explains the diff.
"""

from pathlib import Path

import pytest

from crul import cli

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
