"""Byte-for-byte regression against committed sweep outputs.

Each file under ``golden/`` is the CSV that ``crul sweep`` wrote with the
arguments next to its name.  Both runs cover every protocol and every
method; the equal-SNR run reaches 40 dB, where term arbitration falls back
to the adaptive ``integral`` routes.  A change that claims to keep results
must keep these bytes; one that moves them regenerates the files with the
same arguments and explains the diff.
"""

from pathlib import Path

import pytest

from crul import cli

GOLDEN = Path(__file__).parent / "golden"
SWEEPS = {
    "sweep_both.csv": ["--start", "0", "--stop", "40", "--step", "10"],
    "sweep_pu.csv": ["--sweep-var", "pu", "--start", "0", "--stop", "60", "--step", "20"],
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    argv = ["sweep", *SWEEPS[name], "--samples", "20000", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
