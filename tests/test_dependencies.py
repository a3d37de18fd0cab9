"""numpy is the one runtime dependency of ``crul``.

scipy serves the tests, and the benchmark's checks, as an independent
reference only: no ``crul`` module imports it, and the release checks run
without it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Imports every ``crul`` module, then runs ``crul`` on its arguments, in a
#: process where ``import scipy`` fails.
_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import crul
for module in pkgutil.iter_modules(crul.__path__):
    importlib.import_module(f"crul.{module.name}")
from crul.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_every_module_imports_and_the_release_checks_pass_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["validate", "--quick", "--out", str(tmp_path / "report.json")]
    command = [sys.executable, "-c", _WITHOUT_SCIPY, *argv]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line.split()[:2] for line in done.stdout.splitlines() if line.startswith("criterion_")]
    assert lines == [[f"criterion_{i}", "PASS"] for i in range(1, 10)]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [requirement.split(">=")[0] for requirement in project["dependencies"]] == ["numpy"]
    extras = project["optional-dependencies"]
    assert "scipy>=1.9" in extras["test"]
    # mpmath only makes the reference tables, in the extra of their scripts.
    declares_mpmath = {
        name for name, requirements in extras.items()
        if any(requirement.startswith("mpmath") for requirement in requirements)
    }
    assert declares_mpmath == {"refs"}
