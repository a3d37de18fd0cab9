"""The end-to-end timing harness, ``scripts/bench_e2e.py``, on one cheap command."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_e2e.py"


def test_one_round_of_one_command_writes_the_schema(tmp_path):
    out = tmp_path / "BENCH_schema.json"
    command = [
        sys.executable, str(SCRIPT), "--label", "schema", "--runs", "1",
        "--commands", "point", "--out", str(out),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    document = json.loads(out.read_text(encoding="utf-8"))
    assert set(document) == {"label", "created", "runs", "threads", "host", "trees", "commands"}
    assert (document["label"], document["runs"], document["threads"]) == ("schema", 1, 2)
    assert set(document["host"]) == {"cpu_count", "cpu_model", "platform"}
    (label, tree), = document["trees"].items()
    assert label == "change"
    assert set(tree) == {"commit", "dirty", "python", "numpy", "simd", "blas", "dont_write_bytecode"}
    # The children inherit this environment, and with it whether they
    # compile crul from source in every run.
    assert tree["dont_write_bytecode"] is bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    entry = document["commands"]["point"]
    assert set(entry) == {"argv", "change"}
    runs = entry["change"]
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "minor_faults"):
        summary = runs[key]
        assert len(summary["samples"]) == 1
        assert summary["q1"] == summary["median"] == summary["q3"] == summary["samples"][0] > 0.0
    assert runs["exit"] == [0]
    assert len(runs["load"]) == 1 and len(runs["load"][0]) == 2
    (hashes,) = runs["sha256"]
    assert list(hashes) == ["point.csv"] and len(hashes["point.csv"]) == 64
