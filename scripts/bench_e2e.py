#!/usr/bin/env python3
"""Time ``crul``'s end-to-end commands in child processes and write
``BENCH_<label>.json``.

Each run of a command is a fresh interpreter with ``CRUL_THREADS=2`` and
``PYTHONPATH`` set to the tree's ``src/``, reaped by ``os.wait4``: its wall
time, its user plus system CPU and its peak RSS are those of the child
alone.  With ``--against DIR`` a second source tree (the parent of a
change) runs the same commands, alternating run for run, and which tree
goes first changes each round, so a slow stretch of the host falls on both.
Every output file's SHA-256 is recorded too, so the file also shows whether
the outputs moved.  Standard library only; run it from anywhere:

    python scripts/bench_e2e.py --label mine --runs 5 --against ../parent

A claim of a speed-up commits the file this writes, made ``--against`` the
parent tree on one machine.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Each command's arguments to ``python``; ``{out}`` is the run's output
#: directory, whose files are hashed after the run.  The first four are the
#: default set; ``point`` is a cheap one for checking the harness itself.
COMMANDS = {
    "figure2": ["-m", "crul", "figure2", "--out", "{out}/figure2.csv"],
    "figure3": ["-m", "crul", "figure3", "--out", "{out}/figure3.csv"],
    "validate-quick": ["-m", "crul", "validate", "--quick", "--out", "{out}/report.json"],
    "tier1": ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
    "point": [
        "-m", "crul", "point", "--gamma0", "20", "--method", "oracle", "--out", "{out}/point.csv",
    ],
}
DEFAULT_COMMANDS = ("figure2", "figure3", "validate-quick", "tier1")
#: What a child reports of the interpreter and numpy it runs on.
_VERSIONS = """
import json, platform, numpy
info = {"python": platform.python_version(), "numpy": numpy.__version__}
try:
    config = numpy.show_config(mode="dicts")
    info["simd"] = config.get("SIMD Extensions")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    info["blas"] = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
except (TypeError, AttributeError):  # numpy before 1.26
    info["simd"] = info["blas"] = None
print(json.dumps(info))
"""


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git(tree: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _describe(tree: Path) -> dict:
    """The tree's commit, whether it differs from it, and its versions."""
    # Only a tree that is itself a checkout has a commit: an exported one
    # inside another repository would otherwise report that one's.
    top = _git(tree, "rev-parse", "--show-toplevel")
    checkout = top is not None and Path(top).resolve() == tree
    status = _git(tree, "status", "--porcelain", "--untracked-files=no") if checkout else None
    versions = subprocess.run(
        [sys.executable, "-c", _VERSIONS], capture_output=True, text=True, check=True, timeout=60
    )
    return {
        "commit": _git(tree, "rev-parse", "HEAD") if checkout else None,
        "dirty": bool(status) if checkout else None,
        **json.loads(versions.stdout),
    }


def _run(tree: Path, argv: list[str], out: Path) -> dict:
    """One child run of ``argv`` in ``tree``: its times, RSS and outputs."""
    out.mkdir(parents=True)
    env = dict(os.environ, CRUL_THREADS="2", PYTHONPATH=str(tree / "src"))
    command = [sys.executable, *(part.format(out=out) for part in argv)]
    load_before = os.getloadavg()[0]
    with open(out.parent / (out.name + ".log"), "wb") as log:
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # Linux reports kilobytes.
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "load": [load_before, os.getloadavg()[0]],
        "exit": child.returncode,
        "sha256": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        },
    }


def _summary(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def bench(trees: dict[str, Path], commands: list[str], runs: int) -> dict:
    """Every command's runs in every tree, alternating trees run for run."""
    results = {name: {label: [] for label in trees} for name in commands}
    order = list(trees)
    with tempfile.TemporaryDirectory(prefix="bench_e2e_") as scratch:
        for round_index in range(runs):
            for name in commands:
                for label in order:
                    out = Path(scratch) / f"{round_index}-{name}-{label}"
                    record = _run(trees[label], COMMANDS[name], out)
                    results[name][label].append(record)
                    print(
                        f"round {round_index} {name} {label}: {record['wall_s']:.3f} s, "
                        f"{record['peak_rss_mb']:.1f} MB, exit {record['exit']}",
                        file=sys.stderr,
                    )
            order.reverse()
    report = {}
    for name, by_tree in results.items():
        report[name] = {"argv": COMMANDS[name]}
        for label, records in by_tree.items():
            entry = {
                key: _summary([record[key] for record in records])
                for key in ("wall_s", "cpu_s", "peak_rss_mb")
            }
            entry["load"] = [record["load"] for record in records]
            entry["exit"] = [record["exit"] for record in records]
            entry["sha256"] = [record["sha256"] for record in records]
            report[name][label] = entry
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--runs", type=int, default=3, help="rounds of every command")
    parser.add_argument("--against", type=Path, help="a parent source tree to alternate with")
    parser.add_argument(
        "--commands", default=",".join(DEFAULT_COMMANDS),
        help=f"comma-separated subset of {', '.join(COMMANDS)}",
    )
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<label>.json)")
    args = parser.parse_args(argv)
    commands = args.commands.split(",")
    unknown = [name for name in commands if name not in COMMANDS]
    if unknown or args.runs < 1:
        parser.error(f"unknown commands {unknown}" if unknown else "--runs must be >= 1")
    trees = {"change": ROOT}
    if args.against is not None:
        trees["parent"] = args.against.resolve()
    document = {
        "label": args.label,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "runs": args.runs,
        "threads": 2,
        "host": {
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
        },
        "trees": {label: _describe(tree) for label, tree in trees.items()},
        "commands": bench(trees, commands, args.runs),
    }
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    failed = [
        name for name, entry in document["commands"].items()
        if any(code != 0 for label in trees for code in entry[label]["exit"])
    ]
    if failed:
        print(f"a run failed: {', '.join(failed)} (see each run's exit)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
