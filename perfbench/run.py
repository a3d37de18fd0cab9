"""Benchmark of ``crul``: run one workload for a while, print its metrics.

    python3 perfbench/run.py --workload exact-fig2 --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports ``crul`` from the
checkout's ``src/``.  Every round runs in a fresh interpreter
(``worker.py``), one at a time, so set-up, CPU time and peak RSS are those
of one workload process.  Every round attempts the same operations; how
many rounds a run makes follows from ``--seconds`` (see ``_rounds``).

``--trace 0`` first starts a few processes that only set up, then rounds,
and reports the end-to-end metrics.  ``--trace 1`` alternates an untraced
round with a traced one, requires their CSVs to be byte-identical, and
reports the per-layer metrics of the traced rounds.  The last line of
standard output is one JSON object; diagnostics go to standard error.
See README.md for the workloads, the checks and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
#: Set-up-only processes per untraced run; with the rounds' own set-ups
#: the reported set-up time is a median of at least five.
SETUP_PROCESSES = 4
#: Fewest attempts of each operation per run.
MIN_ROUNDS = 1
#: No process may outlast this many seconds from the start of the run.
DEADLINE_S = 170.0
#: Wall seconds of one probe (``worker._probe_gap``) on a quiet host: the
#: fastest probe seen on the 2-CPU machine of the reference figures.  The
#: end-to-end times are scaled to the host speed at which a probe takes
#: this long (see ``_quiet_scale``).  A constant, not the run's own fastest
#: probe, because in a slow stretch of a minute or more no probe is fast.
REFERENCE_PROBE_S = 2.0e-3

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "point_p50_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A benchmark process failed; the run reports nothing."""


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error(f"--seed must be in [0, 2**63), got {args.seed}")
    if not 1 <= args.seconds <= 60:
        parser.error(f"--seconds must be in [1, 60], got {args.seconds}")
    return args


class Runner:
    """Starts worker processes one at a time and keeps the run's deadline."""

    def __init__(self, job: dict):
        self.job = job
        self.started = time.monotonic()
        self.env = {**os.environ, **job["env"]}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(
        self, mode: str, trace: bool = False, tag: str = "", check_threads: bool = False
    ) -> dict:
        """Run one worker; only a ``check_threads`` round repeats its
        determinism point on one thread (the rows cannot differ between
        rounds, and the repeat costs a point's time)."""
        job = {
            **self.job,
            "det_point": self.job["det_point"] if check_threads else None,
            "mode": mode,
            "trace": trace,
            "src": str(SRC),
            "csv": str(OUT / f"{self.job['workload']}{tag}.csv"),
            "spans": str(OUT / f"{self.job['workload']}{tag}-spans.json"),
        }
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0.0:
            raise BenchError("no time left for another process")
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(job),
                stdout=subprocess.PIPE,
                text=True,
                cwd=ROOT,
                env=self.env,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} process printed no result")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - launched
        return result


def _rounds(job: dict, seconds: int) -> int:
    """Rounds per run: fixed by ``--seconds`` and the workload, not by the clock.

    A run always compares the same number of attempts of each operation,
    so its figures are the same statistic in every run.
    """
    return max(MIN_ROUNDS, int(seconds // job["nominal_round_s"]))


def _quiet_scale(rounds: list[dict], key: str) -> list[list[float]]:
    """Per round, the factor that takes each timed section to quiet-host speed.

    The sections are the operations and then the CSV write.  Each is
    bracketed by two gaps of probes (``worker._probe_gap``), a fixed loop
    whose time changes only with how hard other tenants load the host.  A
    section's factor is ``REFERENCE_PROBE_S`` over the mean probe of the two
    gaps around it, timed on the same clock (``key``: wall ``s`` or
    ``cpu_s``), so a section timed while the host ran 1.6 times slower
    counts at 1/1.6 of its measured time.
    """
    return [
        [
            REFERENCE_PROBE_S / statistics.fmean(before + after)
            for before, after in zip(r[f"probe_{key}"], r[f"probe_{key}"][1:])
        ]
        for r in rounds
    ]


def _quiet_times(rounds: list[dict], key: str) -> list[list[float]]:
    """Per round, each section's time at quiet-host speed; the last entry
    is the CSV write."""
    return [
        [t * f for t, f in zip([*r[f"op_{key}"], r[f"write_{key}"]], factors, strict=True)]
        for r, factors in zip(rounds, _quiet_scale(rounds, key))
    ]


def _quiet_sum(rounds: list[dict], key: str) -> float:
    """One round at quiet-host speed: the sum over sections of the mean of
    their attempts."""
    return sum(statistics.fmean(attempts) for attempts in zip(*_quiet_times(rounds, key)))


def _untraced(runner: Runner, seconds: int) -> tuple[list[dict], dict]:
    setups = [runner.spawn("setup") for _ in range(SETUP_PROCESSES)]
    rounds = [
        runner.spawn("round", check_threads=i == 0) for i in range(_rounds(runner.job, seconds))
    ]
    # Set-up has a gap of probes right after it, on one side only.
    setup_s = [
        p["setup_s"] * REFERENCE_PROBE_S / statistics.fmean(p["probe_s"][0])
        for p in setups + rounds
    ]
    # Every successful attempt of every operation, pooled: with few points
    # per round, a median over attempts is steadier than one over
    # per-operation means.
    succeeded = [
        t
        for times in _quiet_times(rounds, "s")
        for t, failed in zip(times, rounds[0]["op_failed"])
        if not failed
    ]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "sweep_s": _quiet_sum(rounds, "s"),
        "point_p50_ms": 1000.0 * statistics.median(succeeded),
        "cpu_s": _quiet_sum(rounds, "cpu_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return rounds, {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name in ("montecarlo.parallelism", "trace.cli_coverage"):
        return "ratio"
    if name.endswith("_per_point"):
        return "count/point"
    return "count"


def _traced(runner: Runner, seconds: int) -> tuple[list[dict], dict]:
    """Untraced and traced rounds in turn; their CSVs must be byte-identical."""
    rounds, traced = [], []
    workload = runner.job["workload"]
    for i in range(max(1, _rounds(runner.job, seconds) // 2)):
        rounds.append(runner.spawn("round", tag="-untraced", check_threads=i == 0))
        traced.append(runner.spawn("round", trace=True, tag="-traced"))
        plain = (OUT / f"{workload}-untraced.csv").read_bytes()
        if (OUT / f"{workload}-traced.csv").read_bytes() != plain:
            traced[-1]["problems"].append("traced CSV differs from the untraced CSV")
    metrics = {
        name: (statistics.median(r["layers"][name] for r in traced), _unit(name))
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = (_quiet_sum(traced, "s") - _quiet_sum(rounds, "s"), "s")
    return rounds + traced, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "crul" / "cli.py").is_file():
        print(f"error: no crul sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(workloads.build(args.workload, args.seed))
    try:
        if args.trace:
            rounds, metrics = _traced(runner, args.seconds)
        else:
            rounds, metrics = _untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw = statistics.fmean(sum(r["op_s"]) + r["write_s"] for r in rounds)
    print(f"unscaled wall time of a round: {raw:.3f} s (mean)", file=sys.stderr)
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds in "
        f"{runner.elapsed():.1f} s",
        file=sys.stderr,
    )
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
