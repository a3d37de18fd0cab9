"""One fresh benchmark process: set ``crul`` up, run one round, report.

Reads a job (see ``workloads.build`` and ``run.py``) as JSON on standard
input and prints one JSON object on standard output.  In ``setup`` mode it
stops once the first point could start and it has timed one gap of host
speed probes; in ``round`` mode it then runs every operation of the round,
with a gap of probes before each and around the CSV write with
``cli.write_csv``, and checks what it wrote.  With ``trace`` set, the layer wrappers of ``spans``
are installed before set-up and the per-layer metrics are reported.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _setup(job: dict):
    sys.path.insert(0, job["src"])
    from crul import cli, specfun

    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise RuntimeError(f"crul imported from {cli.__file__}, not from {job['src']}")
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    settings = {
        key: cli.resolve_settings(cli.build_parser().parse_args(argv))
        for key, argv in job["settings"].items()
    }
    for resolved in settings.values():
        specfun.gauss_laguerre(resolved.nodes)
    return cli, settings, tracer


#: One probe is a fixed pure-Python loop of about 2 ms on a quiet host.
PROBE_ITERATIONS = 40_000
#: Probes in each gap between timed sections.
PROBES_PER_GAP = 10


def _probe_gap() -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of each probe of one gap: how fast the host runs
    now.  Contention from other tenants slows both clocks; time taken off
    the CPU slows only the wall clock."""
    wall, cpu = [], []
    for _ in range(PROBES_PER_GAP):
        cpu_start = time.process_time()
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        wall.append(time.perf_counter() - start)
        cpu.append(time.process_time() - cpu_start)
    return wall, cpu


def _sweep(cli, settings, ops, out_path) -> tuple[list, list, dict]:
    """Run every operation, then write the CSV; a failing operation is
    recorded and the round goes on.

    Returns the rows of each operation (None where it failed), the
    failures, and the timings: wall and CPU seconds of each operation and
    of writing the CSV, the wall seconds of the whole sweep without the
    probes, and the wall and CPU probe times of the gap before each
    operation, before the write and after it (see ``run._quiet_scale``).
    """
    rows, op_rows, failures = [], [], []
    times = {"op_s": [], "op_cpu_s": [], "probe_s": [], "probe_cpu_s": []}
    probing_s = 0.0

    def probe():
        nonlocal probing_s
        start = time.perf_counter()
        wall, cpu = _probe_gap()
        times["probe_s"].append(wall)
        times["probe_cpu_s"].append(cpu)
        probing_s += time.perf_counter() - start

    sweep_start = time.perf_counter()
    for op in ops:
        probe()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            produced = cli.make_rows(settings[op["settings"]], [tuple(op["point"])])
        except Exception as exc:  # counted as a failed operation, reported below
            failures.append({"op": op, "error": f"{type(exc).__name__}: {exc}"})
            produced = None
        times["op_s"].append(time.perf_counter() - start)
        times["op_cpu_s"].append(time.process_time() - cpu_start)
        op_rows.append(produced)
        rows.extend(produced or ())
    probe()
    cpu_start = time.process_time()
    start = time.perf_counter()
    cli.write_csv(rows, out_path)
    end = time.perf_counter()
    times["write_s"] = end - start
    times["write_cpu_s"] = time.process_time() - cpu_start
    times["sweep_s"] = end - sweep_start - probing_s
    probe()
    return op_rows, failures, times


def _check(settings, ops, op_rows, failures, out_path) -> list[str]:
    import checks

    problems = []
    for failure in failures:
        expected = failure["op"]["expect_fail"] and failure["error"].startswith(
            "OracleAccuracyError"
        )
        if not expected:
            problems.append(f"unexpected failure {failure}")
    expected_points, samples = {}, {}
    for op, produced in zip(ops, op_rows):
        if produced is None:
            continue
        resolved = settings[op["settings"]]
        rows = {
            (protocol.value, method)
            for protocol in resolved.protocols
            for method in resolved.methods
            if not (method == "analytic" and protocol.value in checks.BENCHMARKS)
        }
        point = tuple(op["point"])
        expected_points[point] = rows
        samples[point] = resolved.samples
    problems += checks.check_csv(out_path, expected_points, samples)
    return problems


def _check_threads(cli, settings, ops, op_rows, index) -> list[str]:
    """The rows of one point must not change between one and two threads."""
    op = ops[index]
    previous = os.environ.get("CRUL_THREADS")
    os.environ["CRUL_THREADS"] = "1"
    try:
        single = cli.make_rows(settings[op["settings"]], [tuple(op["point"])])
    finally:
        if previous is None:
            del os.environ["CRUL_THREADS"]
        else:
            os.environ["CRUL_THREADS"] = previous
    if single != op_rows[index]:
        return [f"rows at {op['point']} differ between 1 and {previous} threads"]
    return []


def main() -> int:
    job = json.load(sys.stdin)
    cli, settings, tracer = _setup(job)
    ready = time.monotonic()
    if job["mode"] == "setup":
        wall, cpu = _probe_gap()
        print(json.dumps({"ready": ready, "probe_s": [wall], "probe_cpu_s": [cpu]}))
        return 0

    ops = job["ops"]
    op_rows, failures, times = _sweep(cli, settings, ops, job["csv"])
    result = {
        "ready": ready,
        **times,
        "op_failed": [produced is None for produced in op_rows],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": len(failures),
    }
    if tracer is not None:
        tracer.uninstall()
        from crul.montecarlo import McConfig

        samples = max(resolved.samples for resolved in settings.values())
        chunks = McConfig(n_samples=samples).n_chunks
        result["layers"] = tracer.metrics(len(ops), chunks, times["sweep_s"])
        tracer.dump(job["spans"])

    problems = _check(settings, ops, op_rows, failures, job["csv"])
    if job["det_point"] is not None:
        problems += _check_threads(cli, settings, ops, op_rows, job["det_point"])
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
