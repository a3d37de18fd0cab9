"""Executable release checks behind the ``validate`` subcommand.

Each numbered criterion lives in its own function and returns a
:class:`CheckResult`, so the CLI and the acceptance test suite share one
implementation: the CLI prints a line per result, the tests assert on the
same objects at their full budgets.  :func:`run_all` runs the battery in
order and also returns the closed-form deviation report produced along
the way (criterion 5), ready to be dumped as JSON.

The checks deliberately cross implementations: quadrature and special
functions are judged against frozen independent references, the Monte
Carlo engine against adaptive integration, the closed forms against both,
and the CLI against itself under different thread counts.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.special

from .channel import ScenarioConfig, sample_snrs
from .crosscheck import deviation_report, relative_deviation
from .montecarlo import McConfig, chunk_stream, estimate, mean_power_factor, sample_point
from .oracle import (
    ergodic_delta_oracle,
    ergodic_rate_oracle,
    expected_clean_rate,
    mean_power_factor_oracle,
)
from .protocols import (
    CellDraws,
    ProtocolKind,
    primary_rate_arrays,
    rsma_rate_arrays,
    sic_case_array,
    sic_rate_arrays,
)
from .specfun import expint_ei, gauss_laguerre

ANALYTIC_GRID_DB = tuple(float(db) for db in range(0, 41, 5))
FIGURE2_GRID_DB = tuple(float(db) for db in range(0, 41, 2))

_QUICK_ANALYTIC_GRID = (0.0, 20.0, 40.0)
_QUICK_FIGURE2_GRID = (0.0, 10.0, 20.0, 30.0, 40.0)

_PROTECTION_FLOOR_SLACK = 1e-9
#: Gauss-Laguerre orders whose moment exactness criterion 1 checks.
_QUADRATURE_ORDERS = (2, 5, 20, 100)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numbered release check."""

    id: int
    name: str
    passed: bool
    measured: float
    tolerance: float
    runtime_s: float
    detail: str = ""


def _scenario(snr_db: float, secondary_db: float | None = None) -> ScenarioConfig:
    return ScenarioConfig.from_snr_db(
        snr_db, snr_db if secondary_db is None else secondary_db
    )


def _draw_chunks(scenario: ScenarioConfig, seed: int, samples: int):
    """Yield the classified draws of each chunk of the seeded substreams."""
    mc = McConfig(n_samples=samples, seed=seed)
    theta = scenario.theta
    for index, count in enumerate(mc.chunk_counts()):
        pu_snr, su_snr = sample_snrs(scenario, chunk_stream(seed, index), count)
        yield CellDraws(pu_snr, su_snr, theta, sic_case_array(pu_snr, su_snr, theta))


# --------------------------------------------------------------- criterion 1


def criterion_quadrature() -> CheckResult:
    """An n-point rule must integrate x^k e^{-x} to k! for all k <= 2n-1.

    Sums run in log space because the linear weights underflow long before
    order 100; the comparison target log(k!) comes from ``math.lgamma``.
    """
    start = time.perf_counter()
    worst = 0.0
    for order in _QUADRATURE_ORDERS:
        rule = gauss_laguerre(order)
        log_nodes = np.log(rule.nodes)
        for power in range(2 * order):
            log_terms = rule.log_weights + power * log_nodes
            peak = float(log_terms.max())
            log_moment = peak + math.log(float(np.exp(log_terms - peak).sum()))
            deviation = abs(math.expm1(log_moment - math.lgamma(power + 1)))
            worst = max(worst, deviation)
    return CheckResult(
        id=1,
        name="quadrature moment exactness",
        passed=worst <= 1e-10,
        measured=worst,
        tolerance=1e-10,
        runtime_s=time.perf_counter() - start,
        detail=f"orders {_QUADRATURE_ORDERS}, every moment up to degree 2n-1",
    )


# --------------------------------------------------------------- criterion 2

# Frozen from mpmath.ei at 30 significant digits (same table the unit
# tests pin); doubles carry ~16 of those digits.
_EI_NEGATIVE_REFERENCE = {
    1e-4: -8.63322470457470543,
    0.1: -1.8229239584193906661,
    0.5: -0.55977359477616081175,
    1.0: -0.21938393439552027368,
    5.0: -0.0011482955912753257973,
    20.0: -9.8355252906498816904e-11,
    100.0: -3.6835977616820321802e-46,
}


def criterion_special_functions() -> CheckResult:
    """Negative-axis exponential integral vs. the frozen reference table.

    Also enforces Ei(-x) == -E1(x) against scipy's independent E1 to a
    tighter 1e-12, since the identity has no cancellation to hide behind.
    """
    start = time.perf_counter()
    worst_value = max(
        abs(expint_ei(-x) - reference) / abs(reference)
        for x, reference in _EI_NEGATIVE_REFERENCE.items()
    )
    worst_identity = max(
        abs(expint_ei(-x) + scipy.special.exp1(x)) / scipy.special.exp1(x)
        for x in _EI_NEGATIVE_REFERENCE
    )
    passed = worst_value <= 1e-10 and worst_identity <= 1e-12
    return CheckResult(
        id=2,
        name="exponential integral accuracy",
        passed=passed,
        measured=worst_value,
        tolerance=1e-10,
        runtime_s=time.perf_counter() - start,
        detail=f"identity vs scipy E1 deviates {worst_identity:.3g} (limit 1e-12)",
    )


# --------------------------------------------------------------- criterion 3


def criterion_pu_protection(seed: int = 0, samples: int = 10**6) -> CheckResult:
    """Whenever the primary link can stand alone, its rate must be kept.

    Counts realizations with ``gamma_pu >= theta`` where either protocol
    leaves the primary below ``log2(1 + theta)`` (minus a rounding
    allowance).  The pass bar is exactly zero violations.
    """
    start = time.perf_counter()
    violations = 0
    protected_draws = 0
    worst_margin = math.inf
    for snr_db in (10.0, 20.0, 30.0):
        scenario = _scenario(snr_db)
        theta = scenario.theta
        floor = math.log2(1.0 + theta) - _PROTECTION_FLOOR_SLACK
        for draws in _draw_chunks(scenario, seed, samples):
            protected = draws.gamma_pu >= theta
            protected_draws += int(np.count_nonzero(protected))
            for pu_rate in primary_rate_arrays(draws):
                covered = pu_rate[protected]
                if covered.size:
                    worst_margin = min(worst_margin, float(covered.min()) - floor)
                    violations += int(np.count_nonzero(covered < floor))
    return CheckResult(
        id=3,
        name="primary-user protection",
        passed=violations == 0,
        measured=float(violations),
        tolerance=0.0,
        runtime_s=time.perf_counter() - start,
        detail=(
            f"{protected_draws} protected draws per protocol across 10/20/30 dB; "
            f"worst margin above floor {worst_margin:.3g}"
        ),
    )


# --------------------------------------------------------------- criterion 4


def criterion_dominance(seed: int = 0, samples: int = 10**6) -> CheckResult:
    """Rate splitting never trails pure SIC on shared channel draws.

    Checked per realization (allowing 1e-12 of rounding), strictly inside
    the split band where the protocols genuinely differ, and at the
    ergodic level through the adaptive-integration gap.
    """
    start = time.perf_counter()
    scenario = _scenario(20.0)
    worst_gap = -math.inf
    band_draws = 0
    band_ties = 0
    for draws in _draw_chunks(scenario, seed, samples):
        splitting = rsma_rate_arrays(draws)
        pure = sic_rate_arrays(draws)
        worst_gap = max(worst_gap, float((pure - splitting).max()))
        band = draws.band
        band_draws += band.size
        band_ties += int(np.count_nonzero(splitting[band] <= pure[band]))
    ergodic_gap = ergodic_delta_oracle(scenario)
    passed = worst_gap <= 1e-12 and band_ties == 0 and ergodic_gap >= -1e-6
    return CheckResult(
        id=4,
        name="rate-splitting dominance",
        passed=passed,
        measured=worst_gap,
        tolerance=1e-12,
        runtime_s=time.perf_counter() - start,
        detail=(
            f"{band_draws} split-band draws, {band_ties} non-strict; "
            f"ergodic gap {ergodic_gap:.6g}"
        ),
    )


# --------------------------------------------------------------- criterion 5


def criterion_analytic_oracle(
    grid: tuple[float, ...] = ANALYTIC_GRID_DB,
) -> tuple[CheckResult, dict]:
    """Arbitrated closed forms vs. adaptive integration, term by term.

    The per-term report doubles as the deviation report: every published
    route is tabulated against its term oracle, and routes off by more
    than the report threshold are listed with their alternative values.
    """
    start = time.perf_counter()
    scenarios = {f"gamma0_{db:g}db": _scenario(db) for db in grid}
    report = deviation_report(scenarios)

    totals: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for entry in report["entries"]:
        if entry["counts_toward_total"]:
            key = (entry["config"], entry["protocol"])
            totals.setdefault(key, []).append((entry["chosen_value"], entry["oracle"]))
    worst = 0.0
    worst_at = "n/a"
    for (label, protocol), pairs in totals.items():
        arbitrated = math.fsum(chosen for chosen, _ in pairs)
        oracle_total = math.fsum(oracle for _, oracle in pairs)
        deviation = relative_deviation(arbitrated, oracle_total)
        if deviation > worst:
            worst, worst_at = deviation, f"{protocol} at {label}"
    check = CheckResult(
        id=5,
        name="closed forms vs integration oracle",
        passed=worst <= 1e-3,
        measured=worst,
        tolerance=1e-3,
        runtime_s=time.perf_counter() - start,
        detail=(
            f"worst total deviation {worst_at}; "
            f"{len(report['flagged'])} as-printed route(s) past 1% tabulated"
        ),
    )
    return check, report


# --------------------------------------------------------------- criterion 6


def criterion_mc_consistency(
    seed: int = 0,
    samples: int = 10**6,
    grid: tuple[float, ...] = ANALYTIC_GRID_DB,
) -> CheckResult:
    """Monte Carlo within three standard errors of the oracle, everywhere.

    The normalized protocol is pinned to the oracle's mean power scale on
    both sides so the comparison isolates the rate estimator instead of
    folding in scale-estimation noise.  The plain protocols of a grid
    point come from one sampling pass, the pinned one from a second.
    """
    start = time.perf_counter()
    mc = McConfig(n_samples=samples, seed=seed)
    plain = tuple(p for p in ProtocolKind if p is not ProtocolKind.CR_SIC_NORM)
    worst_sigma = 0.0
    worst_at = "n/a"
    for snr_db in grid:
        scenario = _scenario(snr_db)
        sampled, _ = sample_point(scenario, mc, plain)
        for protocol in ProtocolKind:
            if protocol is ProtocolKind.CR_SIC_NORM:
                scale = mean_power_factor_oracle(scenario)
                estimated = estimate(protocol, scenario, mc, norm_power_factor=scale)
            else:
                estimated = sampled[protocol]
            reference = ergodic_rate_oracle(protocol, scenario)
            sigma = abs(estimated.value - reference) / estimated.stderr
            if sigma > worst_sigma:
                worst_sigma = sigma
                worst_at = f"{protocol.value} at {snr_db:g} dB"
    return CheckResult(
        id=6,
        name="Monte Carlo vs oracle",
        passed=worst_sigma <= 3.0,
        measured=worst_sigma,
        tolerance=3.0,
        runtime_s=time.perf_counter() - start,
        detail=f"worst deviation {worst_at} ({samples} samples per point)",
    )


# --------------------------------------------------------------- criterion 7


def criterion_figure2_shape(
    seed: int = 0,
    samples: int = 10**6,
    grid: tuple[float, ...] = FIGURE2_GRID_DB,
) -> CheckResult:
    """Qualitative shape of the equal-SNR sweep.

    Oracle curves must order as splitting >= pure SIC >= both benchmarks
    (strictly splitting > SIC at 20 dB), and the estimated mean power
    scale must fall monotonically along the grid within sampling noise.
    """
    start = time.perf_counter()
    if 20.0 not in grid:
        raise ValueError("grid must contain the 20 dB reference point")
    mc = McConfig(n_samples=samples, seed=seed)
    worst_violation = -math.inf
    strict_gap_20db = math.nan
    scales: list[tuple[float, float]] = []
    for snr_db in grid:
        scenario = _scenario(snr_db)
        splitting = ergodic_rate_oracle(ProtocolKind.CR_RSMA, scenario)
        pure = ergodic_rate_oracle(ProtocolKind.CR_SIC, scenario)
        informed = ergodic_rate_oracle(ProtocolKind.BENCH_CSI, scenario)
        gated = ergodic_rate_oracle(ProtocolKind.BENCH_QOS, scenario)
        worst_violation = max(
            worst_violation, pure - splitting, max(informed, gated) - pure
        )
        if snr_db == 20.0:
            strict_gap_20db = splitting - pure
        scale = mean_power_factor(scenario, mc)
        scales.append((scale.value, scale.stderr))
    monotone = all(
        later - earlier <= 3.0 * math.hypot(se_earlier, se_later)
        for (earlier, se_earlier), (later, se_later) in zip(scales, scales[1:])
    )
    passed = worst_violation <= 1e-9 and strict_gap_20db > 0.0 and monotone
    return CheckResult(
        id=7,
        name="equal-SNR sweep ordering",
        passed=passed,
        measured=worst_violation,
        tolerance=1e-9,
        runtime_s=time.perf_counter() - start,
        detail=(
            f"strict gap at 20 dB {strict_gap_20db:.3g}; mean power scale "
            f"{'is' if monotone else 'is NOT'} non-increasing over {len(grid)} points"
        ),
    )


# --------------------------------------------------------------- criterion 8


def criterion_figure3_asymptote() -> CheckResult:
    """Strong-primary limit of the fixed-secondary sweep.

    At a 60 dB primary link every admission policy should converge on the
    interference-free secondary rate; at 10 dB the cognitive protocols
    must beat the hard QoS gate by a clear margin.
    """
    start = time.perf_counter()
    secondary_db = 20.0
    ceiling_scenario = _scenario(60.0, secondary_db)
    ceiling = expected_clean_rate(ceiling_scenario.lambda_su)
    convergent = (
        ProtocolKind.CR_RSMA,
        ProtocolKind.CR_SIC,
        ProtocolKind.BENCH_QOS,
    )
    worst_gap = max(
        abs(ergodic_rate_oracle(protocol, ceiling_scenario) - ceiling) / ceiling
        for protocol in convergent
    )
    low_scenario = _scenario(10.0, secondary_db)
    gated = ergodic_rate_oracle(ProtocolKind.BENCH_QOS, low_scenario)
    low_ratios = {
        protocol.value: ergodic_rate_oracle(protocol, low_scenario) / gated
        for protocol in (ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC)
    }
    passed = worst_gap <= 0.01 and all(r >= 1.1 for r in low_ratios.values())
    ratio_text = ", ".join(f"{k} {v:.3f}x" for k, v in sorted(low_ratios.items()))
    return CheckResult(
        id=8,
        name="strong-primary asymptote",
        passed=passed,
        measured=worst_gap,
        tolerance=0.01,
        runtime_s=time.perf_counter() - start,
        detail=f"vs QoS at 10 dB: {ratio_text} (need >= 1.1x)",
    )


# --------------------------------------------------------------- criterion 9


def criterion_parallel_determinism(seed: int = 7, samples: int = 10**6) -> CheckResult:
    """Sweep output must be byte-identical across worker-thread counts."""
    from . import cli  # imported here: cli already imports this module

    start = time.perf_counter()
    outputs: dict[int, bytes] = {}
    previous = os.environ.get("CRUL_THREADS")
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for threads in (1, 4, 16):
                out_path = Path(workdir) / f"sweep_{threads}.csv"
                os.environ["CRUL_THREADS"] = str(threads)
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(
                        [
                            "sweep",
                            "--start", "0", "--stop", "10", "--step", "5",
                            "--protocol", "all",
                            "--method", "mc",
                            "--samples", str(samples),
                            "--seed", str(seed),
                            "--out", str(out_path),
                        ]
                    )
                if status != 0:
                    raise RuntimeError(f"sweep exited with status {status}")
                outputs[threads] = out_path.read_bytes()
    finally:
        if previous is None:
            os.environ.pop("CRUL_THREADS", None)
        else:
            os.environ["CRUL_THREADS"] = previous
    distinct = len(set(outputs.values()))
    return CheckResult(
        id=9,
        name="parallel sweep determinism",
        passed=distinct == 1,
        measured=float(distinct - 1),
        tolerance=0.0,
        runtime_s=time.perf_counter() - start,
        detail=f"threads 1/4/16, {samples} samples, {len(outputs[1])} bytes each",
    )


# ------------------------------------------------------------------ battery


def run_all(
    quick: bool = False, seed: int = 0, samples: int | None = None
) -> tuple[list[CheckResult], dict]:
    """Run every check; return the results plus the deviation report.

    ``quick`` trades grid density and sample count for a sub-10-second
    run; the full battery uses the published budgets.  ``samples``
    overrides the Monte Carlo size in either mode.
    """
    if samples is None:
        samples = 10**5 if quick else 10**6
    analytic_grid = _QUICK_ANALYTIC_GRID if quick else ANALYTIC_GRID_DB
    figure2_grid = _QUICK_FIGURE2_GRID if quick else FIGURE2_GRID_DB
    # Even a quick determinism check needs several chunks in flight, or the
    # thread counts being compared never actually diverge in behavior.
    sweep_samples = 2 * McConfig().chunk_size if quick else samples

    results = [
        criterion_quadrature(),
        criterion_special_functions(),
        criterion_pu_protection(seed=seed, samples=samples),
        criterion_dominance(seed=seed, samples=samples),
    ]
    analytic_check, report = criterion_analytic_oracle(grid=analytic_grid)
    results.append(analytic_check)
    results.append(criterion_mc_consistency(seed=seed, samples=samples, grid=analytic_grid))
    results.append(criterion_figure2_shape(seed=seed, samples=samples, grid=figure2_grid))
    results.append(criterion_figure3_asymptote())
    # Offset within [0, 2**64), so the largest seed stays a valid --seed.
    determinism_seed = (seed + 7) % (1 << 64)
    results.append(criterion_parallel_determinism(seed=determinism_seed, samples=sweep_samples))
    return results, report
