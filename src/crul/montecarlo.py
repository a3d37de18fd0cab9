"""Seeded, parallel-deterministic Monte Carlo rate estimation.

Sample ``j`` belongs to chunk ``j // chunk_size``, and every chunk owns a
private counter-based random stream keyed by ``(seed, chunk index)``.
Chunks are therefore independent work items whose draws do not depend on
scheduling, and partial results are always combined in chunk order, so an
estimate is a pure function of ``(McConfig, scenario, protocol)`` no
matter how many worker threads execute it.

Within a chunk the primary-SNR block is drawn before the secondary-SNR
block (see ``channel.sample_snrs``), which pins down every realization
bit-for-bit.  Because the stream key ignores the protocol, estimates for
different protocols under one config share realizations — per-draw
dominance claims can be checked sample by sample.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ScenarioConfig, sample_snrs
from .protocols import (
    ProtocolKind,
    csi_rate_array,
    qos_rate_array,
    rsma_case_array,
    rsma_rate_arrays,
    sic_case_array,
    sic_power_factor_array,
    sic_rate_arrays,
)

_SEED_MASK = (1 << 64) - 1
#: Estimation routes, in the order the CLI runs them by default.
METHODS = ("mc", "analytic", "oracle")

#: Number of admission cases in each protocol's rate decomposition.
CASE_FAMILIES = {
    ProtocolKind.CR_RSMA: 3,
    ProtocolKind.CR_SIC: 4,
    ProtocolKind.CR_SIC_NORM: 4,
    ProtocolKind.BENCH_CSI: 1,
    ProtocolKind.BENCH_QOS: 2,
}


@dataclass(frozen=True)
class EstimateResult:
    """One estimated ergodic rate (or auxiliary mean) with its precision.

    ``stderr`` is the sample standard deviation over the square root of
    the sample count for Monte Carlo results and exactly zero for the
    deterministic methods; those also record ``n_samples = 0``.
    """

    value: float
    stderr: float
    n_samples: int
    method: str
    protocol: ProtocolKind

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {self.n_samples}")
        if self.method == "mc" and self.n_samples < 1:
            raise ValueError("mc results need at least one sample")
        if not self.stderr >= 0.0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")


@dataclass(frozen=True)
class McConfig:
    """Sampling budget plus the determinism contract knobs."""

    n_samples: int = 10**6
    seed: int = 0
    chunk_size: int = 100_000

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not -(1 << 63) <= self.seed < (1 << 64):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    @property
    def n_chunks(self) -> int:
        return -(-self.n_samples // self.chunk_size)

    def chunk_counts(self) -> list[int]:
        """Sample count per chunk, in chunk order (last may be short)."""
        full, rest = divmod(self.n_samples, self.chunk_size)
        counts = [self.chunk_size] * full
        if rest:
            counts.append(rest)
        return counts


def chunk_stream(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent generator for one chunk of the sample index space.

    Counter-based construction: the Philox key is the (seed, chunk)
    pair, so streams for different chunks are statistically independent
    and reproducible without sequential jumping.
    """
    key = np.array([seed & _SEED_MASK, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def resolve_workers(workers: int | None, n_tasks: int) -> int:
    """Worker-count policy: explicit argument, else CRUL_THREADS, else auto."""
    if workers is None:
        env = os.environ.get("CRUL_THREADS", "").strip()
        workers = int(env) if env else 0
    if workers < 0:
        raise ValueError(f"worker count must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def _map_chunks(kernel, mc: McConfig, workers: int | None):
    """Run ``kernel(chunk_index, count)`` over all chunks, in chunk order."""
    counts = mc.chunk_counts()
    tasks = list(enumerate(counts))
    n_workers = resolve_workers(workers, len(tasks))
    if n_workers == 1:
        return [kernel(i, m) for i, m in tasks]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(lambda im: kernel(im[0], im[1]), tasks))


def _rates_and_cases(protocol: ProtocolKind, scenario: ScenarioConfig, gamma_pu, gamma_su):
    theta, width = scenario.theta, scenario.bandwidth
    if protocol is ProtocolKind.CR_RSMA:
        rates, _ = rsma_rate_arrays(gamma_pu, gamma_su, theta, width)
        return rates, rsma_case_array(gamma_pu, gamma_su, theta)
    if protocol is ProtocolKind.CR_SIC:
        rates, _ = sic_rate_arrays(gamma_pu, gamma_su, theta, width)
        return rates, sic_case_array(gamma_pu, gamma_su, theta)
    if protocol is ProtocolKind.BENCH_CSI:
        rates = csi_rate_array(gamma_pu, gamma_su, theta, width)
        return rates, np.zeros(rates.shape, dtype=np.int8)
    if protocol is ProtocolKind.BENCH_QOS:
        rates = qos_rate_array(gamma_pu, gamma_su, theta, width)
        admitted = (gamma_pu > theta * (1.0 + gamma_su)).astype(np.int8)
        return rates, admitted
    raise ValueError(f"no per-realization rate rule for {protocol}")


def _rate_chunk(protocol, scenario, mc, index, count, per_draw_norm=False):
    """Per-case rate sums, squared-rate sum, and case counts for one chunk."""
    rng = chunk_stream(mc.seed, index)
    gamma_pu, gamma_su = sample_snrs(scenario, rng, count)
    if per_draw_norm:
        scale = sic_power_factor_array(gamma_pu, gamma_su, scenario.theta)
        gamma_su = gamma_su / scale
        protocol = ProtocolKind.CR_SIC
    rates, cases = _rates_and_cases(protocol, scenario, gamma_pu, gamma_su)
    n_cases = CASE_FAMILIES[protocol]
    sums = np.bincount(cases, weights=rates, minlength=n_cases)
    counts = np.bincount(cases, minlength=n_cases)
    square_sum = float(np.sum(np.square(rates)))
    return sums, square_sum, counts


def _combine_rate_chunks(chunks, n_cases):
    """Fold per-chunk stats in chunk order into exact-order totals."""
    case_sums = [
        math.fsum(chunk[0][k] for chunk in chunks) for k in range(n_cases)
    ]
    square_sum = math.fsum(chunk[1] for chunk in chunks)
    counts = [int(sum(int(chunk[2][k]) for chunk in chunks)) for k in range(n_cases)]
    return case_sums, square_sum, counts


def _collect_rates(protocol, scenario, mc, workers, per_draw_norm=False):
    chunks = _map_chunks(
        lambda i, m: _rate_chunk(protocol, scenario, mc, i, m, per_draw_norm),
        mc,
        workers,
    )
    effective = ProtocolKind.CR_SIC if per_draw_norm else protocol
    return _combine_rate_chunks(chunks, CASE_FAMILIES[effective])


def _finish(case_sums, square_sum, mc, protocol) -> EstimateResult:
    n = mc.n_samples
    # The headline mean is defined as the fsum of the per-case means so
    # that the case breakdown sums back to it bit-for-bit.
    value = math.fsum(s / n for s in case_sums)
    if n > 1:
        variance = max(0.0, (square_sum - n * value * value) / (n - 1))
        stderr = math.sqrt(variance / n)
    else:
        stderr = 0.0
    return EstimateResult(
        value=value, stderr=stderr, n_samples=n, method="mc", protocol=protocol
    )


def estimate(
    protocol: ProtocolKind,
    scenario: ScenarioConfig,
    mc: McConfig,
    *,
    workers: int | None = None,
    norm_power_factor: float | None = None,
    norm_per_realization: bool = False,
) -> EstimateResult:
    """Monte Carlo ergodic SU rate under one protocol.

    Rates follow the restricted-expectation convention: a realization
    outside a protocol's admission events contributes zero, so the mean
    is over all draws, not over admitted ones.

    The normalized-SIC protocol compares SIC against rate splitting at
    equal average transmit power.  By default the average power scale is
    estimated first (same config, hence same draws) and the SIC run is
    repeated with the secondary's mean SNR boosted by its inverse;
    ``norm_power_factor`` substitutes an externally computed scale, and
    ``norm_per_realization=True`` switches to rescaling each draw by its
    own control-law scale instead.
    """
    if norm_power_factor is not None and protocol is not ProtocolKind.CR_SIC_NORM:
        raise ValueError("norm_power_factor only applies to the normalized protocol")
    if norm_per_realization and protocol is not ProtocolKind.CR_SIC_NORM:
        raise ValueError("norm_per_realization only applies to the normalized protocol")

    if protocol is ProtocolKind.CR_SIC_NORM:
        if norm_per_realization:
            sums, sq, _ = _collect_rates(
                protocol, scenario, mc, workers, per_draw_norm=True
            )
        else:
            scale = (
                norm_power_factor
                if norm_power_factor is not None
                else mean_power_factor(scenario, mc, workers=workers).value
            )
            if not scale > 0.0:
                raise ValueError(f"power scale must be > 0, got {scale}")
            boosted = scenario.with_secondary_snr_scaled(1.0 / scale)
            sums, sq, _ = _collect_rates(ProtocolKind.CR_SIC, boosted, mc, workers)
        return _finish(sums, sq, mc, protocol)

    sums, sq, _ = _collect_rates(protocol, scenario, mc, workers)
    return _finish(sums, sq, mc, protocol)


def estimate_by_case(
    protocol: ProtocolKind,
    scenario: ScenarioConfig,
    mc: McConfig,
    *,
    workers: int | None = None,
) -> dict[int, float]:
    """Mean rate contribution of each admission case (restricted means).

    The values sum (``math.fsum``) to ``estimate(...).value`` exactly:
    both are computed from the same per-case totals in the same order.
    """
    if protocol is ProtocolKind.CR_SIC_NORM:
        scale = mean_power_factor(scenario, mc, workers=workers).value
        scenario = scenario.with_secondary_snr_scaled(1.0 / scale)
        sums, _, _ = _collect_rates(ProtocolKind.CR_SIC, scenario, mc, workers)
    else:
        sums, _, _ = _collect_rates(protocol, scenario, mc, workers)
    n = mc.n_samples
    return {k: s / n for k, s in enumerate(sums)}


def _power_chunk(scenario, mc, index, count):
    rng = chunk_stream(mc.seed, index)
    gamma_pu, gamma_su = sample_snrs(scenario, rng, count)
    scale = sic_power_factor_array(gamma_pu, gamma_su, scenario.theta)
    return float(np.sum(scale)), float(np.sum(np.square(scale)))


def mean_power_factor(
    scenario: ScenarioConfig, mc: McConfig, *, workers: int | None = None
) -> EstimateResult:
    """Monte Carlo mean of the SIC control-law power scale.

    The scale is the fraction of its budget the secondary may spend when
    the primary sits inside the protected band, and 1 elsewhere (full
    power is admissible), so the mean lives in (0, 1].
    """
    chunks = _map_chunks(
        lambda i, m: _power_chunk(scenario, mc, i, m), mc, workers
    )
    total = math.fsum(chunk[0] for chunk in chunks)
    square_sum = math.fsum(chunk[1] for chunk in chunks)
    n = mc.n_samples
    value = total / n
    if n > 1:
        variance = max(0.0, (square_sum - n * value * value) / (n - 1))
        stderr = math.sqrt(variance / n)
    else:
        stderr = 0.0
    return EstimateResult(
        value=value,
        stderr=stderr,
        n_samples=n,
        method="mc",
        protocol=ProtocolKind.CR_SIC,
    )


def _count_chunk(scenario, mc, index, count):
    rng = chunk_stream(mc.seed, index)
    gamma_pu, gamma_su = sample_snrs(scenario, rng, count)
    theta = scenario.theta
    rsma = np.bincount(rsma_case_array(gamma_pu, gamma_su, theta), minlength=3)
    sic = np.bincount(sic_case_array(gamma_pu, gamma_su, theta), minlength=4)
    return rsma, sic


def event_counts(
    scenario: ScenarioConfig, mc: McConfig, *, workers: int | None = None
) -> dict[str, int]:
    """Integer occurrence counts of every admission case, one shared stream.

    Both case families are tallied from the same draws, so each family's
    counts sum to ``n_samples`` exactly — the partition property holds on
    integers, before any float division.
    """
    chunks = _map_chunks(
        lambda i, m: _count_chunk(scenario, mc, i, m), mc, workers
    )
    counts: dict[str, int] = {}
    for k in range(3):
        counts[f"rsma_case_{k}"] = int(sum(int(chunk[0][k]) for chunk in chunks))
    for k in range(4):
        counts[f"sic_case_{k}"] = int(sum(int(chunk[1][k]) for chunk in chunks))
    return counts


def event_probabilities(
    scenario: ScenarioConfig, mc: McConfig, *, workers: int | None = None
) -> dict[str, float]:
    """Empirical frequency of every admission case (see ``event_counts``)."""
    return {
        label: count / mc.n_samples
        for label, count in event_counts(scenario, mc, workers=workers).items()
    }
