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

One chunk kernel serves every quantity: it draws a chunk once, classifies
it once into the decision cells of :mod:`crul.protocols`, and reduces it
for each requested family (the four plain protocols, and the SIC power
scale as a one-case family) into per-case sums and a squared sum, building
each family's rates from the cells and the per-draw logs the families
share.  One fold combines the chunks.  :func:`sample_point` takes every
protocol of a grid point and the mean power scale from one such pass, plus
the boosted pass of the power-normalized protocol; :func:`estimate` and
:func:`mean_power_factor` are the same pass over a single family.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ScenarioConfig, sample_snrs
from .protocols import (
    CellDraws,
    ProtocolKind,
    csi_rate_array,
    qos_rate_array,
    rsma_case_array,
    rsma_rate_arrays,
    sic_case_array,
    sic_power_factor_array,
    sic_rate_arrays,
)

#: Number of admission cases in each plain protocol's rate decomposition.
CASE_FAMILIES = {
    ProtocolKind.CR_RSMA: 3,
    ProtocolKind.CR_SIC: 4,
    ProtocolKind.BENCH_CSI: 1,
    ProtocolKind.BENCH_QOS: 2,
}
#: The SIC control-law power scale, sampled as a one-case family beside
#: the protocols.
_POWER = "power scale"


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

    def __post_init__(self):
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {self.n_samples}")
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
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

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
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def resolve_workers(n_tasks: int) -> int:
    """Worker count for ``n_tasks`` chunks: ``CRUL_THREADS``, unset or ``0``
    meaning one per CPU, never more than there are chunks."""
    env = os.environ.get("CRUL_THREADS", "").strip() or "0"
    if not env.isdecimal():
        raise ValueError(f"CRUL_THREADS must be a whole number >= 0, got {env!r}")
    workers = int(env) or os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def _map_chunks(kernel, mc: McConfig):
    """Run ``kernel(chunk_index, count)`` over all chunks, in chunk order."""
    counts = mc.chunk_counts()
    tasks = list(enumerate(counts))
    n_workers = resolve_workers(len(tasks))
    if n_workers == 1:
        return [kernel(i, m) for i, m in tasks]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(lambda im: kernel(im[0], im[1]), tasks))


def _family_sums(family, draws: CellDraws):
    """Per-case sums and the squared sum of one family over one chunk's draws."""
    if family is _POWER:
        scale = sic_power_factor_array(draws)
        return (float(np.sum(scale)),), float(np.sum(np.square(scale)))
    if family is ProtocolKind.CR_RSMA:
        rates, cases = rsma_rate_arrays(draws), rsma_case_array(draws.cells)
    elif family is ProtocolKind.CR_SIC:
        rates, cases = sic_rate_arrays(draws), draws.cells
    elif family is ProtocolKind.BENCH_CSI:
        rates = csi_rate_array(draws)
        cases = np.zeros(rates.shape, dtype=np.int8)
    elif family is ProtocolKind.BENCH_QOS:
        rates = qos_rate_array(draws)
        cases = draws.qos_admitted.astype(np.int8)
    else:
        raise ValueError(f"no per-realization rate rule for {family}")
    sums = np.bincount(cases, weights=rates, minlength=CASE_FAMILIES[family])
    return sums, float(np.sum(np.square(rates)))


def _chunk_sums(scenario: ScenarioConfig, families, seed: int, index: int, count: int):
    """Draw one chunk once and classify it once, then reduce it for each family.

    The shared per-draw logs are computed once, by the first family that
    reads them; each family's own arrays are dropped before the next
    family's are made.
    """
    gamma_pu, gamma_su = sample_snrs(scenario, chunk_stream(seed, index), count)
    cells = sic_case_array(gamma_pu, gamma_su, scenario.theta)
    draws = CellDraws(gamma_pu, gamma_su, scenario.theta, cells)
    return [_family_sums(family, draws) for family in families]


def _sample(scenario: ScenarioConfig, mc: McConfig, families) -> dict:
    """One pass over the draws: the estimate of every family, by family."""
    chunks = _map_chunks(lambda i, m: _chunk_sums(scenario, families, mc.seed, i, m), mc)
    results = {}
    # Fold each family's chunks in chunk order, so the totals do not
    # depend on scheduling.
    for family, parts in zip(families, zip(*chunks)):
        sums, squares = zip(*parts)
        case_sums = [math.fsum(case) for case in zip(*sums)]
        results[family] = _finish(case_sums, math.fsum(squares), mc)
    return results


def _finish(case_sums, square_sum, mc) -> EstimateResult:
    n = mc.n_samples
    # The headline mean is defined as the fsum of the per-case means so
    # that the case breakdown sums back to it bit-for-bit.
    value = math.fsum(s / n for s in case_sums)
    if n > 1:
        variance = max(0.0, (square_sum - n * value * value) / (n - 1))
        stderr = math.sqrt(variance / n)
    else:
        stderr = 0.0
    return EstimateResult(value=value, stderr=stderr, n_samples=n)


def _normalized(scenario: ScenarioConfig, mc: McConfig, scale: float) -> EstimateResult:
    """Pure SIC with the secondary's mean SNR boosted by ``1/scale``."""
    if not scale > 0.0:
        raise ValueError(f"power scale must be > 0, got {scale}")
    boosted = scenario.with_secondary_snr_scaled(1.0 / scale)
    return _sample(boosted, mc, (ProtocolKind.CR_SIC,))[ProtocolKind.CR_SIC]


def sample_point(
    scenario: ScenarioConfig,
    mc: McConfig,
    protocols: Iterable[ProtocolKind],
) -> tuple[dict[ProtocolKind, EstimateResult], EstimateResult]:
    """Monte Carlo estimates of every requested protocol at one grid point.

    The plain protocols and the mean power scale come from one pass over
    the draws.  The normalized protocol takes its scale from that pass and
    adds one pass at the boosted secondary SNR.  Each estimate is
    bit-identical to what :func:`estimate` and :func:`mean_power_factor`
    return under the same config.

    Returns ``(estimates by protocol, mean power scale)``.
    """
    requested = dict.fromkeys(protocols)
    plain = tuple(p for p in requested if p is not ProtocolKind.CR_SIC_NORM)
    estimates = _sample(scenario, mc, (*plain, _POWER))
    power = estimates.pop(_POWER)
    if ProtocolKind.CR_SIC_NORM in requested:
        estimates[ProtocolKind.CR_SIC_NORM] = _normalized(scenario, mc, power.value)
    return estimates, power


def estimate(
    protocol: ProtocolKind,
    scenario: ScenarioConfig,
    mc: McConfig,
    *,
    norm_power_factor: float | None = None,
) -> EstimateResult:
    """Monte Carlo ergodic SU rate under one protocol.

    Rates follow the restricted-expectation convention: a realization
    outside a protocol's admission events contributes zero, so the mean
    is over all draws, not over admitted ones.

    The normalized-SIC protocol compares SIC against rate splitting at
    equal average transmit power.  By default the average power scale is
    estimated first (same config, hence same draws) and the SIC run is
    repeated with the secondary's mean SNR boosted by its inverse;
    ``norm_power_factor`` substitutes an externally computed scale.
    """
    if protocol is not ProtocolKind.CR_SIC_NORM:
        if norm_power_factor is not None:
            raise ValueError("norm_power_factor only applies to the normalized protocol")
        return _sample(scenario, mc, (protocol,))[protocol]
    if norm_power_factor is None:
        norm_power_factor = mean_power_factor(scenario, mc).value
    return _normalized(scenario, mc, norm_power_factor)


def mean_power_factor(scenario: ScenarioConfig, mc: McConfig) -> EstimateResult:
    """Monte Carlo mean of the SIC control-law power scale.

    The scale is the fraction of its budget the secondary may spend when
    the primary sits inside the protected band, and 1 elsewhere (full
    power is admissible), so the mean lives in (0, 1].
    """
    return _sample(scenario, mc, (_POWER,))[_POWER]
