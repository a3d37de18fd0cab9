"""Seeded, parallel-deterministic Monte Carlo rate estimation.

Sample ``j`` belongs to chunk ``j // CHUNK_SIZE``, and every chunk owns a
private counter-based random stream keyed by ``(seed, chunk index)``.
Chunks are therefore independent work items whose draws do not depend on
scheduling, and partial results are always combined in chunk order, so an
estimate is a pure function of ``(seed, n_samples)``, the scenario and the
protocol, no matter how many worker threads execute it.

Within a chunk the primary-SNR block is drawn before the secondary-SNR
block (see ``channel.sample_snrs``), which pins down every realization
bit-for-bit.  Because the stream key ignores the protocol, estimates for
different protocols under one config share realizations — per-draw
dominance claims can be checked sample by sample.

One chunk kernel serves every quantity: it scales a chunk's standard draw
to the scenario, classifies it once into the decision cells of
:mod:`crul.protocols`, and reduces it for each requested family (the four
plain protocols, and the SIC power scale) into one sum and one squared
sum, building each family's rates from the cells and the per-draw logs the
families share, each over the last in one rates array.  One
``math.fsum`` per family combines the chunks.
:func:`sample_point` takes every protocol of a grid point and the mean
power scale from one such pass, plus the boosted pass of the
power-normalized protocol; :func:`estimate` and :func:`mean_power_factor`
are the same pass over a single family.

A pass on ``n`` workers gives worker ``w`` the chunks ``w, w + n, w + 2n,
...``, and it runs them in its own :class:`~crul.protocols.Workspace` of
buffers for one chunk, where each chunk is classified and reduced whole.
Chunks within a pass cost about the same, so the fixed stride balances the
work as well as a queue would.  Fresh chunk-sized arrays cost more than
the arithmetic on them, because the allocator returned their pages to the
system after every chunk and faulted them in again for the next.  For the
same reason the process keeps the workspaces, one per CPU at most, from
one pass to the next (see :class:`_Reserve`), instead of faulting in new
ones at every grid point.  Worker 0 runs in the calling thread, and the
other workers' threads live for one pass only.  Passes take turns, so no
workspace is ever in two at once.  Nor does any step store through a
data-dependent mask, which costs several times more on mixed cells than on
uniform ones.  Workspaces change where values are stored, not how they are
computed.

A chunk's SNRs are its standard draw divided by minus each link's rate
(``channel.scale_snrs``), and the draw depends on the seed and the chunk
only.  So the process keeps the last standard draw of each of the first
``KEPT_CHUNKS`` chunks, whatever its seed, and the boosted pass of a grid
point, and every later point of a sweep under one seed, rescale them
instead of drawing them again; the bits are those of a new draw.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ScenarioConfig, sample_snrs, scale_snrs
from .protocols import (
    CellDraws,
    ProtocolKind,
    Workspace,
    csi_rate_array,
    qos_rate_array,
    rsma_case_array,  # noqa: F401 - perfbench/spans.py patches this name
    rsma_rate_arrays,
    sic_case_array,
    sic_power_factor_array,
    sic_rate_arrays,
)

#: The SIC control-law power scale, sampled as a family beside the
#: protocols.
_POWER = "power scale"
#: Draws per chunk: every chunk but a pass's last holds this many.
CHUNK_SIZE = 100_000
#: Chunks whose last standard draw the process keeps, whatever its seed,
#: 1.6 MB each: one default pass of 1e6 draws.
KEPT_CHUNKS = 10
#: Most worker threads ``CRUL_THREADS`` may ask for.  Each worker has one
#: chunk workspace, 3.6 MB, and up to 0.8 MB of index arrays while it
#: reduces a chunk.  The threads end with the pass, and at most one
#: workspace per CPU stays for the next (see :class:`_Reserve`).
MAX_THREADS = 256
#: Most draws one estimate may take: 1e5 chunks.
MAX_SAMPLES = 10**10


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
    """Sampling budget, at least two draws so ``stderr`` exists, and seed."""

    n_samples: int = 10**6
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError(f"n_samples must be in [2, {MAX_SAMPLES}], got {self.n_samples}")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

    @property
    def n_chunks(self) -> int:
        return -(-self.n_samples // CHUNK_SIZE)

    def chunk_counts(self) -> list[int]:
        """Sample count per chunk, in chunk order (last may be short)."""
        full, rest = divmod(self.n_samples, CHUNK_SIZE)
        counts = [CHUNK_SIZE] * full
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
    digits = env.lstrip("0") or "0"
    # Lengths first, so a long string of digits is never parsed.
    if not env.isdecimal() or len(digits) > len(str(MAX_THREADS)) or int(digits) > MAX_THREADS:
        raise ValueError(f"CRUL_THREADS must be a whole number in [0, {MAX_THREADS}], got {env!r}")
    workers = int(digits) or os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def _standard_draw(seed: int, index: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Chunk ``index``'s standard draw (see ``channel.sample_snrs``): both
    links' ``log(1 - u)``, the rows of a ``(2, count)`` array, drawn into
    the first ``count`` columns of ``out`` or into a new array."""
    logs = np.empty((2, count)) if out is None else out[:, :count]
    sample_snrs(chunk_stream(seed, index), count, logs)
    return logs


class _Reserve:
    """What Monte Carlo passes hand on to the next.  A pass holds
    :attr:`lock` from start to end.

    The chunk workspaces: one per worker of the last pass, but never more
    than ``os.cpu_count()``, the workers that can run at once.  The last
    standard draw of each of the first ``KEPT_CHUNKS`` chunks, whatever its
    seed, each in its own array of :attr:`draws`, made on its first draw,
    which :attr:`kept` names by the chunk's ``(seed, index, count)``, set
    only once the draw is complete, and None while none is.  Another key's
    draw is drawn over the last, so the pages are faulted in once.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.workspaces: list[Workspace] = []
        self.draws: list[np.ndarray | None] = [None] * KEPT_CHUNKS
        self.kept: list[tuple[int, int, int] | None] = [None] * KEPT_CHUNKS

    def workspaces_for(self, n_workers: int) -> list[Workspace]:
        """A workspace for each of ``n_workers`` workers, the kept ones first;
        the caller holds the lock.  Missing ones are made on the calling
        thread: made in the arena of whichever worker thread ran first, one
        arena's memory could sit idle while another's fills.  A short pass
        leaves the pages it never writes unfaulted."""
        while len(self.workspaces) < n_workers:
            self.workspaces.append(Workspace(CHUNK_SIZE))
        return self.workspaces[:n_workers]

    def standard_draw(
        self, seed: int, index: int, count: int, scratch: np.ndarray | None
    ) -> np.ndarray:
        """Chunk ``index``'s standard draw: the kept one, or drawn and kept
        once complete, or past the first ``KEPT_CHUNKS`` chunks drawn into
        ``scratch``, a worker's own.  The caller holds the lock."""
        if index >= KEPT_CHUNKS:
            return _standard_draw(seed, index, count, scratch)
        key = (seed, index, count)
        if self.kept[index] != key:
            self.kept[index] = None  # until the new draw is complete
            if self.draws[index] is None:
                self.draws[index] = np.empty((2, CHUNK_SIZE))
            _standard_draw(seed, index, count, self.draws[index])
            self.kept[index] = key
        return self.draws[index][:, :count]


_reserve = _Reserve()


def forget_draws() -> None:
    """Drop every kept standard draw, so each chunk of the next pass is drawn
    anew: a check that the thread count never moves a result compares
    draws, not one draw rescaled."""
    with _reserve.lock:
        _reserve.kept = [None] * KEPT_CHUNKS


def _start_clean() -> None:
    """A forked child has no thread of its parent but the one that forked,
    and the lock may have been held mid-pass by another: start from
    nothing."""
    global _reserve
    _reserve = _Reserve()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_clean)


def _classify(scenario: ScenarioConfig, logs: np.ndarray, workspace: Workspace) -> CellDraws:
    """A standard draw scaled to ``scenario`` and classified once, in ``workspace``."""
    count = logs.shape[1]
    out = workspace.buffer("gamma_pu", count), workspace.buffer("gamma_su", count)
    gamma_pu, gamma_su = scale_snrs(scenario, logs, out)
    cells = sic_case_array(gamma_pu, gamma_su, scenario.theta, workspace)
    return CellDraws(gamma_pu, gamma_su, scenario.theta, cells, workspace)


def draw_chunk(
    scenario: ScenarioConfig, seed: int, index: int, count: int, workspace: Workspace
) -> CellDraws:
    """Chunk ``index`` of the seeded substreams, drawn whole, classified once
    and wrapped.

    The SNRs, their cells and what the rules keep live in ``workspace``,
    which must hold ``count`` draws, until it classifies its next draws.
    """
    return _classify(scenario, _standard_draw(seed, index, count), workspace)


def _family_sums(family, draws: CellDraws) -> tuple[float, float]:
    """The sum and the squared sum of one family's rates over one chunk's draws."""
    rates, scratch = draws.buffer("rates"), draws.buffer("scratch")
    if family is _POWER:
        rates = sic_power_factor_array(draws, scratch)
    elif family is ProtocolKind.CR_RSMA:
        rates = rsma_rate_arrays(draws, rates)
    elif family is ProtocolKind.CR_SIC:
        rates = sic_rate_arrays(draws, rates)
    elif family is ProtocolKind.BENCH_CSI:
        rates = csi_rate_array(draws)
    elif family is ProtocolKind.BENCH_QOS:
        rates = qos_rate_array(draws, scratch)
    total = float(np.sum(rates))  # first: some families' rates are in scratch
    squares = np.square(rates, out=scratch)
    return total, float(np.sum(squares))


#: The order a chunk reduces its families in, whatever order they are asked
#: in.  The rates buffer holds the interference-limited log of ``bench-csi``
#: first, then the full-power rates built over it, which ``bench-qos``
#: multiplies by its admission into scratch; pure SIC writes its reduced
#: cell over them, and rate splitting its band (which holds that cell)
#: last.  The power scale goes between them, into scratch, so the band's
#: power scale, made once, serves it and then rate splitting; by then no
#: family reads the SNRs off the band.
_KERNEL_ORDER = (
    ProtocolKind.BENCH_CSI, ProtocolKind.BENCH_QOS, ProtocolKind.CR_SIC, _POWER, ProtocolKind.CR_RSMA
)


def _chunk_sums(scenario: ScenarioConfig, families, logs: np.ndarray, workspace: Workspace):
    """One chunk's sums, from its standard draw ``logs``, by family in the
    order of ``families``.

    The chunk is classified once in ``workspace``, which must hold it, and
    reduced for each family; the shared per-draw logs are computed once, by
    the first family that reads them, and a pass builds one full-power
    array (see :data:`_KERNEL_ORDER`).
    """
    draws = _classify(scenario, logs, workspace)
    draws.standard = logs, (scenario.lambda_pu, scenario.lambda_su)
    sums = {}
    for family in _KERNEL_ORDER:
        if family in families:
            sums[family] = _family_sums(family, draws)
        elif family is ProtocolKind.CR_SIC and ProtocolKind.CR_RSMA in families:
            draws.full_power(draws.buffer("rates"))  # what rate splitting writes over
    return [sums[family] for family in families]


def _sample(scenario: ScenarioConfig, mc: McConfig, families) -> dict:
    """One pass over the draws: the estimate of every family, by family.

    On ``n`` workers, worker ``w`` runs the chunks ``w, w + n, ...`` in its
    own workspace, ``_reserve.workspaces[w]``, rescaling each kept standard
    draw and drawing the rest.  Worker 0 runs in the calling thread and
    the others on threads that end with the pass, so a one-worker pass
    starts none.  The pass holds the reserve's lock throughout, so passes
    take turns.  After a chunk fails, the pass waits for every worker to
    stop before it raises the first failing worker's error.  Either way, at
    most one workspace per CPU is kept for the next pass.
    """
    for family in families:
        if family not in _KERNEL_ORDER:
            raise ValueError(f"no per-realization rate rule for {family}")
    counts = mc.chunk_counts()
    n_workers = resolve_workers(len(counts))
    chunks = [None] * len(counts)
    reserve = _reserve

    def work(worker: int, workspace: Workspace) -> None:
        # Where the chunks past the kept ones are drawn, if the pass has any.
        scratch = np.empty((2, CHUNK_SIZE)) if len(counts) > KEPT_CHUNKS else None
        for index in range(worker, len(counts), n_workers):
            logs = reserve.standard_draw(mc.seed, index, counts[index], scratch)
            chunks[index] = _chunk_sums(scenario, families, logs, workspace)

    with reserve.lock:
        first, *rest = enumerate(reserve.workspaces_for(n_workers))
        try:
            with ThreadPoolExecutor(n_workers, thread_name_prefix="crul-mc") as pool:
                futures = [pool.submit(work, *job) for job in rest]
                work(*first)
            for future in futures:
                future.result()
        finally:
            del reserve.workspaces[os.cpu_count() or 1:]
    by_family = zip(families, zip(*chunks))
    return {family: _finish(parts, mc.n_samples) for family, parts in by_family}


def _finish(parts, n: int) -> EstimateResult:
    """The estimate from one family's sum and squared sum of each chunk."""
    sums, squares = zip(*parts)
    # One ``fsum`` of the chunk sums, rounded once, so neither the chunk
    # order nor the thread count can move the mean.
    value = math.fsum(sums) / n
    variance = max(0.0, (math.fsum(squares) - n * value * value) / (n - 1))
    return EstimateResult(value=value, stderr=math.sqrt(variance / n), n_samples=n)


def sample_point(
    scenario: ScenarioConfig,
    mc: McConfig,
    protocols: Iterable[ProtocolKind],
) -> tuple[dict[ProtocolKind, EstimateResult], EstimateResult]:
    """Monte Carlo estimates of every requested protocol at one grid point.

    The plain protocols and the mean power scale come from one pass over
    the draws.  The normalized protocol, which compares pure SIC against
    rate splitting at equal average transmit power, takes its scale from
    that pass and adds one pass of pure SIC with the secondary's mean SNR
    boosted by the scale's inverse.  Each plain estimate and the scale are
    bit-identical to what :func:`estimate` and :func:`mean_power_factor`
    return under the same config, and the normalized one to
    :func:`estimate` of pure SIC at the boosted scenario.

    Returns ``(estimates by protocol, mean power scale)``.
    """
    requested = dict.fromkeys(protocols)
    plain = tuple(p for p in requested if p is not ProtocolKind.CR_SIC_NORM)
    estimates = _sample(scenario, mc, (*plain, _POWER))
    power = estimates.pop(_POWER)
    if ProtocolKind.CR_SIC_NORM in requested:
        if not power.value > 0.0:
            raise ValueError(f"power scale must be > 0, got {power.value}")
        boosted = scenario.with_secondary_snr_scaled(1.0 / power.value)
        sic = _sample(boosted, mc, (ProtocolKind.CR_SIC,))
        estimates[ProtocolKind.CR_SIC_NORM] = sic[ProtocolKind.CR_SIC]
    return estimates, power


def estimate(protocol: ProtocolKind, scenario: ScenarioConfig, mc: McConfig) -> EstimateResult:
    """Monte Carlo ergodic SU rate under one plain protocol.

    Rates follow the restricted-expectation convention: a realization
    outside a protocol's admission events contributes zero, so the mean
    is over all draws, not over admitted ones.  The normalized protocol
    needs the power scale first; :func:`sample_point` estimates both.
    """
    return _sample(scenario, mc, (protocol,))[protocol]


def mean_power_factor(scenario: ScenarioConfig, mc: McConfig) -> EstimateResult:
    """Monte Carlo mean of the SIC control-law power scale.

    The scale is the fraction of its budget the secondary may spend when
    the primary sits inside the protected band, and 1 elsewhere (full
    power is admissible), so the mean lives in (0, 1].
    """
    return _sample(scenario, mc, (_POWER,))[_POWER]
