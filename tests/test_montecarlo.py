"""Tests for the chunked, parallel-deterministic Monte Carlo estimator."""

import contextlib
import math
import multiprocessing
import os
import resource
import sys
import threading
import time
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crul import montecarlo, protocols
from crul.channel import ScenarioConfig, sample_snrs, scale_snrs
from crul.montecarlo import (
    CHUNK_SIZE,
    KEPT_CHUNKS,
    MAX_SAMPLES,
    MAX_THREADS,
    EstimateResult,
    McConfig,
    chunk_stream,
    draw_chunk,
    estimate,
    mean_power_factor,
    resolve_workers,
    sample_point,
)
from crul.oracle import ergodic_rate_oracle
from crul.protocols import (
    CellDraws,
    ProtocolKind,
    Workspace,
    csi_rate_array,
    qos_rate_array,
    rsma_case_array,
    rsma_rate_arrays,
    sic_case_array,
    sic_power_factor_array,
    sic_rate_arrays,
)
from reference_rules import benchmark_su_rate, rsma_rates, sic_rates

SCENARIO_20DB = ScenarioConfig.from_snr_db(20.0, 20.0)
UNIT_SCENARIO = ScenarioConfig.from_snr_db(0.0, 0.0, secondary_distance=1.0)


@contextlib.contextmanager
def chunk_size(size: int):
    """Chunks of ``size`` draws, in a process with no kept workspaces and
    no kept draws; both are restored on exit."""
    with mock.patch.object(montecarlo, "CHUNK_SIZE", size):
        with mock.patch.object(montecarlo, "_reserve", montecarlo._Reserve()):
            yield


def _estimate(protocol, scenario, mc):
    """``estimate``, or ``sample_point`` for the normalized protocol, which
    needs the power scale of the same draws first."""
    if protocol is ProtocolKind.CR_SIC_NORM:
        return sample_point(scenario, mc, [protocol])[0][protocol]
    return estimate(protocol, scenario, mc)


# ------------------------------------------------------------ config types


class TestMcConfig:
    def test_defaults(self):
        mc = McConfig(seed=1)
        assert [field.name for field in fields(mc)] == ["n_samples", "seed"]
        assert mc.n_samples == 10**6
        assert CHUNK_SIZE == 100_000
        assert mc.n_chunks == 10

    def test_chunk_counts_cover_exactly(self):
        mc = McConfig(n_samples=250_001, seed=0)
        assert mc.chunk_counts() == [100_000, 100_000, 50_001]
        assert sum(mc.chunk_counts()) == mc.n_samples
        assert mc.n_chunks == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"n_samples": -5},
            # 1e10 draws are 1e5 chunks; more would build a list per chunk.
            {"n_samples": MAX_SAMPLES + 1},
            # One draw has no sample variance, so no stderr.
            {"n_samples": 1},
            {"seed": 1 << 64},
            {"seed": -(1 << 63) - 1},
            # Negative seeds used to be masked onto the top of the range,
            # so -1 and 2**64 - 1 drew the same stream.
            {"seed": -1},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        base = dict(n_samples=10, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            McConfig(**base)


class TestEstimateResult:
    def test_rejects_negative_stderr(self):
        with pytest.raises(ValueError):
            EstimateResult(1.0, -0.1, 10)

    def test_rejects_negative_sample_count(self):
        with pytest.raises(ValueError):
            EstimateResult(1.0, 0.0, -1)

    def test_deterministic_methods_may_record_zero_samples(self):
        r = EstimateResult(1.0, 0.0, 0)
        assert r.n_samples == 0


def threads(count: int):
    """Run the enclosed estimates on ``count`` worker threads."""
    return mock.patch.dict(os.environ, {"CRUL_THREADS": str(count)})


class TestResolveWorkers:
    def test_env_applies(self, monkeypatch):
        monkeypatch.setenv("CRUL_THREADS", "3")
        assert resolve_workers(100) == 3

    @pytest.mark.parametrize("value", ["0", ""])
    def test_zero_or_unset_means_auto(self, monkeypatch, value):
        monkeypatch.setenv("CRUL_THREADS", value)
        assert resolve_workers(100) == min(os.cpu_count() or 1, 100)

    def test_clamped_to_task_count(self, monkeypatch):
        monkeypatch.setenv("CRUL_THREADS", "64")
        assert resolve_workers(3) == 3

    def test_rejects_negative(self, monkeypatch):
        monkeypatch.setenv("CRUL_THREADS", "-1")
        with pytest.raises(ValueError, match="CRUL_THREADS"):
            resolve_workers(10)

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv("CRUL_THREADS", "many")
        with pytest.raises(ValueError, match="CRUL_THREADS"):
            resolve_workers(10)

    @pytest.mark.parametrize("value", [str(MAX_THREADS), f"000{MAX_THREADS}"])
    def test_cap_itself_applies(self, monkeypatch, value):
        monkeypatch.setenv("CRUL_THREADS", value)
        assert resolve_workers(10**5) == MAX_THREADS

    @pytest.mark.parametrize("value", [str(MAX_THREADS + 1), "5000", "9" * 5000])
    def test_rejects_more_than_the_cap(self, monkeypatch, value):
        # Each worker holds a chunk workspace, and a pass starts a thread
        # per worker, so 5000 would start 5000 threads.
        monkeypatch.setenv("CRUL_THREADS", value)
        with pytest.raises(ValueError, match="CRUL_THREADS"):
            resolve_workers(10**4)


# ------------------------------------------------------------ determinism


class TestDeterminism:
    @pytest.mark.parametrize(
        "protocol", [ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC_NORM]
    )
    def test_bit_identical_across_worker_counts(self, protocol):
        mc = McConfig(n_samples=200_000, seed=42)
        values = {}
        for count in (1, 4, 16):
            with threads(count), chunk_size(25_000):
                values[count] = _estimate(protocol, SCENARIO_20DB, mc)
        assert values[1] == values[4] == values[16]

    def test_sample_point_bit_identical_across_worker_counts(self):
        # Many short chunks and a short switch interval, so a pass's
        # threads switch often; a workspace in two chunks at once would mix
        # their draws.
        mc = McConfig(n_samples=20_000, seed=42)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for count in (1, 2, 16):
                with threads(count), chunk_size(500):
                    results[count] = sample_point(
                        SCENARIO_20DB, mc, [ProtocolKind.CR_SIC_NORM, ProtocolKind.CR_RSMA]
                    )
        finally:
            sys.setswitchinterval(interval)
        assert results[1] == results[2] == results[16]

    def test_env_thread_cap_does_not_change_values(self, monkeypatch):
        mc = McConfig(n_samples=100_000, seed=9)
        with chunk_size(10_000):
            monkeypatch.setenv("CRUL_THREADS", "16")
            with_env = estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, mc)
            monkeypatch.setenv("CRUL_THREADS", "1")
            serial = estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, mc)
        assert with_env == serial

    def test_seed_separates_streams(self):
        mc_a = McConfig(n_samples=10_000, seed=1)
        mc_b = McConfig(n_samples=10_000, seed=2)
        a = estimate(ProtocolKind.CR_RSMA, SCENARIO_20DB, mc_a).value
        b = estimate(ProtocolKind.CR_RSMA, SCENARIO_20DB, mc_b).value
        assert a != b

    def test_chunk_streams_are_reproducible(self):
        first = chunk_stream(77, 5).random(4)
        second = chunk_stream(77, 5).random(4)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, chunk_stream(77, 6).random(4))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        protocol=st.sampled_from(list(ProtocolKind)),
    )
    def test_parallel_replay_property(self, seed, protocol):
        mc = McConfig(n_samples=256, seed=seed)
        with threads(1), chunk_size(64):
            serial = _estimate(protocol, SCENARIO_20DB, mc)
        with threads(4), chunk_size(64):
            parallel = _estimate(protocol, SCENARIO_20DB, mc)
        assert serial == parallel
        assert math.isfinite(serial.value)
        assert serial.stderr >= 0.0


# ------------------------------------------------------------ estimator


class TestEstimate:
    def test_csi_benchmark_matches_oracle(self):
        # Spec'd cross-check: symmetric unit-mean fading, 10^6 draws.
        mc = McConfig(n_samples=10**6, seed=2024)
        result = estimate(ProtocolKind.BENCH_CSI, UNIT_SCENARIO, mc)
        reference = ergodic_rate_oracle(ProtocolKind.BENCH_CSI, UNIT_SCENARIO)
        assert abs(result.value - reference) <= 3.0 * result.stderr

    def test_rate_splitting_matches_closed_form(self):
        from crul.crosscheck import evaluate

        mc = McConfig(n_samples=10**6, seed=31)
        result = estimate(ProtocolKind.CR_RSMA, SCENARIO_20DB, mc)
        reference = evaluate(ProtocolKind.CR_RSMA, SCENARIO_20DB, "analytic").value
        assert abs(result.value - reference) <= 3.0 * result.stderr

    def test_two_samples_give_the_mean_of_the_per_realization_rates(self):
        """Two draws: the mean of their two rates, and a stderr of half their
        gap, the sample standard deviation over the square root of two."""
        mc = McConfig(n_samples=2, seed=7)
        logs = np.empty(2), np.empty(2)
        sample_snrs(chunk_stream(7, 0), 2, logs)
        gamma_pu, gamma_su = scale_snrs(SCENARIO_20DB, logs, (np.empty(2), np.empty(2)))
        theta = SCENARIO_20DB.theta
        rules = {
            ProtocolKind.CR_RSMA: lambda pu, su: rsma_rates(pu, su, theta).su_rate,
            ProtocolKind.CR_SIC: lambda pu, su: sic_rates(pu, su, theta).su_rate,
            ProtocolKind.BENCH_CSI: lambda pu, su: benchmark_su_rate(
                ProtocolKind.BENCH_CSI, pu, su, theta
            ),
            ProtocolKind.BENCH_QOS: lambda pu, su: benchmark_su_rate(
                ProtocolKind.BENCH_QOS, pu, su, theta
            ),
        }
        for protocol, rule in rules.items():
            first, second = (rule(pu, su) for pu, su in zip(gamma_pu.tolist(), gamma_su.tolist()))
            result = estimate(protocol, SCENARIO_20DB, mc)
            assert result.value == (first + second) / 2, protocol
            assert result.stderr == pytest.approx(abs(first - second) / 2, rel=1e-9, abs=1e-12)
            assert result.n_samples == 2

    def test_stderr_scaling(self):
        # Quadrupling the budget should halve the stderr, give or take
        # the stochastic wobble of the variance estimate itself.
        small = estimate(
            ProtocolKind.BENCH_CSI, SCENARIO_20DB, McConfig(n_samples=250_000, seed=5)
        )
        large = estimate(
            ProtocolKind.BENCH_CSI, SCENARIO_20DB, McConfig(n_samples=10**6, seed=5)
        )
        ratio = small.stderr / large.stderr
        assert 1.6 <= ratio <= 2.4

    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0, 40.0])
    def test_rate_splitting_dominates_sic_under_shared_draws(self, gamma0_db):
        # Same seed means the exact same realizations, so the per-draw
        # dominance argument survives averaging essentially unrounded.
        scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        mc = McConfig(n_samples=100_000, seed=17)
        rsma = estimate(ProtocolKind.CR_RSMA, scenario, mc).value
        sic = estimate(ProtocolKind.CR_SIC, scenario, mc).value
        assert rsma >= sic - 1e-12

    def test_normalized_protocol_is_sampled_with_its_scale(
        self, fresh_reserve, made_workspaces, streams
    ):
        """Its one-protocol pass would have no power scale to boost by, so
        the pass refuses it before it makes a workspace or opens a stream."""
        mc = McConfig(n_samples=10, seed=0)
        with pytest.raises(ValueError, match="no per-realization rate rule"):
            estimate(ProtocolKind.CR_SIC_NORM, SCENARIO_20DB, mc)
        assert made_workspaces == []
        assert streams == []

    def test_normalization_boosts_sic(self):
        # The estimated power scale is < 1, so the normalized run gives
        # the secondary a strictly larger mean SNR and a larger rate.
        mc = McConfig(n_samples=10**6, seed=23)
        protocols = (ProtocolKind.CR_SIC, ProtocolKind.CR_SIC_NORM)
        estimates, _ = sample_point(SCENARIO_20DB, mc, protocols)
        assert estimates[ProtocolKind.CR_SIC_NORM].value > estimates[ProtocolKind.CR_SIC].value

    def test_rejects_nonpositive_power_scale(self, monkeypatch):
        monkeypatch.setattr(
            montecarlo, "sic_power_factor_array", lambda draws, out: np.zeros_like(out)
        )
        mc = McConfig(n_samples=10, seed=0)
        with pytest.raises(ValueError, match="power scale must be > 0"):
            sample_point(SCENARIO_20DB, mc, [ProtocolKind.CR_SIC_NORM])


# ------------------------------------------------------------ the chunk fold


def _plain(protocol, scenario, mc):
    """The plain protocol and the scenario whose draws give ``protocol``'s
    estimate: the normalized protocol is pure SIC at its boosted scenario."""
    if protocol is ProtocolKind.CR_SIC_NORM:
        scale = mean_power_factor(scenario, mc).value
        return ProtocolKind.CR_SIC, scenario.with_secondary_snr_scaled(1.0 / scale)
    return protocol, scenario


def _rates(protocol, draws):
    """A plain protocol's rate on every draw of one chunk."""
    count = draws.cells.size
    if protocol is ProtocolKind.CR_RSMA:
        return rsma_rate_arrays(draws, draws.full_power(np.empty(count)))
    if protocol is ProtocolKind.CR_SIC:
        return sic_rate_arrays(draws, np.empty(count))
    if protocol is ProtocolKind.BENCH_CSI:
        return csi_rate_array(draws)
    return qos_rate_array(draws, np.empty(count))


class TestChunkFold:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_estimate_is_the_fsum_of_the_chunk_sums(self, protocol):
        """The estimate is the ``fsum`` of every chunk's ``np.sum`` of the
        kernel's rates, over the sample count, bit for bit."""
        # Several chunks, so the fold is part of what must match.
        mc = McConfig(n_samples=100_000, seed=13)
        with chunk_size(30_000):
            plain, scenario = _plain(protocol, SCENARIO_20DB, mc)
            sums = [
                np.sum(_rates(plain, draw_chunk(scenario, mc.seed, index, count, Workspace(count))))
                for index, count in enumerate(mc.chunk_counts())
            ]
            total = _estimate(protocol, SCENARIO_20DB, mc).value
        assert total == math.fsum(sums) / mc.n_samples


def _case_means(protocol, scenario, mc):
    """Restricted mean of each admission case, from the chunk draws:
    per-chunk ``bincount`` sums, combined with ``fsum`` in chunk order,
    divided by the sample count."""
    protocol, scenario = _plain(protocol, scenario, mc)
    chunk_sums = []
    for index, count in enumerate(mc.chunk_counts()):
        draws = draw_chunk(scenario, mc.seed, index, count, Workspace(count))
        rates = _rates(protocol, draws)
        if protocol is ProtocolKind.CR_RSMA:
            cases = rsma_case_array(draws.cells)
        elif protocol is ProtocolKind.CR_SIC:
            cases = draws.cells
        elif protocol is ProtocolKind.BENCH_CSI:
            cases = np.zeros(count, dtype=np.int8)
        else:
            cases = (draws.gamma_pu > draws.theta * (1.0 + draws.gamma_su)).astype(np.int8)
        chunk_sums.append(np.bincount(cases, weights=rates, minlength=4))
    return [math.fsum(sums[k] for sums in chunk_sums) / mc.n_samples for k in range(4)]


class TestEstimateByCase:
    def test_case_means_nonnegative(self):
        mc = McConfig(n_samples=100_000, seed=3)
        for protocol in ProtocolKind:
            for mean in _case_means(protocol, SCENARIO_20DB, mc):
                assert mean >= 0.0


# ------------------------------------------------------------ one pass per point


class TestSamplePoint:
    @settings(max_examples=12, deadline=None)
    @given(
        subset=st.sets(st.sampled_from(list(ProtocolKind))),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_equals_single_quantity_entries(self, subset, seed):
        mc = McConfig(n_samples=300, seed=seed)
        protocols = [p for p in ProtocolKind if p in subset]
        with threads(1), chunk_size(64):
            power = mean_power_factor(SCENARIO_20DB, mc)
            boosted = SCENARIO_20DB.with_secondary_snr_scaled(1.0 / power.value)
            singles = {
                p: estimate(ProtocolKind.CR_SIC, boosted, mc)
                if p is ProtocolKind.CR_SIC_NORM
                else estimate(p, SCENARIO_20DB, mc)
                for p in protocols
            }
        for count in (1, 4):
            with threads(count), chunk_size(64):
                estimates, scale = sample_point(SCENARIO_20DB, mc, protocols)
            assert estimates == singles
            assert scale == power

    @pytest.mark.parametrize("count", ["1", "2"])
    def test_points_under_one_seed_draw_each_chunk_once_in_total(self, monkeypatch, streams, count):
        """31 grid points of every protocol, two passes each, open one
        stream per chunk in all: the first pass draws, and every later
        pass, boosted or at another point, rescales."""
        monkeypatch.setenv("CRUL_THREADS", count)
        mc = McConfig(n_samples=1_000, seed=5)
        with chunk_size(250):
            for primary_db in range(0, 61, 2):
                scenario = ScenarioConfig.from_snr_db(float(primary_db), 20.0)
                sample_point(scenario, mc, EVERY_PROTOCOL)
            assert sorted(streams) == [(mc.seed, index) for index in range(mc.n_chunks)]

    def test_chunks_past_the_kept_ones_are_drawn_at_every_pass(self, monkeypatch, streams):
        """Two more chunks than are kept: the first point draws all twelve in
        its plain pass and the two past the kept ones again in its boosted
        pass, and the next point draws only those two, in each pass."""
        mc = McConfig(n_samples=1_200, seed=5)
        past = list(range(KEPT_CHUNKS, 12))
        with chunk_size(100):
            serial = _serial_point(SCENARIO_20DB, mc)
            assert [index for _, index in streams] == [*range(12), *past]
            streams.clear()
            monkeypatch.setenv("CRUL_THREADS", "2")
            assert sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL) == serial
        assert sorted(index for _, index in streams) == sorted(past * 2)
    @pytest.mark.parametrize(
        "protocols,passes",
        [(tuple(ProtocolKind), 2), ((ProtocolKind.CR_RSMA, ProtocolKind.BENCH_QOS), 1)],
    )
    def test_classifies_each_chunk_once_per_pass(self, monkeypatch, protocols, passes):
        sizes = []

        def counted(gamma_pu, gamma_su, theta, workspace):
            sizes.append(gamma_pu.size)
            return sic_case_array(gamma_pu, gamma_su, theta, workspace)

        monkeypatch.setattr(montecarlo, "sic_case_array", counted)
        monkeypatch.setenv("CRUL_THREADS", "1")
        mc = McConfig(n_samples=1_000, seed=5)
        with chunk_size(250):
            sample_point(SCENARIO_20DB, mc, protocols)
            assert sizes == mc.chunk_counts() * passes


# ------------------------------------------------------------ workspaces

#: The families of a plain pass over every protocol, and of a boosted pass.
PLAIN = (
    ProtocolKind.CR_RSMA,
    ProtocolKind.CR_SIC,
    ProtocolKind.BENCH_CSI,
    ProtocolKind.BENCH_QOS,
    montecarlo._POWER,
)
BOOSTED = (ProtocolKind.CR_SIC,)


def _bits(chunk):
    """Every family's sum and squared sum of one chunk, as the hex of their doubles."""
    return [(float(total).hex(), float(square).hex()) for total, square in chunk]


class TestWorkspace:
    def test_a_reused_workspace_leaks_nothing_into_the_next_chunk(self):
        """One worker's chunk workspace runs chunks whose cells differ (theta
        = 0 included), plain and boosted passes and a short last chunk, each
        right after another; every sum must equal the sum the same chunk
        gives whole in a new workspace, bit for bit."""
        scenarios = [
            ScenarioConfig.from_snr_db(pu, su, rate_threshold=rate_th)
            for pu, su in ((20.0, 20.0), (0.0, 60.0), (60.0, 0.0), (51.217, 31.017))
            for rate_th in (0.0, 2.5, 6.0)
        ]
        mc = McConfig(n_samples=250_001, seed=21)
        first, second, short = enumerate(mc.chunk_counts())
        workspace = Workspace(CHUNK_SIZE)
        for index, count in (first, short, second):
            logs = montecarlo._standard_draw(mc.seed, index, count)
            for scenario in scenarios:
                boosted = scenario.with_secondary_snr_scaled(2.0)
                for target, families in ((scenario, PLAIN), (boosted, BOOSTED)):
                    reused = montecarlo._chunk_sums(target, families, logs, workspace)
                    fresh = montecarlo._chunk_sums(target, families, logs, Workspace(count))
                    assert _bits(reused) == _bits(fresh), (target, families, count)

    @pytest.mark.parametrize("count", [2, 3_000, 50_000, 50_001, 99_999, 100_000])
    def test_a_used_workspace_sums_as_np_sum_over_new_arrays(self, count):
        """A chunk reduced in a used chunk workspace gives every family's
        ``np.sum`` of its rates and of their squares over new arrays holding
        the whole chunk, bit for bit: should numpy's pairwise sum cut the
        kernel's buffers elsewhere than a new array, this names the cause
        before any golden file moves."""
        workspace = Workspace(CHUNK_SIZE)
        montecarlo._chunk_sums(
            SCENARIO_20DB, PLAIN, montecarlo._standard_draw(7, 1, CHUNK_SIZE), workspace
        )
        logs = montecarlo._standard_draw(7, 0, count)
        reused = montecarlo._chunk_sums(SCENARIO_20DB, PLAIN, logs, workspace)
        expected = []
        for family in PLAIN:
            draws = draw_chunk(SCENARIO_20DB, 7, 0, count, Workspace(count))
            if family is montecarlo._POWER:
                rates = sic_power_factor_array(draws, np.empty(count))
            else:
                rates = _rates(family, draws)
            expected.append((np.sum(rates), np.sum(np.square(rates))))
        assert _bits(reused) == _bits(expected)

    def test_every_buffer_is_its_own_array_under_the_huge_page_threshold(self):
        """numpy asks for transparent huge pages for any array of 4 MiB or
        more.  One block of every float row of a chunk workspace, 6.4 MB,
        was backed by 2 MB pages, and a figure's peak RSS rose 12% for it;
        each buffer is its own array below that threshold."""
        workspace = Workspace(CHUNK_SIZE)
        bases = {}
        for names in protocols._BUFFERS.values():
            for name in names:
                buffer = workspace.buffer(name, CHUNK_SIZE)
                base = buffer if buffer.base is None else buffer.base
                assert base.nbytes < 1 << 22, name
                bases[id(base)] = name
        assert len(bases) == sum(map(len, protocols._BUFFERS.values()))

    def test_a_used_workspace_makes_no_chunk_sized_temporaries(self):
        """After a warm-up chunk, a plain and a boosted chunk of 1e5 draws
        in the same chunk workspace allocate under 1 MB at their peak.  Only
        index selections remain; with the chunk-sized temporaries of every
        step the peak was 7.4 MB."""
        workspace = Workspace(CHUNK_SIZE)
        boosted = SCENARIO_20DB.with_secondary_snr_scaled(2.0)
        first, second = (montecarlo._standard_draw(1, index, 100_000) for index in (0, 1))
        montecarlo._chunk_sums(SCENARIO_20DB, PLAIN, first, workspace)
        tracemalloc.start()
        try:
            montecarlo._chunk_sums(SCENARIO_20DB, PLAIN, second, workspace)
            montecarlo._chunk_sums(boosted, BOOSTED, second, workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_release_checks_draw_the_cells_of_a_new_workspace(self):
        from crul import validation

        mc = McConfig(n_samples=200_001, seed=9)
        drawn = validation._draw_chunks(SCENARIO_20DB, mc.seed, mc.n_samples)
        cells = [draws.cells.copy() for draws in drawn]
        assert len(cells) == mc.n_chunks
        for index, count in enumerate(mc.chunk_counts()):
            fresh = draw_chunk(SCENARIO_20DB, mc.seed, index, count, Workspace(count))
            assert np.array_equal(cells[index], fresh.cells)


# ------------------------------------------------ per-pass threads, kept workspaces

#: Every protocol of a grid point, the normalized one included, so a call
#: makes both passes.
EVERY_PROTOCOL = tuple(ProtocolKind)


@pytest.fixture
def fresh_reserve(monkeypatch):
    """A process with no kept workspaces, as at start-up."""
    monkeypatch.setattr(montecarlo, "_reserve", montecarlo._Reserve())


@pytest.fixture
def made_workspaces(monkeypatch):
    """The capacity of every workspace made while the test runs, in order."""
    made = []
    original = Workspace.__init__

    def counted(self, capacity):
        made.append(capacity)
        original(self, capacity)

    monkeypatch.setattr(Workspace, "__init__", counted)
    return made


@pytest.fixture
def streams(monkeypatch):
    """The ``(seed, index)`` of every chunk stream opened while the test runs."""
    opened = []

    def counted(seed, index):
        opened.append((seed, index))
        return chunk_stream(seed, index)

    monkeypatch.setattr(montecarlo, "chunk_stream", counted)
    return opened


@pytest.fixture
def chunk_index(monkeypatch):
    """``chunk_index()``: the index of the chunk whose draw the calling
    thread took last, so a stand-in for ``_chunk_sums`` knows its chunk."""
    last = threading.local()
    original = montecarlo._Reserve.standard_draw

    def recorded(self, seed, index, count, scratch):
        last.index = index
        return original(self, seed, index, count, scratch)

    monkeypatch.setattr(montecarlo._Reserve, "standard_draw", recorded)
    return lambda: last.index


def _mc_threads():
    """The Monte Carlo worker threads alive now."""
    return [thread for thread in threading.enumerate() if thread.name.startswith("crul-mc")]


def _serial_point(scenario, mc):
    with threads(1):
        return sample_point(scenario, mc, EVERY_PROTOCOL)


def _sample_at_once(monkeypatch, chunk_index, jobs):
    """Each of two Python threads calls ``sample_point`` on its job three
    times, all at once, on twice as many worker threads as the host has
    CPUs with a short switch interval, after one warm-up call on the first
    job.  The calls' passes take turns in the kept workspaces; each chunk
    dwells in its workspace a little, so had two passes run at once, a
    workspace would be seen in use twice.  Returns the chunks seen in a
    workspace already in use, each thread's results and the worker count."""
    in_use, clashes, guard = set(), [], threading.Lock()
    original = montecarlo._chunk_sums

    def dwelling(scenario, families, logs, workspace):
        with guard:
            if workspace in in_use:
                clashes.append(chunk_index())
            in_use.add(workspace)
        try:
            time.sleep(1e-4)
            return original(scenario, families, logs, workspace)
        finally:
            with guard:
                in_use.discard(workspace)

    monkeypatch.setattr(montecarlo, "_chunk_sums", dwelling)
    workers = 2 * (os.cpu_count() or 1)
    monkeypatch.setenv("CRUL_THREADS", str(workers))
    sample_point(*jobs[0], EVERY_PROTOCOL)  # so both calls find kept workspaces
    results = [[] for _ in jobs]
    start = threading.Barrier(len(jobs), timeout=60.0)

    def run(i):
        start.wait()
        for _ in range(3):
            results[i].append(sample_point(*jobs[i], EVERY_PROTOCOL))

    callers = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    return clashes, results, workers


def _child_estimate(conn):
    """The child's kept workspaces and draws as it starts, then its estimate."""
    started = len(montecarlo._reserve.workspaces), list(montecarlo._reserve.kept)
    rate = estimate(ProtocolKind.CR_RSMA, SCENARIO_20DB, McConfig(n_samples=200_000))
    conn.send((*started, rate))
    conn.close()


class TestKeptWorkspaces:
    def test_warm_calls_make_no_workspace_and_start_no_thread(
        self, monkeypatch, fresh_reserve, made_workspaces, chunk_index
    ):
        """Warm calls make no workspace, worker 0 runs in the calling thread,
        and every worker thread a call starts has ended by the time it
        returns."""
        workers, original = [], montecarlo._chunk_sums

        def recorded(*args):
            workers.append((chunk_index(), threading.current_thread().name))
            return original(*args)

        monkeypatch.setattr(montecarlo, "_chunk_sums", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("CRUL_THREADS", "2")
        mc = McConfig(n_samples=400_000, seed=4)
        sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL)
        assert made_workspaces == [CHUNK_SIZE] * 2
        for call in (
            lambda: sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL),
            lambda: estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, mc),
            lambda: mean_power_factor(SCENARIO_20DB, replace(mc, seed=5)),
        ):
            running = threading.active_count()
            workers.clear()
            call()
            caller = threading.current_thread().name
            on_caller = {index for index, name in workers if name == caller}
            on_pool = {index for index, name in workers if name.startswith("crul-mc")}
            assert (on_caller, on_pool) == ({0, 2}, {1, 3})
            assert _mc_threads() == []
            assert threading.active_count() == running
        assert made_workspaces == [CHUNK_SIZE] * 2

    def test_warm_calls_take_few_page_faults(self, monkeypatch, fresh_reserve):
        """Three warm grid points of 1e6 draws on two threads fault in under
        1,000 pages; with a new pool and new workspaces per call they took
        about 3,000."""
        monkeypatch.setenv("CRUL_THREADS", "2")
        mc = McConfig()
        sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in (1, 2, 3):
            sample_point(SCENARIO_20DB, replace(mc, seed=seed), EVERY_PROTOCOL)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1_000

    def test_a_process_with_no_pool_keeps_exactly_one_workspace(
        self, monkeypatch, fresh_reserve, made_workspaces
    ):
        monkeypatch.setenv("CRUL_THREADS", "1")
        mc = McConfig(n_samples=200_000, seed=6)
        estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, mc)
        estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, replace(mc, seed=7))
        sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL)
        assert made_workspaces == [CHUNK_SIZE]
        assert len(montecarlo._reserve.workspaces) == 1

    def test_a_serial_call_after_a_pooled_one_adds_no_workspace(
        self, monkeypatch, fresh_reserve, made_workspaces
    ):
        """The one-thread check after a two-thread figure round runs in the
        first kept workspace, so at most two exist."""
        mc = McConfig(n_samples=200_000, seed=7)
        monkeypatch.setenv("CRUL_THREADS", "2")
        pooled = sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL)
        monkeypatch.setenv("CRUL_THREADS", "1")
        assert sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL) == pooled
        assert made_workspaces == [CHUNK_SIZE] * 2
        assert len(montecarlo._reserve.workspaces) == 2

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_thread_count_changes_within_a_process(self, monkeypatch, cpus):
        """Every pass, on fewer threads than CPUs or more, leaves the
        workspaces of the busiest pass so far, but never more than one per
        CPU: on two CPUs, the first two-thread pass leaves two, and no later
        pass leaves another count."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        mc = McConfig(n_samples=40_000, seed=42)
        with chunk_size(5_000):
            serial = _serial_point(SCENARIO_20DB, mc)
            assert len(montecarlo._reserve.workspaces) == 1
            kept = 1
            for count in (2, 1, 4, 2, 16):
                monkeypatch.setenv("CRUL_THREADS", str(count))
                assert sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL) == serial, count
                kept = min(max(kept, count), cpus)
                assert len(montecarlo._reserve.workspaces) == kept, count

    def test_short_and_long_passes_share_two_block_workspaces(
        self, monkeypatch, fresh_reserve, made_workspaces
    ):
        """Passes below one chunk and passes of several chunks, in turn on
        two threads, each give their serial value, and all of them run in
        the same two workspaces of one chunk each."""
        short = McConfig(n_samples=640, seed=11)
        long = McConfig(n_samples=250_001, seed=11)
        with mock.patch.object(montecarlo, "_reserve", montecarlo._Reserve()):
            serial = {mc: _serial_point(SCENARIO_20DB, mc) for mc in (short, long)}
        made_workspaces.clear()
        monkeypatch.setenv("CRUL_THREADS", "2")
        for mc in (short, long, short, long):
            assert sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL) == serial[mc]
        assert made_workspaces == [CHUNK_SIZE] * 2
        assert [w.capacity for w in montecarlo._reserve.workspaces] == [CHUNK_SIZE] * 2

    def test_two_python_threads_sampling_at_once(self, monkeypatch, chunk_index):
        """Two callers share the kept workspaces by taking turns: a pass holds
        them from its start to its end, so the callers never share one
        mid-pass.  Each chunk dwells in its workspace a little, so had both
        callers' passes run at once, a workspace would be seen in use twice;
        each pass runs more threads than the host has CPUs, and they switch
        often."""
        boosted = SCENARIO_20DB.with_secondary_snr_scaled(3.0)
        jobs = [
            (SCENARIO_20DB, McConfig(n_samples=8_000, seed=1)),
            (boosted, McConfig(n_samples=8_000, seed=2)),
        ]
        with chunk_size(500):
            serial = [_serial_point(scenario, mc) for scenario, mc in jobs]
            clashes, results, workers = _sample_at_once(monkeypatch, chunk_index, jobs)
            kept = min(workers, jobs[0][1].n_chunks, os.cpu_count() or 1)
            assert len(montecarlo._reserve.workspaces) == kept
        assert clashes == []
        assert results == [[expected] * 3 for expected in serial]

    def test_a_failed_chunk_leaves_no_chunk_running(self, monkeypatch, chunk_index):
        """A pass whose chunk raises returns only once no other chunk of it
        runs in the kept workspaces, and the next call still matches."""
        mc = McConfig(n_samples=20_000, seed=3)
        with chunk_size(500):
            serial = _serial_point(SCENARIO_20DB, mc)
            monkeypatch.setenv("CRUL_THREADS", "2")
            running, original = set(), montecarlo._chunk_sums

            # Chunk 2 is the first worker's second; every other chunk dwells a
            # little, so the second worker is still mid-chunk when it fails.
            def failing(scenario, families, logs, workspace):
                index = chunk_index()
                running.add(index)
                try:
                    if index == 2:
                        raise RuntimeError("chunk 2")
                    time.sleep(1e-3)
                    return original(scenario, families, logs, workspace)
                finally:
                    running.discard(index)

            monkeypatch.setattr(montecarlo, "_chunk_sums", failing)
            with pytest.raises(RuntimeError, match="chunk 2"):
                sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL)
            assert running == set()
            monkeypatch.setattr(montecarlo, "_chunk_sums", original)
            assert sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL) == serial

    def test_more_threads_than_cpus_keep_one_workspace_per_cpu(
        self, monkeypatch, fresh_reserve, made_workspaces, chunk_index
    ):
        """Release check 9's shape: 16 threads over 10 chunks give the
        serial value, and on two CPUs each pass makes the eight workspaces it
        lacks and keeps two, whether it succeeds or fails."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        mc = McConfig(n_samples=10_000, seed=8)
        with chunk_size(1_000):
            serial = _serial_point(SCENARIO_20DB, mc)
            monkeypatch.setenv("CRUL_THREADS", "16")
            assert sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL) == serial
            assert len(made_workspaces) == 1 + 9 + 8  # serial, plain and boosted passes
            assert len(montecarlo._reserve.workspaces) == 2
            assert _mc_threads() == []

            def failing(scenario, families, logs, workspace):
                raise RuntimeError(f"chunk {chunk_index()}")

            monkeypatch.setattr(montecarlo, "_chunk_sums", failing)
            with pytest.raises(RuntimeError, match="chunk 0"):
                estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, mc)
            assert len(made_workspaces) == 1 + 9 + 8 + 8
            assert len(montecarlo._reserve.workspaces) == 2
            assert _mc_threads() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork here"
    )
    def test_a_forked_child_starts_clean(self, monkeypatch):
        """A child forked while a pass in another thread holds the reserve's
        lock has no such thread to release it; it must start with a reserve
        of its own, with no workspace and no draw, not wait for that lock
        forever."""
        monkeypatch.setenv("CRUL_THREADS", "2")
        expected = estimate(ProtocolKind.CR_RSMA, SCENARIO_20DB, McConfig(n_samples=200_000))
        assert montecarlo._reserve.workspaces and montecarlo._reserve.kept[1] == (0, 1, CHUNK_SIZE)
        receiver, sender = multiprocessing.Pipe(duplex=False)
        child = multiprocessing.get_context("fork").Process(target=_child_estimate, args=(sender,))
        with montecarlo._reserve.lock:  # as a pass running in another thread would
            child.start()
        try:
            assert receiver.poll(60.0), "the forked child's estimate never came back"
            assert receiver.recv() == (0, [None] * KEPT_CHUNKS, expected)
        finally:
            child.join(5.0)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0


# ------------------------------------------------------------ kept draws


class _FailsOnSecondBlock:
    """A stream that fills the primary block and then fails, half way into
    a chunk's standard draw."""

    def __init__(self):
        self.blocks = 0

    def random(self, out):
        if self.blocks:
            raise RuntimeError("stream failed")
        self.blocks += 1
        out.fill(0.5)
        return out


class TestKeptDraws:
    @pytest.mark.parametrize(
        "other",
        [
            ScenarioConfig.from_snr_db(37.0, 20.0),  # another primary rate
            ScenarioConfig.from_snr_db(20.0, 3.0),  # another secondary rate
            SCENARIO_20DB.with_secondary_snr_scaled(1.0 / 0.7),  # a boosted pass
        ],
    )
    def test_a_rescaled_chunk_sums_as_a_new_draw(self, monkeypatch, streams, other):
        monkeypatch.setenv("CRUL_THREADS", "2")
        mc = McConfig(n_samples=250_001, seed=21)
        with mock.patch.object(montecarlo, "_reserve", montecarlo._Reserve()):
            fresh = sample_point(other, mc, EVERY_PROTOCOL)
        with mock.patch.object(montecarlo, "_reserve", montecarlo._Reserve()):
            sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL)
            streams.clear()
            assert sample_point(other, mc, EVERY_PROTOCOL) == fresh
        assert streams == []

    @pytest.mark.parametrize(
        "seed,index,count",
        [(22, 0, 1_000), (21, 1, 1_000), (21, 0, 999)],
        ids=["another seed", "another chunk", "a short last chunk"],
    )
    def test_a_kept_draw_serves_only_its_own_chunk(self, streams, seed, index, count):
        reserve = montecarlo._Reserve()
        reserve.standard_draw(21, 0, 1_000, None)
        streams.clear()
        kept = reserve.standard_draw(seed, index, count, None)
        assert streams == [(seed, index)]
        assert reserve.kept[index] == (seed, index, count)
        assert np.array_equal(kept, montecarlo._standard_draw(seed, index, count))

    def test_a_draw_that_raises_stores_nothing(self, monkeypatch, streams):
        """A stream that fails after the primary block leaves no draw kept
        for its chunk, and the chunk the row held before, whose primary
        logs were written over, is drawn anew."""
        reserve = montecarlo._Reserve()
        reserve.standard_draw(21, 0, 1_000, None)
        monkeypatch.setattr(montecarlo, "chunk_stream", lambda seed, index: _FailsOnSecondBlock())
        with pytest.raises(RuntimeError, match="stream failed"):
            reserve.standard_draw(22, 0, 1_000, None)
        assert reserve.kept == [None] * KEPT_CHUNKS
        monkeypatch.setattr(montecarlo, "chunk_stream", chunk_stream)
        again = reserve.standard_draw(21, 0, 1_000, None)
        assert np.array_equal(again, montecarlo._standard_draw(21, 0, 1_000))

    def test_a_pass_keeps_at_most_the_first_chunks_whatever_its_seed(self, monkeypatch, streams):
        """A pass of 2e6 draws keeps the first ``KEPT_CHUNKS`` of its 20
        chunks, in a store of that many chunks; a 2-chunk pass under another
        seed replaces the draws of chunks 0 and 1 only, so a later pass under
        the first seed draws those two again and no other kept chunk."""
        monkeypatch.setenv("CRUL_THREADS", "2")
        reserve = montecarlo._Reserve()
        with mock.patch.object(montecarlo, "_reserve", reserve):
            estimate(ProtocolKind.BENCH_CSI, SCENARIO_20DB, McConfig(n_samples=2 * 10**6, seed=3))
            assert reserve.kept == [(3, index, CHUNK_SIZE) for index in range(KEPT_CHUNKS)]
            assert [draw.shape for draw in reserve.draws] == [(2, CHUNK_SIZE)] * KEPT_CHUNKS
            assert len(streams) == 20
            estimate(ProtocolKind.BENCH_CSI, SCENARIO_20DB, McConfig(n_samples=150_000, seed=4))
            assert reserve.kept[:2] == [(4, 0, CHUNK_SIZE), (4, 1, 50_000)]
            assert reserve.kept[2:] == [(3, index, CHUNK_SIZE) for index in range(2, KEPT_CHUNKS)]
            streams.clear()
            estimate(ProtocolKind.BENCH_CSI, SCENARIO_20DB, McConfig(n_samples=10**6, seed=3))
        assert sorted(streams) == [(3, 0), (3, 1)]
        assert reserve.kept == [(3, index, CHUNK_SIZE) for index in range(KEPT_CHUNKS)]

    def test_each_worker_runs_a_fixed_stride_in_its_own_workspace(
        self, monkeypatch, chunk_index
    ):
        """On two workers, chunk ``i`` runs in ``_reserve.workspaces[i % 2]``
        on every pass: plain and boosted, and again under another seed."""
        monkeypatch.setenv("CRUL_THREADS", "2")
        mc = McConfig(n_samples=5_500, seed=4)
        ran, original = [], montecarlo._chunk_sums

        def recorded(scenario, families, logs, workspace):
            ran.append((families, chunk_index(), workspace))
            return original(scenario, families, logs, workspace)

        monkeypatch.setattr(montecarlo, "_chunk_sums", recorded)
        with chunk_size(1_000):
            for seed in (4, 4, 5):
                sample_point(SCENARIO_20DB, replace(mc, seed=seed), EVERY_PROTOCOL)
            workspaces = montecarlo._reserve.workspaces
            assert len(ran) == 3 * 2 * mc.n_chunks
        assert len(workspaces) == 2
        for families, index, workspace in ran:
            assert workspace is workspaces[index % 2], (families, index)

    def test_a_second_one_chunk_point_opens_no_stream(self, monkeypatch, fresh_reserve, streams):
        monkeypatch.setenv("CRUL_THREADS", "2")
        mc = McConfig(n_samples=1_000, seed=3)
        other = ScenarioConfig.from_snr_db(31.0, 12.0)
        expected = _serial_point(other, mc)
        sample_point(SCENARIO_20DB, mc, EVERY_PROTOCOL)
        streams.clear()
        assert sample_point(other, mc, EVERY_PROTOCOL) == expected
        assert streams == []

    def test_two_python_threads_sharing_a_seed_never_share_a_workspace(
        self, monkeypatch, streams, chunk_index
    ):
        """Two callers under one seed and chunk layout sample two scenarios at
        once.  Their passes take turns in the kept workspaces, so either may
        rescale a chunk that the other's last pass drew."""
        mc = McConfig(n_samples=8_000, seed=1)
        jobs = [(SCENARIO_20DB, mc), (SCENARIO_20DB.with_secondary_snr_scaled(3.0), mc)]
        with chunk_size(500):
            serial = [_serial_point(scenario, mc) for scenario, mc in jobs]
            streams.clear()
            clashes, results, _ = _sample_at_once(monkeypatch, chunk_index, jobs)
            # The warm-up opens at least one stream per chunk; had the six
            # calls rescaled nothing, they would open one per chunk and pass.
            assert len(streams) < mc.n_chunks * (1 + 6 * 2)
        assert clashes == []
        assert results == [[expected] * 3 for expected in serial]


# ------------------------------------------------------------ power factor


class TestMeanPowerFactor:
    def test_matches_oracle(self):
        from crul.oracle import mean_power_factor_oracle

        mc = McConfig(n_samples=10**6, seed=101)
        result = mean_power_factor(SCENARIO_20DB, mc)
        reference = mean_power_factor_oracle(SCENARIO_20DB)
        assert abs(result.value - reference) <= 3.0 * result.stderr

    def test_vanishing_threshold_forces_full_power(self):
        # The reduced-power band has measure ~theta, so for a tiny target
        # every draw transmits at full power.
        scenario = ScenarioConfig.from_snr_db(20.0, 20.0, rate_threshold=1e-9)
        result = mean_power_factor(scenario, McConfig(n_samples=100_000, seed=5))
        assert abs(result.value - 1.0) <= 3.0 * result.stderr + 1e-12

    def test_decreases_with_snr(self):
        low = mean_power_factor(
            ScenarioConfig.from_snr_db(10.0, 10.0), McConfig(n_samples=10**6, seed=41)
        )
        high = mean_power_factor(
            ScenarioConfig.from_snr_db(40.0, 40.0), McConfig(n_samples=10**6, seed=41)
        )
        assert high.value < low.value

    def test_control_law_spot_value(self):
        # (pu, su, target) = (6, 2, 4): scale (6/4 - 1)/2 = 1/4 exactly.
        pu, su, workspace = np.array([6.0]), np.array([2.0]), Workspace(1)
        cells = sic_case_array(pu, su, 4.0, workspace)
        draws = CellDraws(pu, su, 4.0, cells, workspace)
        scale = sic_power_factor_array(draws, np.empty(1))
        assert scale[0] == 0.25

    def test_lives_in_unit_interval(self):
        result = mean_power_factor(SCENARIO_20DB, McConfig(n_samples=50_000, seed=2))
        assert 0.0 < result.value <= 1.0


# ------------------------------------------------------------ admission events


def _cases(scenario, mc):
    """Both case families over the estimator's draws, in sample order."""
    rsma, sic = [], []
    for index, count in enumerate(mc.chunk_counts()):
        cells = draw_chunk(scenario, mc.seed, index, count, Workspace(count)).cells
        rsma.append(rsma_case_array(cells))
        sic.append(cells)
    return np.concatenate(rsma), np.concatenate(sic)


class TestEventCounts:
    def test_families_partition_the_samples(self):
        mc = McConfig(n_samples=100_000, seed=19)
        rsma, sic = _cases(SCENARIO_20DB, mc)
        assert len(rsma) == len(sic) == mc.n_samples
        assert set(np.unique(rsma)) == {0, 1, 2}
        assert set(np.unique(sic)) == {0, 1, 2, 3}

    def test_shared_draws_make_miss_events_identical(self):
        # Both decompositions lead with the same event (primary below its
        # target) evaluated on the same realizations.
        mc = McConfig(n_samples=100_000, seed=19)
        rsma, sic = _cases(SCENARIO_20DB, mc)
        assert np.array_equal(rsma == 0, sic == 0)

    def test_miss_probability_matches_exponential_cdf(self):
        mc = McConfig(n_samples=10**6, seed=71)
        rsma, _ = _cases(SCENARIO_20DB, mc)
        p = 1.0 - math.exp(-SCENARIO_20DB.lambda_pu * SCENARIO_20DB.theta)
        sigma = math.sqrt(p * (1.0 - p) / mc.n_samples)
        assert abs(np.mean(rsma == 0) - p) <= 3.0 * sigma

    def test_unreachable_target_concentrates_on_miss_case(self):
        scenario = ScenarioConfig.from_snr_db(
            20.0, 20.0, rate_threshold=math.log2(1.0 + 1e6)
        )
        rsma, _ = _cases(scenario, McConfig(n_samples=100_000, seed=83))
        assert np.mean(rsma == 0) > 0.999
