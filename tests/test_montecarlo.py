"""Tests for the chunked, parallel-deterministic Monte Carlo estimator."""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crul import montecarlo
from crul.channel import ScenarioConfig, sample_snrs
from crul.montecarlo import (
    EstimateResult,
    McConfig,
    chunk_stream,
    estimate,
    mean_power_factor,
    resolve_workers,
    sample_point,
)
from crul.oracle import ergodic_rate_oracle
from crul.protocols import (
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
from reference_rules import benchmark_su_rate, rsma_rates, sic_rates

SCENARIO_20DB = ScenarioConfig.from_snr_db(20.0, 20.0)
UNIT_SCENARIO = ScenarioConfig.from_snr_db(0.0, 0.0, secondary_distance=1.0)


# ------------------------------------------------------------ config types


class TestMcConfig:
    def test_defaults(self):
        mc = McConfig(seed=1)
        assert mc.n_samples == 10**6
        assert mc.chunk_size == 100_000
        assert mc.n_chunks == 10

    def test_chunk_counts_cover_exactly(self):
        mc = McConfig(n_samples=250_001, seed=0, chunk_size=100_000)
        assert mc.chunk_counts() == [100_000, 100_000, 50_001]
        assert sum(mc.chunk_counts()) == mc.n_samples
        assert mc.n_chunks == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"n_samples": -5},
            {"chunk_size": 0},
            {"seed": 1 << 64},
            {"seed": -(1 << 63) - 1},
            # Negative seeds used to be masked onto the top of the range,
            # so -1 and 2**64 - 1 drew the same stream.
            {"seed": -1},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        base = dict(n_samples=10, seed=0, chunk_size=5)
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


# ------------------------------------------------------------ determinism


class TestDeterminism:
    @pytest.mark.parametrize(
        "protocol", [ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC_NORM]
    )
    def test_bit_identical_across_worker_counts(self, protocol):
        mc = McConfig(n_samples=200_000, seed=42, chunk_size=25_000)
        values = {}
        for count in (1, 4, 16):
            with threads(count):
                values[count] = estimate(protocol, SCENARIO_20DB, mc)
        assert values[1] == values[4] == values[16]

    def test_env_thread_cap_does_not_change_values(self, monkeypatch):
        mc = McConfig(n_samples=100_000, seed=9, chunk_size=10_000)
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

    def test_chunk_size_is_part_of_the_stream_key(self):
        # Rechunking rekeys the substreams, so it legitimately changes the
        # draw set; determinism is promised per (seed, n, chunk_size).
        coarse = McConfig(n_samples=10_000, seed=3, chunk_size=10_000)
        fine = McConfig(n_samples=10_000, seed=3, chunk_size=1_000)
        a = estimate(ProtocolKind.CR_RSMA, SCENARIO_20DB, coarse).value
        b = estimate(ProtocolKind.CR_RSMA, SCENARIO_20DB, fine).value
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
        mc = McConfig(n_samples=256, seed=seed, chunk_size=64)
        with threads(1):
            serial = estimate(protocol, SCENARIO_20DB, mc)
        with threads(4):
            parallel = estimate(protocol, SCENARIO_20DB, mc)
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
        from crul.crosscheck import arbitrated_rate

        mc = McConfig(n_samples=10**6, seed=31)
        result = estimate(ProtocolKind.CR_RSMA, SCENARIO_20DB, mc)
        reference = arbitrated_rate(ProtocolKind.CR_RSMA, SCENARIO_20DB)
        assert abs(result.value - reference) <= 3.0 * result.stderr

    def test_single_sample_equals_per_realization_rate(self):
        mc = McConfig(n_samples=1, seed=7)
        gamma_pu, gamma_su = sample_snrs(SCENARIO_20DB, chunk_stream(7, 0), 1)
        draw = (float(gamma_pu[0]), float(gamma_su[0]))
        theta = SCENARIO_20DB.theta
        expected = {
            ProtocolKind.CR_RSMA: rsma_rates(*draw, theta).su_rate,
            ProtocolKind.CR_SIC: sic_rates(*draw, theta).su_rate,
            ProtocolKind.BENCH_CSI: benchmark_su_rate(ProtocolKind.BENCH_CSI, *draw, theta),
            ProtocolKind.BENCH_QOS: benchmark_su_rate(ProtocolKind.BENCH_QOS, *draw, theta),
        }
        for protocol, reference in expected.items():
            result = estimate(protocol, SCENARIO_20DB, mc)
            assert result.value == reference
            assert result.stderr == 0.0
            assert result.n_samples == 1

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

    def test_norm_flags_rejected_for_plain_protocols(self):
        mc = McConfig(n_samples=10, seed=0)
        with pytest.raises(ValueError):
            estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, mc, norm_power_factor=0.5)

    def test_unit_power_scale_reduces_to_plain_sic(self):
        mc = McConfig(n_samples=50_000, seed=11)
        plain = estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, mc)
        normed = estimate(
            ProtocolKind.CR_SIC_NORM, SCENARIO_20DB, mc, norm_power_factor=1.0
        )
        assert normed.value == plain.value

    def test_normalization_boosts_sic(self):
        # The estimated power scale is < 1, so the normalized run gives
        # the secondary a strictly larger mean SNR and a larger rate.
        mc = McConfig(n_samples=10**6, seed=23)
        plain = estimate(ProtocolKind.CR_SIC, SCENARIO_20DB, mc)
        normed = estimate(ProtocolKind.CR_SIC_NORM, SCENARIO_20DB, mc)
        assert normed.value > plain.value

    def test_rejects_nonpositive_power_scale(self):
        mc = McConfig(n_samples=10, seed=0)
        with pytest.raises(ValueError):
            estimate(
                ProtocolKind.CR_SIC_NORM, SCENARIO_20DB, mc, norm_power_factor=0.0
            )


# ------------------------------------------------------------ case breakdown


def _classified(scenario, mc, index, count):
    pu, su = sample_snrs(scenario, chunk_stream(mc.seed, index), count)
    return CellDraws(pu, su, scenario.theta, sic_case_array(pu, su, scenario.theta))


def _case_means(protocol, scenario, mc):
    """Restricted mean of each admission case, from the chunk draws.

    A reference for the estimator's fold: per-chunk ``bincount`` sums,
    combined with ``fsum`` in chunk order, divided by the sample count.
    """
    if protocol is ProtocolKind.CR_SIC_NORM:
        scale = mean_power_factor(scenario, mc).value
        scenario = scenario.with_secondary_snr_scaled(1.0 / scale)
        protocol = ProtocolKind.CR_SIC
    chunk_sums = []
    for index, count in enumerate(mc.chunk_counts()):
        draws = _classified(scenario, mc, index, count)
        if protocol is ProtocolKind.CR_RSMA:
            rates = rsma_rate_arrays(draws)
            cases = rsma_case_array(draws.cells)
        elif protocol is ProtocolKind.CR_SIC:
            rates = sic_rate_arrays(draws)
            cases = draws.cells
        elif protocol is ProtocolKind.BENCH_CSI:
            rates = csi_rate_array(draws)
            cases = np.zeros(count, dtype=np.int8)
        else:
            rates = qos_rate_array(draws)
            cases = (draws.gamma_pu > draws.theta * (1.0 + draws.gamma_su)).astype(np.int8)
        chunk_sums.append(np.bincount(cases, weights=rates, minlength=4))
    return [math.fsum(sums[k] for sums in chunk_sums) / mc.n_samples for k in range(4)]


class TestEstimateByCase:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_case_means_sum_to_total_exactly(self, protocol):
        # Several chunks, so the fold order is part of what must match.
        mc = McConfig(n_samples=100_000, seed=13, chunk_size=30_000)
        breakdown = _case_means(protocol, SCENARIO_20DB, mc)
        total = estimate(protocol, SCENARIO_20DB, mc).value
        assert math.fsum(breakdown) == total

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
        mc = McConfig(n_samples=300, seed=seed, chunk_size=64)
        protocols = [p for p in ProtocolKind if p in subset]
        with threads(1):
            power = mean_power_factor(SCENARIO_20DB, mc)
            singles = {p: estimate(p, SCENARIO_20DB, mc) for p in protocols}
        for count in (1, 4):
            with threads(count):
                estimates, scale = sample_point(SCENARIO_20DB, mc, protocols)
            assert estimates == singles
            assert scale == power

    @pytest.mark.parametrize(
        "protocols,passes",
        [(tuple(ProtocolKind), 2), ((ProtocolKind.CR_RSMA, ProtocolKind.BENCH_QOS), 1)],
    )
    def test_draws_each_chunk_once_per_pass(self, monkeypatch, protocols, passes):
        calls = []

        def counted(seed, index):
            calls.append(index)
            return chunk_stream(seed, index)

        monkeypatch.setattr(montecarlo, "chunk_stream", counted)
        monkeypatch.setenv("CRUL_THREADS", "1")
        mc = McConfig(n_samples=1_000, seed=5, chunk_size=250)
        sample_point(SCENARIO_20DB, mc, protocols)
        assert sorted(calls) == sorted(list(range(mc.n_chunks)) * passes)

    @pytest.mark.parametrize(
        "protocols,passes",
        [(tuple(ProtocolKind), 2), ((ProtocolKind.CR_RSMA, ProtocolKind.BENCH_QOS), 1)],
    )
    def test_classifies_each_chunk_once_per_pass(self, monkeypatch, protocols, passes):
        sizes = []

        def counted(gamma_pu, gamma_su, theta):
            sizes.append(gamma_pu.size)
            return sic_case_array(gamma_pu, gamma_su, theta)

        monkeypatch.setattr(montecarlo, "sic_case_array", counted)
        monkeypatch.setenv("CRUL_THREADS", "1")
        mc = McConfig(n_samples=1_000, seed=5, chunk_size=250)
        sample_point(SCENARIO_20DB, mc, protocols)
        assert sizes == mc.chunk_counts() * passes


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
        pu, su = np.array([6.0]), np.array([2.0])
        scale = sic_power_factor_array(CellDraws(pu, su, 4.0, sic_case_array(pu, su, 4.0)))
        assert scale[0] == 0.25

    def test_lives_in_unit_interval(self):
        result = mean_power_factor(SCENARIO_20DB, McConfig(n_samples=50_000, seed=2))
        assert 0.0 < result.value <= 1.0


# ------------------------------------------------------------ admission events


def _cases(scenario, mc):
    """Both case families over the estimator's draws, in sample order."""
    rsma, sic = [], []
    for index, count in enumerate(mc.chunk_counts()):
        cells = _classified(scenario, mc, index, count).cells
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
