"""Tests for the per-realization protocol rules.

Hand-checkable fixed points are asserted directly (the arithmetic is a
few lines each); structural guarantees -- case partitions, threshold
protection, per-draw dominance, scalar/vectorized agreement -- run as
hypothesis properties over the whole positive quadrant.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crul.protocols import (
    BELOW,
    PREFERRED,
    REDUCED,
    TOLERANT,
    CellDraws,
    ProtocolKind,
    csi_rate_array,
    primary_rate_arrays,
    qos_rate_array,
    rsma_case_array,
    rsma_rate_arrays,
    sic_power_factor_array,
    sic_rate_arrays,
)
from reference_rules import (
    RSMA_CASE_LABELS,
    SIC_CASE_LABELS,
    DecodingOrder,
    benchmark_su_rate,
    classified,
    rsma_alpha,
    rsma_case_index,
    rsma_rates,
    sic_case_index,
    sic_decoding_order,
    sic_power_factor,
    sic_rates,
)

THETA = 4.0

snr = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
positive_snr = st.floats(min_value=1e-9, max_value=1e6)
threshold = st.floats(min_value=0.0, max_value=100.0)


# --------------------------------------------------------- rate splitting


def test_alpha_fixed_points():
    assert rsma_alpha(10.0, 1.0, THETA) == 0.0  # 10/(1+1) >= 4: PU safe as is
    assert rsma_alpha(3.0, 5.0, THETA) == 1.0   # PU below threshold alone
    assert rsma_alpha(6.0, 2.0, THETA) == pytest.approx(0.75, rel=1e-15)


def test_rsma_rate_fixed_points():
    # all power early: log2(1 + 5/(3+1))
    assert rsma_rates(3.0, 5.0, THETA).su_rate == pytest.approx(math.log2(2.25), rel=1e-12)
    # split 0.75/0.25: log2(1.2) + log2(1.5) = log2(1.8)
    assert rsma_rates(6.0, 2.0, THETA).su_rate == pytest.approx(math.log2(1.8), rel=1e-12)
    # all power late: log2(1 + 1)
    assert rsma_rates(10.0, 1.0, THETA).su_rate == pytest.approx(1.0, rel=1e-12)


def test_rsma_outcome_structure():
    outcome = rsma_rates(6.0, 2.0, THETA)
    assert outcome.case_index == 1
    assert outcome.decoding_order is None
    assert outcome.power_factor == pytest.approx(0.75)
    assert outcome.pu_rate == pytest.approx(math.log2(1.0 + THETA), rel=1e-12)


@given(snr, snr, st.floats(min_value=1e-3, max_value=100.0))
def test_alpha_in_unit_interval(gamma_pu, gamma_su, theta):
    alpha = rsma_alpha(gamma_pu, gamma_su, theta)
    assert 0.0 <= alpha <= 1.0


@given(
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(min_value=1e-3, max_value=100.0),
)
def test_alpha_continuity_at_case_boundaries(gamma_su, theta):
    # alpha's slope in gamma_pu is 1/(theta*gamma_su), so a relative nudge
    # of size eps moves it by about eps*(1+gamma_su)/gamma_su at the edges.
    low = rsma_alpha(theta * (1.0 - 1e-9), gamma_su, theta)
    high = rsma_alpha(theta * (1.0 + 1e-9), gamma_su, theta)
    assert abs(low - high) < 1e-6 * (1.0 + 1.0 / gamma_su)
    edge = theta * (1.0 + gamma_su)
    below = rsma_alpha(edge * (1.0 - 1e-12), gamma_su, theta)
    assert abs(below) < 1e-9 * (1.0 + 1.0 / gamma_su)


@given(snr, snr)
def test_rsma_sum_rate_collapses_to_three_cases(gamma_pu, gamma_su):
    """The two-part sum telescopes into one log per case."""
    outcome = rsma_rates(gamma_pu, gamma_su, THETA)
    if outcome.case_index == 0:
        expected = math.log2(1.0 + gamma_su / (1.0 + gamma_pu))
    elif outcome.case_index == 1:
        expected = math.log2((1.0 + gamma_su + gamma_pu) / (1.0 + THETA))
    else:
        expected = math.log2(1.0 + gamma_su)
    assert outcome.su_rate == pytest.approx(expected, rel=1e-10, abs=1e-12)


@given(snr, snr, st.floats(min_value=1e-3, max_value=100.0))
def test_rsma_protects_primary_whenever_possible(gamma_pu, gamma_su, theta):
    if gamma_pu < theta:
        return  # the PU cannot reach theta even alone; nothing to protect
    outcome = rsma_rates(gamma_pu, gamma_su, theta)
    assert outcome.pu_rate >= math.log2(1.0 + theta) - 1e-9


def test_rsma_case_fixed_points():
    assert rsma_case_index(3.0, 5.0, THETA) == 0
    assert rsma_case_index(6.0, 2.0, THETA) == 1
    assert rsma_case_index(13.0, 2.0, THETA) == 2
    assert len(RSMA_CASE_LABELS) == 3


# ----------------------------------------------------------------- pure SIC


def test_sic_power_factor_fixed_points():
    assert sic_power_factor(6.0, 2.0, THETA) == pytest.approx(0.25, rel=1e-15)
    assert sic_power_factor(3.0, 2.0, THETA) == 1.0
    assert sic_power_factor(13.0, 2.0, THETA) == 1.0


def test_sic_decoding_order_fixed_points():
    assert sic_decoding_order(6.0, 2.0, THETA) is DecodingOrder.PU_FIRST
    assert sic_decoding_order(5.0, 10.0, THETA) is DecodingOrder.SU_FIRST


def test_sic_rate_fixed_points():
    reduced = sic_rates(6.0, 2.0, THETA)
    assert reduced.su_rate == pytest.approx(math.log2(1.5), rel=1e-12)
    assert reduced.pu_rate == pytest.approx(math.log2(1.0 + THETA), rel=1e-12)
    assert reduced.case_index == 1

    preferred = sic_rates(5.0, 10.0, THETA)
    assert preferred.su_rate == pytest.approx(math.log2(8.0 / 3.0), rel=1e-12)
    assert preferred.pu_rate == pytest.approx(math.log2(6.0), rel=1e-12)
    assert preferred.case_index == 2

    tolerant = sic_rates(13.0, 2.0, THETA)
    assert tolerant.su_rate == pytest.approx(math.log2(3.0), rel=1e-12)
    assert tolerant.pu_rate == pytest.approx(math.log2(1.0 + 13.0 / 3.0), rel=1e-12)
    assert tolerant.case_index == 3


@given(snr, snr, st.floats(min_value=1e-3, max_value=100.0))
def test_sic_cases_partition_the_quadrant(gamma_pu, gamma_su, theta):
    case = sic_case_index(gamma_pu, gamma_su, theta)
    assert case in (0, 1, 2, 3)
    order = sic_decoding_order(gamma_pu, gamma_su, theta)
    if case in (0, 2):
        assert order is DecodingOrder.SU_FIRST
    else:
        assert order is DecodingOrder.PU_FIRST
    assert len(SIC_CASE_LABELS) == 4


def test_sic_boundary_at_threshold_prefers_secondary_first():
    # gamma_pu exactly on the threshold: reduced power would mean silence,
    # while decoding the SU first protects the PU for free.
    assert sic_decoding_order(THETA, 2.0, THETA) is DecodingOrder.SU_FIRST
    assert sic_case_index(THETA, 2.0, THETA) == 2
    outcome = sic_rates(THETA, 2.0, THETA)
    assert outcome.su_rate == pytest.approx(math.log2(1.0 + 2.0 / 5.0), rel=1e-12)


@given(snr, snr, st.floats(min_value=1e-3, max_value=100.0))
def test_sic_protects_primary_whenever_possible(gamma_pu, gamma_su, theta):
    if gamma_pu < theta:
        return
    outcome = sic_rates(gamma_pu, gamma_su, theta)
    assert outcome.pu_rate >= math.log2(1.0 + theta) - 1e-9


@given(snr, snr, st.floats(min_value=1e-3, max_value=100.0))
def test_sic_power_factor_in_unit_interval(gamma_pu, gamma_su, theta):
    factor = sic_power_factor(gamma_pu, gamma_su, theta)
    assert 0.0 <= factor <= 1.0


def test_sic_transmitted_factor_vs_control_law():
    # In the secondary-first-preferred case the SU actually keeps full
    # power even though the control law would have scaled it down.
    assert sic_case_index(5.0, 10.0, THETA) == 2
    assert sic_rates(5.0, 10.0, THETA).power_factor == 1.0
    assert sic_power_factor(5.0, 10.0, THETA) == pytest.approx(0.025, rel=1e-12)


def test_zero_threshold_means_no_constraint():
    assert rsma_alpha(5.0, 2.0, 0.0) == 0.0
    assert rsma_rates(5.0, 2.0, 0.0).su_rate == pytest.approx(math.log2(3.0), rel=1e-12)
    assert sic_case_index(5.0, 2.0, 0.0) == 3
    assert sic_rates(5.0, 2.0, 0.0).su_rate == pytest.approx(math.log2(3.0), rel=1e-12)


# ------------------------------------------------------------- baselines


def test_benchmark_fixed_points():
    assert benchmark_su_rate(ProtocolKind.BENCH_CSI, 1.0, 1.0, THETA) == pytest.approx(
        math.log2(1.5), rel=1e-12
    )
    assert benchmark_su_rate(ProtocolKind.BENCH_QOS, 13.0, 2.0, THETA) == pytest.approx(
        math.log2(3.0), rel=1e-12
    )
    # strict inequality: exactly on the boundary the SU stays silent
    assert benchmark_su_rate(ProtocolKind.BENCH_QOS, 12.0, 2.0, THETA) == 0.0


def test_benchmark_rejects_cognitive_kinds():
    with pytest.raises(ValueError):
        benchmark_su_rate(ProtocolKind.CR_RSMA, 1.0, 1.0, THETA)


def test_protocol_kind_names_round_trip():
    for kind in ProtocolKind:
        assert ProtocolKind.from_name(kind.value) is kind
    with pytest.raises(ValueError, match="cr-rsma"):
        ProtocolKind.from_name("nope")


# ------------------------------------------------------- dominance chain


@given(snr, snr, st.floats(min_value=1e-3, max_value=100.0))
def test_per_draw_dominance_chain(gamma_pu, gamma_su, theta):
    """Rate splitting >= pure SIC >= both baselines, draw by draw."""
    rsma = rsma_rates(gamma_pu, gamma_su, theta).su_rate
    sic = sic_rates(gamma_pu, gamma_su, theta).su_rate
    csi = benchmark_su_rate(ProtocolKind.BENCH_CSI, gamma_pu, gamma_su, theta)
    qos = benchmark_su_rate(ProtocolKind.BENCH_QOS, gamma_pu, gamma_su, theta)
    assert rsma >= sic - 1e-12
    assert sic >= csi - 1e-12
    assert sic >= qos - 1e-12


@given(positive_snr, st.floats(min_value=1e-3, max_value=50.0), st.floats(min_value=0.05, max_value=0.95))
def test_dominance_is_strict_inside_the_split_band(gamma_su, theta, position):
    # gamma_pu strictly between theta and theta*(1+gamma_su)
    gamma_pu = theta * (1.0 + position * gamma_su)
    if gamma_pu <= theta or gamma_pu >= theta * (1.0 + gamma_su):
        return  # degenerate rounding at tiny gamma_su
    rsma = rsma_rates(gamma_pu, gamma_su, theta).su_rate
    sic = sic_rates(gamma_pu, gamma_su, theta).su_rate
    assert rsma > sic


# --------------------------------------------------- vectorized kernels


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_vectorized_kernels_match_scalar_rules(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    gamma_pu = rng.exponential(scale=30.0, size=200)
    gamma_su = rng.exponential(scale=25.0, size=200)
    # sprinkle exact boundary points into the batch
    gamma_pu[:3] = (THETA, THETA * (1.0 + gamma_su[1]), 0.0)

    # As a Monte Carlo chunk runs them: in kernel order, each rule's rates
    # copied before the next writes over them.
    draws = classified(gamma_pu, gamma_su, THETA)
    r_cases = rsma_case_array(draws.cells)
    csi = csi_rate_array(draws).copy()
    qos = qos_rate_array(draws).copy()
    s_su = sic_rate_arrays(draws).copy()
    pu, s_pu = primary_rate_arrays(draws)
    factor = sic_power_factor_array(draws).copy()
    alpha = np.full(gamma_pu.shape, np.nan)
    alpha[draws.band] = 1.0 - draws.band_scale()[0]
    su = rsma_rate_arrays(draws)

    for i in range(len(gamma_pu)):
        draw = (float(gamma_pu[i]), float(gamma_su[i]), THETA)
        rsma = rsma_rates(*draw)
        sic = sic_rates(*draw)
        assert su[i] == pytest.approx(rsma.su_rate, rel=1e-12, abs=1e-15)
        assert pu[i] == pytest.approx(rsma.pu_rate, rel=1e-12, abs=1e-15)
        if r_cases[i] == 1:
            assert alpha[i] == pytest.approx(rsma_alpha(*draw), rel=1e-12, abs=1e-15)
        assert r_cases[i] == rsma_case_index(*draw)
        assert s_su[i] == pytest.approx(sic.su_rate, rel=1e-12, abs=1e-15)
        assert s_pu[i] == pytest.approx(sic.pu_rate, rel=1e-12, abs=1e-15)
        assert factor[i] == pytest.approx(sic_power_factor(*draw), rel=1e-12, abs=1e-15)
        assert draws.cells[i] == sic_case_index(*draw)
        assert csi[i] == pytest.approx(
            benchmark_su_rate(ProtocolKind.BENCH_CSI, *draw), rel=1e-12, abs=1e-15
        )
        assert qos[i] == pytest.approx(
            benchmark_su_rate(ProtocolKind.BENCH_QOS, *draw), rel=1e-12, abs=1e-15
        )


@pytest.mark.parametrize(
    "gamma_pu,gamma_su,theta,cell,admitted",
    [
        (3.0, 5.0, THETA, BELOW, False),
        # the PU exactly on its threshold: SU first protects it for free
        (THETA, 2.0, THETA, PREFERRED, False),
        # rates equal on the switch curve; SU first must be strictly better
        (6.0, 3.5, THETA, REDUCED, False),
        # product ties on the tolerance edge are tolerant (>=), also where
        # the level form rounds below the SU SNR (4.8/4 - 1 < 0.2); the
        # bench-qos gate is strict (>), so the SU stays silent on them
        (12.0, 2.0, THETA, TOLERANT, False),
        (4.8, 0.2, THETA, TOLERANT, False),
        # SU first and tolerant overlap: the draw is tolerant
        (THETA, 0.0, THETA, TOLERANT, False),
        (0.0, 2.0, 0.0, TOLERANT, False),
        # without a threshold every draw is tolerant
        (5.0, 2.0, 0.0, TOLERANT, True),
        (13.0, 2.0, THETA, TOLERANT, True),
    ],
)
def test_exact_ties_fall_in_pinned_cells(gamma_pu, gamma_su, theta, cell, admitted):
    draws = classified([gamma_pu], [gamma_su], theta)
    draw = (gamma_pu, gamma_su, theta)
    assert draws.cells[0] == cell == sic_case_index(*draw)
    assert rsma_case_array(draws.cells)[0] == (0, 1, 1, 2)[cell] == rsma_case_index(*draw)
    qos = qos_rate_array(draws)[0]  # the rules in kernel order
    assert qos == (math.log2(1.0 + gamma_su) if admitted else 0.0)
    assert qos == benchmark_su_rate(ProtocolKind.BENCH_QOS, *draw)
    sic = sic_rate_arrays(draws)[0]
    assert sic == pytest.approx(sic_rates(*draw).su_rate, abs=1e-15)
    rsma = rsma_rate_arrays(draws)[0]
    assert rsma == pytest.approx(rsma_rates(*draw).su_rate, abs=1e-15)


def masked_store_cells(gamma_pu, gamma_su, theta):
    """The cells as a mask-by-mask overwrite, a classifier written the
    plain way: reduced, then preferred, tolerant and below stored over it."""
    cells = np.full(gamma_pu.shape, REDUCED, dtype=np.int8)
    if theta > 0.0:
        preferred = gamma_su / (1.0 + gamma_pu) > gamma_pu / theta - 1.0
        np.copyto(cells, PREFERRED, where=preferred | (gamma_pu <= theta))
    np.copyto(cells, TOLERANT, where=gamma_pu >= theta * (1.0 + gamma_su))
    np.copyto(cells, BELOW, where=gamma_pu < theta)
    return cells


def tie_batch(theta):
    """One batch of exact ties at ``theta``, with the cell each must get:
    on the threshold with no SU (tolerant), on the tolerance edge
    (tolerant), and a float below the threshold (below)."""
    gamma_su = np.array([0.0, 0.5, 2.0, 1e-12, 37.25, 1e6, 2.0, 0.0])
    gamma_pu = theta * (1.0 + gamma_su)
    gamma_pu[0] = theta
    gamma_pu[-2:] = np.nextafter(theta, 0.0)
    expected = [TOLERANT] * 6 + [BELOW] * 2
    return gamma_pu, gamma_su, expected


@pytest.mark.parametrize("theta", [THETA, 2.0**2.5 - 1.0, 2.0**6 - 1.0, 0.1, 3e-9])
def test_ties_in_one_batch_keep_their_cells(theta):
    gamma_pu, gamma_su, expected = tie_batch(theta)
    draws = classified(gamma_pu, gamma_su, theta)
    assert draws.cells.tolist() == expected
    assert np.array_equal(draws.cells, masked_store_cells(gamma_pu, gamma_su, theta))
    qos = qos_rate_array(draws)
    for i, draw in enumerate(zip(gamma_pu.tolist(), gamma_su.tolist())):
        assert draws.cells[i] == sic_case_index(*draw, theta)
        assert rsma_case_array(draws.cells)[i] == rsma_case_index(*draw, theta)
        # the gate is strict, so the SU stays silent on every tie
        assert not draws.qos_admitted[i]
        assert qos[i] == 0.0 == benchmark_su_rate(ProtocolKind.BENCH_QOS, *draw, theta)


def test_without_a_threshold_every_draw_is_tolerant():
    rng = np.random.Generator(np.random.Philox(7))
    gamma_pu = np.concatenate(([0.0, 0.0, 5.0], rng.exponential(3.0, 97)))
    gamma_su = np.concatenate(([0.0, 2.0, 0.0], rng.exponential(3.0, 97)))
    draws = classified(gamma_pu, gamma_su, 0.0)
    assert np.all(draws.cells == TOLERANT)
    assert np.array_equal(draws.cells, masked_store_cells(gamma_pu, gamma_su, 0.0))
    # the strict gate still silences the SU where the PU's SNR is 0
    assert np.array_equal(draws.qos_admitted, gamma_pu > 0.0)
    qos = qos_rate_array(draws)
    for i, draw in enumerate(zip(gamma_pu.tolist(), gamma_su.tolist())):
        assert sic_case_index(*draw, 0.0) == TOLERANT
        reference = benchmark_su_rate(ProtocolKind.BENCH_QOS, *draw, 0.0)
        assert qos[i] == pytest.approx(reference, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", ["band", "tolerant", "interference_limited"])
def test_one_worker_draws_do_not_wait_on_another_workers(monkeypatch, name):
    # Monte Carlo workers each classify into their own workspace.  While
    # one worker's draws compute a kept selection or log, another's must
    # still compute theirs: a cache lock shared by every instance would
    # hold the second until the first is done.
    rng = np.random.Generator(np.random.Philox(11))
    held, other = (classified(rng.exponential(30.0, 100), rng.exponential(25.0, 100), THETA)
                   for _ in range(2))
    entered, release = threading.Event(), threading.Event()
    buffer = CellDraws.buffer

    def holding(self, *args):
        if self is held:
            entered.set()
            release.wait(timeout=30.0)
        return buffer(self, *args)

    monkeypatch.setattr(CellDraws, "buffer", holding)
    first = threading.Thread(target=getattr, args=(held, name))
    second = threading.Thread(target=getattr, args=(other, name))
    first.start()
    try:
        assert entered.wait(timeout=10.0)
        second.start()
        second.join(timeout=5.0)
        assert not second.is_alive()
    finally:
        release.set()
        first.join(timeout=30.0)
    assert not first.is_alive()


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=100.0)),
)
def test_cells_match_the_masked_store_classifier(seed, theta):
    rng = np.random.Generator(np.random.Philox(seed))
    gamma_pu = rng.exponential(scale=3.0 * (1.0 + theta), size=300)
    gamma_su = rng.exponential(scale=5.0, size=300)
    ties, tie_su, _ = tie_batch(theta)
    gamma_pu[: ties.size], gamma_su[: ties.size] = ties, tie_su
    draws = classified(gamma_pu, gamma_su, theta)
    assert np.array_equal(draws.cells, masked_store_cells(gamma_pu, gamma_su, theta))
    admitted = gamma_pu > theta * (1.0 + gamma_su)
    assert np.array_equal(draws.qos_admitted, admitted)


def test_negative_inputs_raise():
    with pytest.raises(ValueError):
        rsma_alpha(-1.0, 1.0, THETA)
    with pytest.raises(ValueError):
        sic_rates(1.0, -1.0, THETA)
    with pytest.raises(ValueError):
        rsma_rates(1.0, 1.0, -2.0)
