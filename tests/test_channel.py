"""Tests for the link-budget arithmetic and Rayleigh SNR sampling."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from crul.channel import (
    LinkBudget,
    ScenarioConfig,
    db_to_linear,
    exponential_from_uniform,
    path_loss,
    qos_threshold,
    sample_snrs,
)


def make_scenario(primary_db=20.0, secondary_db=20.0, **kw):
    return ScenarioConfig.from_snr_db(primary_db, secondary_db, **kw)


# ------------------------------------------------------------- formulas


def test_path_loss_hand_values():
    assert path_loss(1.0, 2.0) == 1.0
    assert path_loss(2.0, 2.0) == 0.25
    assert path_loss(4.0, 3.0) == 0.015625


def test_path_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        path_loss(0.0, 2.0)
    with pytest.raises(ValueError):
        path_loss(-1.0, 2.0)
    with pytest.raises(ValueError):
        path_loss(1.0, -0.5)


def test_rate_param_hand_values():
    # 1 / (10^(dB/10) * ratio^-u)
    assert LinkBudget(0.0, 1.0, 2.0).rate_parameter == pytest.approx(1.0, rel=1e-15)
    assert LinkBudget(20.0, 2.0, 2.0).rate_parameter == pytest.approx(0.04, rel=1e-15)
    assert LinkBudget(10.0, 1.0, 2.0).rate_parameter == pytest.approx(0.1, rel=1e-15)


def test_qos_threshold_hand_values():
    assert qos_threshold(1.0) == 1.0
    assert qos_threshold(2.5) == pytest.approx(2.0**2.5 - 1.0, rel=1e-15)
    assert qos_threshold(2.5) == pytest.approx(4.656854249492381, rel=1e-12)
    assert qos_threshold(0.0) == 0.0


def test_qos_threshold_rejects_negative():
    with pytest.raises(ValueError):
        qos_threshold(-0.1)


@given(st.floats(min_value=-30.0, max_value=60.0))
def test_db_round_trip(value_db):
    assert 10.0 * math.log10(db_to_linear(value_db)) == pytest.approx(value_db, abs=1e-10)


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.0, max_value=6.0),
)
def test_path_loss_positive_and_monotone(ratio, exponent):
    loss = path_loss(ratio, exponent)
    assert loss > 0.0
    if ratio > 1.0:
        assert loss <= 1.0
        assert path_loss(2.0 * ratio, exponent) <= loss


# ---------------------------------------------------------- dataclasses


def test_default_scenario_parameters():
    scenario = make_scenario(20.0, 20.0)
    # primary at unit distance: lambda = 1/100; secondary at double

    # distance with square-law loss: 1/(100/4) = 0.04
    assert scenario.lambda_pu == pytest.approx(0.01, rel=1e-14)
    assert scenario.lambda_su == pytest.approx(0.04, rel=1e-14)
    assert scenario.theta == pytest.approx(4.656854249492381, rel=1e-14)


def test_link_budget_properties():
    link = LinkBudget(mean_snr_db=10.0, distance_ratio=2.0, path_loss_exponent=2.0)
    assert link.loss == 0.25
    assert link.mean_snr == pytest.approx(2.5, rel=1e-14)
    assert link.rate_parameter == pytest.approx(0.4, rel=1e-14)


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(rate_threshold=-1.0)
    with pytest.raises(ValueError):
        make_scenario(primary_distance=0.0)


def test_scenario_is_immutable():
    scenario = make_scenario()
    with pytest.raises(AttributeError):
        scenario.rate_threshold = 3.0


def test_secondary_scaling():
    scenario = make_scenario(20.0, 20.0)
    scaled = scenario.with_secondary_snr_scaled(0.25)
    assert scaled.lambda_su == pytest.approx(4.0 * scenario.lambda_su, rel=1e-12)
    assert scaled.lambda_pu == scenario.lambda_pu
    with pytest.raises(ValueError):
        scenario.with_secondary_snr_scaled(0.0)


# ------------------------------------------------------------- sampling


def test_inverse_cdf_fixed_points():
    assert exponential_from_uniform(math.exp(-1.0), 1.0) == pytest.approx(1.0, rel=1e-14)
    assert exponential_from_uniform(1.0, 1.0) == 0.0
    assert exponential_from_uniform(math.exp(-2.0), 4.0) == pytest.approx(0.5, rel=1e-14)


def test_inverse_cdf_rejects_out_of_range():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            exponential_from_uniform(bad, 1.0)
    with pytest.raises(ValueError):
        exponential_from_uniform(0.5, 0.0)


@given(
    st.floats(min_value=1e-12, max_value=1.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_inverse_cdf_properties(u, rate):
    value = exponential_from_uniform(u, rate)
    assert value >= 0.0
    assert math.isfinite(value)
    if u < 1.0:
        # strictly decreasing in u
        assert exponential_from_uniform(min(1.0, u * 1.5), rate) < value or u * 1.5 > 1.0


def test_inverse_cdf_vectorized():
    u = np.array([1.0, math.exp(-1.0), math.exp(-3.0)])
    out = exponential_from_uniform(u, 1.0)
    assert out == pytest.approx([0.0, 1.0, 3.0], rel=1e-12)


def test_sample_mean_matches_exponential():
    # 1e6 draws at rate 0.04: mean 25, sd of the mean 0.025 -> 3 sigma band.
    scenario = make_scenario(20.0, 20.0)
    rng = np.random.Generator(np.random.Philox(12345))
    _, gamma_su = sample_snrs(scenario, rng, 1_000_000)
    assert abs(float(gamma_su.mean()) - 25.0) < 0.075


def test_sample_distribution_kolmogorov_smirnov():
    scenario = make_scenario(20.0, 20.0)
    rng = np.random.Generator(np.random.Philox(999))
    gamma_pu, gamma_su = sample_snrs(scenario, rng, 1_000_000)
    for values, rate in ((gamma_pu, 0.01), (gamma_su, 0.04)):
        statistic = scipy.stats.kstest(values, "expon", args=(0.0, 1.0 / rate)).statistic
        assert statistic < 0.002


def test_sampling_is_deterministic_per_seed():
    scenario = make_scenario(15.0, 10.0)
    a = sample_snrs(scenario, np.random.Generator(np.random.Philox(7)), 1000)
    b = sample_snrs(scenario, np.random.Generator(np.random.Philox(7)), 1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_snrs(scenario, np.random.Generator(np.random.Philox(8)), 1000)
    assert not np.array_equal(a[0], c[0])


def test_single_realization_consumes_primary_draw_first():
    scenario = make_scenario(0.0, 0.0, secondary_distance=1.0)
    gamma_pu, gamma_su = sample_snrs(scenario, np.random.Generator(np.random.Philox(41)), 1)
    rng = np.random.Generator(np.random.Philox(41))
    first, second = 1.0 - rng.random(), 1.0 - rng.random()
    assert gamma_pu[0] == pytest.approx(-math.log(first), rel=1e-14)
    assert gamma_su[0] == pytest.approx(-math.log(second), rel=1e-14)


def test_snrs_are_nonnegative_and_finite():
    scenario = make_scenario(30.0, 30.0)
    gamma_pu, gamma_su = sample_snrs(scenario, np.random.Generator(np.random.Philox(3)), 10_000)
    for values in (gamma_pu, gamma_su):
        assert np.all(values >= 0.0)
        assert np.all(np.isfinite(values))
