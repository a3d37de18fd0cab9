"""Tests for the link-budget arithmetic, the scenario and Rayleigh SNR sampling."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from crul.channel import (
    ScenarioConfig,
    db_to_linear,
    path_loss,
    qos_threshold,
    sample_snrs,
    scale_snrs,
)


THETA = 2.0**2.5 - 1.0  # the default rate target's protection SINR


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
    assert make_scenario(0.0, 20.0, secondary_distance=2.0).lambda_pu == pytest.approx(
        1.0, rel=1e-15
    )
    assert make_scenario(0.0, 20.0, secondary_distance=2.0).lambda_su == pytest.approx(
        0.04, rel=1e-15
    )
    assert make_scenario(10.0, 0.0).lambda_pu == pytest.approx(0.1, rel=1e-15)
    assert make_scenario(0.0, 10.0, path_loss_exponent=3.0).lambda_su == pytest.approx(
        0.8, rel=1e-15
    )


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


def test_scenario_is_the_three_rates():
    scenario = ScenarioConfig(lambda_pu=0.01, lambda_su=0.04, theta=THETA)
    assert [field.name for field in dataclasses.fields(scenario)] == [
        "lambda_pu",
        "lambda_su",
        "theta",
    ]
    assert scenario == make_scenario(20.0, 20.0)


@pytest.mark.parametrize("primary_db", [-100.0, -37.5, 0.0, 3.0, 20.0, 61.25, 100.0])
@pytest.mark.parametrize(
    "secondary_db,distance,exponent",
    [(-100.0, 2.0, 2.0), (-12.5, 0.5, 3.5), (0.0, 1.0, 0.0), (17.0, 3.0, 2.7), (100.0, 2.0, 2.0)],
)
def test_from_snr_db_rates_are_the_formula_bit_for_bit(
    primary_db, secondary_db, distance, exponent
):
    scenario = make_scenario(
        primary_db,
        secondary_db,
        primary_distance=1.5,
        secondary_distance=distance,
        path_loss_exponent=exponent,
        rate_threshold=1.75,
    )
    assert scenario.lambda_pu == 1.0 / (10.0 ** (primary_db / 10.0) * 1.5**-exponent)
    assert scenario.lambda_su == 1.0 / (10.0 ** (secondary_db / 10.0) * distance**-exponent)
    assert scenario.theta == 2.0**1.75 - 1.0


@pytest.mark.parametrize("name", ["lambda_pu", "lambda_su", "theta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, "1.0", None])
def test_scenario_rejects_bad_values(name, bad):
    values = dict(lambda_pu=1.0, lambda_su=1.0, theta=1.0)
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(**{**values, name: bad})


@pytest.mark.parametrize(
    "name,value",
    [(name, value) for name in ("lambda_pu", "lambda_su") for value in (0.0, 1e-310, 5e-324)]
    + [("theta", 1e-310), ("theta", 5e-324)],
)
def test_scenario_rejects_a_zero_rate(name, value):
    # Below 1e-300 a rate's SNR draws, or the classifier's gamma_pu/theta,
    # can overflow to inf.  A theta of 0 is allowed: no rate target.
    values = dict(lambda_pu=1.0, lambda_su=1.0, theta=1.0)
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(**{**values, name: value})


@pytest.mark.parametrize(
    "values,product",
    [((1e-200, 1.0, 1e-200), "lambda_pu \\* theta"), ((1.0, 1e-300, 1e10), "theta / lambda_su")],
)
def test_scenario_rejects_products_that_overflow_the_kernel(values, product):
    # Each value clears its floor, but a standard draw of up to 53 ln 2
    # makes gamma_pu/theta overflow at the first, and theta*(1 + gamma_su)
    # at the second.
    with pytest.raises(ValueError, match=product):
        ScenarioConfig(*values)


def test_scenario_allows_no_protection():
    assert ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=0.0).theta == 0.0
    assert make_scenario(rate_threshold=0.0).theta == 0.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(rate_threshold=-1.0)
    with pytest.raises(ValueError):
        make_scenario(primary_distance=0.0)
    with pytest.raises(ValueError):
        make_scenario(secondary_distance=-2.0)
    with pytest.raises(ValueError):
        make_scenario(path_loss_exponent=-0.5)


def test_scenario_is_immutable():
    scenario = make_scenario()
    for name in ("lambda_pu", "lambda_su", "theta"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scenario, name, 3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.rate_threshold = 3.0


@pytest.mark.parametrize("factor", [0.25, 1.0 / 0.7, 3.0, 1e-80, 1e80])
def test_secondary_scaling_divides_the_secondary_rate(factor):
    scenario = make_scenario(20.0, 13.0)
    scaled = scenario.with_secondary_snr_scaled(factor)
    assert scaled.lambda_su == scenario.lambda_su / factor
    assert (scaled.lambda_pu, scaled.theta) == (scenario.lambda_pu, scenario.theta)


@pytest.mark.parametrize("factor", [0.0, -1.0, math.nan])
def test_secondary_scaling_rejects_a_nonpositive_factor(factor):
    with pytest.raises(ValueError, match="scale factor"):
        make_scenario().with_secondary_snr_scaled(factor)


# ------------------------------------------------------------- sampling


class _Constant:
    """A stream whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out.fill(self.u)
        return out


def standard_draw(rng, count):
    logs = np.empty(count), np.empty(count)
    sample_snrs(rng, count, logs)
    return logs


def draw(scenario, rng, count):
    return scale_snrs(scenario, standard_draw(rng, count), (np.empty(count), np.empty(count)))


def test_a_uniform_of_zero_gives_snr_zero():
    gamma_pu, gamma_su = draw(make_scenario(), _Constant(0.0), 3)
    assert np.all(gamma_pu == 0.0) and np.all(gamma_su == 0.0)


def test_the_largest_uniform_below_one_gives_a_finite_snr():
    # 1 - u is then 2**-53, the smallest value the draw can take.
    scenario = make_scenario()
    gamma_pu, gamma_su = draw(scenario, _Constant(np.nextafter(1.0, 0.0)), 3)
    for values, rate in ((gamma_pu, scenario.lambda_pu), (gamma_su, scenario.lambda_su)):
        assert np.all(np.isfinite(values))
        assert values == pytest.approx(53.0 * math.log(2.0) / rate, rel=1e-14)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_a_standard_draw_is_log_of_one_minus_u(u):
    logs = standard_draw(_Constant(u), 2)
    for block in logs:
        assert block.tolist() == pytest.approx([math.log(1.0 - u)] * 2, rel=1e-12, abs=0.0)
        assert np.all(block <= 0.0)


@pytest.mark.parametrize("primary_db,secondary_db", [(20.0, 20.0), (-100.0, 37.5), (100.0, 0.0)])
def test_scaling_divides_by_minus_the_rate_bit_for_bit(primary_db, secondary_db):
    scenario = make_scenario(primary_db, secondary_db)
    logs = standard_draw(np.random.Generator(np.random.Philox(5)), 1_000)
    gamma_pu, gamma_su = draw(scenario, np.random.Generator(np.random.Philox(5)), 1_000)
    assert np.array_equal(gamma_pu, -logs[0] / scenario.lambda_pu)
    assert np.array_equal(gamma_su, -logs[1] / scenario.lambda_su)


def test_scaling_hand_values():
    logs = np.array([0.0, -1.0, -3.0]), np.array([-2.0, -1.0, 0.0])
    out = np.empty(3), np.empty(3)
    gamma_pu, gamma_su = scale_snrs(ScenarioConfig(1.0, 4.0, THETA), logs, out)
    assert gamma_pu is out[0] and gamma_su is out[1]
    assert gamma_pu.tolist() == [0.0, 1.0, 3.0]
    assert gamma_su.tolist() == [0.5, 0.25, 0.0]


def test_sample_mean_matches_exponential():
    # 1e6 draws at rate 0.04: mean 25, sd of the mean 0.025 -> 3 sigma band.
    scenario = make_scenario(20.0, 20.0)
    rng = np.random.Generator(np.random.Philox(12345))
    _, gamma_su = draw(scenario, rng, 1_000_000)
    assert abs(float(gamma_su.mean()) - 25.0) < 0.075


def test_sample_distribution_kolmogorov_smirnov():
    scenario = make_scenario(20.0, 20.0)
    rng = np.random.Generator(np.random.Philox(999))
    gamma_pu, gamma_su = draw(scenario, rng, 1_000_000)
    for values, rate in ((gamma_pu, 0.01), (gamma_su, 0.04)):
        statistic = scipy.stats.kstest(values, "expon", args=(0.0, 1.0 / rate)).statistic
        assert statistic < 0.002


def test_sampling_is_deterministic_per_seed():
    scenario = make_scenario(15.0, 10.0)
    a = draw(scenario, np.random.Generator(np.random.Philox(7)), 1000)
    b = draw(scenario, np.random.Generator(np.random.Philox(7)), 1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = draw(scenario, np.random.Generator(np.random.Philox(8)), 1000)
    assert not np.array_equal(a[0], c[0])


def test_single_realization_consumes_primary_draw_first():
    scenario = make_scenario(0.0, 0.0, secondary_distance=1.0)
    gamma_pu, gamma_su = draw(scenario, np.random.Generator(np.random.Philox(41)), 1)
    rng = np.random.Generator(np.random.Philox(41))
    first, second = 1.0 - rng.random(), 1.0 - rng.random()
    assert gamma_pu[0] == pytest.approx(-math.log(first), rel=1e-14)
    assert gamma_su[0] == pytest.approx(-math.log(second), rel=1e-14)


def test_snrs_are_nonnegative_and_finite():
    scenario = make_scenario(30.0, 30.0)
    gamma_pu, gamma_su = draw(scenario, np.random.Generator(np.random.Philox(3)), 10_000)
    for values in (gamma_pu, gamma_su):
        assert np.all(values >= 0.0)
        assert np.all(np.isfinite(values))
