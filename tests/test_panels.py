"""Tests for the Gauss-Kronrod panel integrator.

The rules are checked for polynomial exactness, the 1-D integral against
closed forms, and the 2-D region integrals against a slow reference made
of nested ``scipy.integrate.quad`` calls (QUADPACK, one Python callback
per point).  That reference was the oracle's implementation before the
panel integrator replaced it; here its inner axis is also cut into the
doubling panels, without which it cannot integrate the boosted 60 dB
scenario at all.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from crul import oracle
from crul.channel import ScenarioConfig
from crul.oracle import (
    FULL_QUADRANT,
    OracleAccuracyError,
    RegionSpec,
    case_regions,
    restricted_expectation,
)
from crul.panels import (
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    QuadratureError,
    exponential_expectation,
    geometric_edges,
    panel_integral,
    tail_horizon,
)


def reference_expectation(integrand, region, lambda_pu, lambda_su, rel_tol=1e-9):
    """``E[integrand ; region]`` by nested adaptive QUADPACK quadrature.

    Scalar integrand; both axes on the doubling panels, the inner ones
    starting at each slice's lower bound.  The outer panels start from
    the shorter of the two decay lengths: a slice's mass can decay along
    the outer axis at the inner rate, and QUADPACK pays for finding that
    with thousands of inner integrations.
    """
    horizon = tail_horizon(rel_tol)
    offsets = geometric_edges(0.0, horizon / lambda_su, 1.0 / lambda_su)

    def inner(x):
        low = 0.0 if region.su_lower is None else max(0.0, region.su_lower(x))
        high = math.inf if region.su_upper is None else region.su_upper(x)
        high = min(high, low + offsets[-1])
        total = 0.0
        for a, b in zip(offsets[:-1], offsets[1:]):
            a, b = low + a, min(low + b, high)
            if not b > a:
                break
            value, abserr, *_ = scipy.integrate.quad(
                lambda y: integrand(x, y) * lambda_su * math.exp(-lambda_su * y),
                a,
                b,
                epsabs=0.0,
                epsrel=rel_tol / 5.0,
                limit=200,
                full_output=1,
            )
            assert abserr <= 20.0 * rel_tol * abs(value) + 1e-12
            total += value
        return total

    outer_high = min(region.pu_upper, region.pu_lower + horizon / lambda_pu)
    if not outer_high > region.pu_lower:
        return 0.0
    scale = 1.0 / max(lambda_pu, lambda_su)
    edges = geometric_edges(region.pu_lower, outer_high, scale)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        value, _, *_ = scipy.integrate.quad(
            lambda x: inner(x) * lambda_pu * math.exp(-lambda_pu * x),
            a,
            b,
            epsabs=0.0,
            epsrel=rel_tol / 2.0,
            limit=100,
            full_output=1,
        )
        total += value
    return total


def boosted_60db():
    """The power-normalized twin of (40, 60) dB: secondary boosted past 60 dB."""
    return oracle.normalized(ScenarioConfig.from_snr_db(40.0, 60.0))


def case_integrals(theta):
    """(name, region, scalar integrand, array integrand) of each rate region."""
    regions = case_regions(theta)
    limited = (lambda x, y: math.log2(1.0 + y / (1.0 + x)),
               lambda x, y: np.log2(1.0 + y / (1.0 + x)))
    return [
        ("below", regions["below"], *limited),
        ("band", regions["band"], lambda x, y: math.log2((1.0 + x + y) / (1.0 + theta)),
         lambda x, y: np.log2((1.0 + x + y) / (1.0 + theta))),
        ("reduced", regions["reduced"], lambda x, y: math.log2(x / theta),
         lambda x, y: np.log2(x / theta)),
        ("preferred", regions["preferred"], *limited),
        ("clear", regions["clear"], lambda x, y: math.log2(1.0 + y), lambda x, y: np.log2(1.0 + y)),
        ("full", FULL_QUADRANT, *limited),
    ]


# ------------------------------------------------------------------ rules


def test_kronrod_rule_is_exact_through_degree_31():
    for degree in range(32):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert float(KRONROD_WEIGHTS @ NODES**degree) == pytest.approx(exact, abs=1e-15)


def test_embedded_gauss_rule_is_the_10_point_legendre_rule():
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(10)
    used = GAUSS_WEIGHTS > 0.0
    assert used.sum() == 10
    np.testing.assert_allclose(NODES[used], gauss_nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(GAUSS_WEIGHTS[used], gauss_weights, rtol=0, atol=1e-15)
    assert np.all(np.diff(NODES) > 0.0)


def test_geometric_edges_double_and_stop_at_upper():
    edges = geometric_edges(1.0, 10.0, 8.0)
    np.testing.assert_allclose(edges, [1.0, 2.0, 4.0, 8.0, 10.0])
    np.testing.assert_allclose(geometric_edges(0.0, 0.5, 8.0), [0.0, 0.5])


@pytest.mark.parametrize("scale", [0.0, 5e-324, -1.0, math.inf, math.nan])
def test_geometric_edges_reject_a_scale_without_a_first_panel(scale):
    # A zero-width first panel never doubles, so the edges never reach upper.
    with pytest.raises(ValueError, match="scale"):
        geometric_edges(0.0, 1.0, scale)


# ------------------------------------------------------------ 1-D integral


@pytest.mark.parametrize("rate", [1e-8, 1e-3, 1.0, 40.0])
def test_panel_integral_of_exponential_moments(rate):
    # int t^k rate exp(-rate t) = k! / rate^k
    for k in (0, 1, 3):
        value = panel_integral(
            lambda t: t**k * rate * np.exp(-rate * t), 0.0, 1.0 / rate, 1e-10
        )
        assert value == pytest.approx(math.factorial(k) / rate**k, rel=1e-10)


def test_panel_integral_resolves_a_jump_by_bisection():
    value = panel_integral(lambda t: np.where(t < 1.0 / 3.0, 0.0, np.exp(-t)), 0.0, 1.0, 1e-10)
    assert value == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-10)


def test_panel_integral_raises_when_it_cannot_meet_the_budget():
    # exp(-t)/t is not integrable at 0: bisection stops at the panel cap
    # with the error of the first panel still a fixed share of the value.
    with pytest.raises(QuadratureError):
        panel_integral(lambda t: np.exp(-t) / t, 0.0, 1.0, 1e-9)


# ------------------------------------------------------------ 2-D integral


def test_separable_expectation_factorizes():
    value = exponential_expectation(lambda x, y: x * y, 0.5, 0.25, 1e-10)
    assert value == pytest.approx(8.0, rel=1e-10)


def test_curved_upper_bound_is_mapped_not_masked():
    # P(y < x^2) for unit rates: int e^-x (1 - e^-x^2) dx.
    value = exponential_expectation(lambda x, y: 1.0, 1.0, 1.0, 1e-10, y_upper=np.square)
    expected = 1.0 - 0.5 * math.sqrt(math.pi) * math.exp(0.25) * math.erfc(0.5)
    assert value == pytest.approx(expected, rel=1e-10)


def test_oracle_reports_region_of_a_miss():
    region = RegionSpec("diverging", pu_upper=1.0)
    with pytest.raises(OracleAccuracyError, match=r"inner .*\(diverging\)"):
        restricted_expectation(lambda x, y: 1.0 / y, region, 1.0, 1.0)


# ------------------------------------------------------ against QUADPACK


REFERENCE_POINTS = {
    "0 dB": (0.0, 0.0),
    "20 dB": (20.0, 20.0),
    "40 dB": (40.0, 40.0),
    "asymmetric": (51.217, 31.017),
}


@pytest.mark.parametrize("label", sorted(REFERENCE_POINTS))
def test_region_integrals_match_nested_quadpack(label):
    scenario = ScenarioConfig.from_snr_db(*REFERENCE_POINTS[label])
    lam_pu, lam_su = scenario.lambda_pu, scenario.lambda_su
    for name, region, scalar, vector in case_integrals(scenario.theta):
        value = restricted_expectation(vector, region, lam_pu, lam_su)
        reference = reference_expectation(scalar, region, lam_pu, lam_su)
        assert value == pytest.approx(reference, rel=1e-10), name


@pytest.mark.parametrize("primary_db", [90.0, 100.0])
def test_strong_primary_band_regions_match_nested_quadpack(primary_db):
    # At (100, 0) dB the band regions hug x = theta, a 1e-10 sliver of the
    # primary's decay length.
    scenario = ScenarioConfig.from_snr_db(primary_db, 0.0)
    lam_pu, lam_su = scenario.lambda_pu, scenario.lambda_su
    for name, region, scalar, vector in case_integrals(scenario.theta):
        if name in ("reduced", "preferred"):
            value = restricted_expectation(vector, region, lam_pu, lam_su)
            reference = reference_expectation(scalar, region, lam_pu, lam_su)
            assert value == pytest.approx(reference, rel=1e-10), name


def test_boosted_60db_scenario_matches_nested_quadpack():
    scenario = boosted_60db()
    lam_pu, lam_su = scenario.lambda_pu, scenario.lambda_su
    for name, region, scalar, vector in case_integrals(scenario.theta):
        value = restricted_expectation(vector, region, lam_pu, lam_su)
        reference = reference_expectation(scalar, region, lam_pu, lam_su)
        assert value == pytest.approx(reference, rel=1e-10), name


def test_band_corner_power_scale_matches_nested_quadpack():
    # The power scale (x/theta - 1)/y of mean_power_factor_oracle is 1 at
    # the band's lower edge and the edge meets y = 0 at x = theta, so the
    # slices near the corner integrate a 1/y peak of growing height.
    scenario = ScenarioConfig.from_snr_db(20.0, 20.0)
    theta = scenario.theta
    band = case_regions(theta)["band"]
    value = restricted_expectation(
        lambda x, y: (x / theta - 1.0) / y, band, scenario.lambda_pu, scenario.lambda_su
    )
    reference = reference_expectation(
        lambda x, y: (x / theta - 1.0) / y, band, scenario.lambda_pu, scenario.lambda_su
    )
    assert value == pytest.approx(reference, rel=1e-10)
