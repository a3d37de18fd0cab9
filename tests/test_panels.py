"""Tests for the Gauss-Kronrod panel integrator.

The rules are checked for polynomial exactness, the 1-D integral against
closed forms, and the 2-D region integrals against a slow reference made
of nested ``scipy.integrate.quad`` calls (QUADPACK, one Python callback
per point).  That reference was the oracle's implementation before the
panel integrator replaced it; here its inner axis is also cut into the
geometric panels, without which it cannot integrate the boosted 60 dB
scenario at all.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from crul import oracle, panels
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
from crul.protocols import ProtocolKind


def reference_expectation(integrand, region, lambda_pu, lambda_su, rel_tol=1e-9):
    """``E[integrand ; region]`` by nested adaptive QUADPACK quadrature.

    Scalar integrand, taking the primary SNR as its offset from the
    region's ``pu_origin`` as the oracle's do; the outer integral runs
    over the region's sliced SNR, and both axes are cut into the
    geometric panels, the inner ones starting at each slice's lower bound.  The outer panels start from
    the shorter of the two decay lengths: a slice's mass can decay along
    the outer axis at the inner rate, and QUADPACK pays for finding that
    with thousands of inner integrations.
    """
    if region.axis == "primary":
        f, rate_outer, rate_inner = integrand, lambda_pu, lambda_su
        bounds = region.pu_lower, region.pu_upper, region.su_lower, region.su_upper
    else:
        f, rate_outer, rate_inner = (lambda s, t: integrand(t, s)), lambda_su, lambda_pu
        bounds = region.su_lower, region.su_upper, region.pu_lower, region.pu_upper
    lower, upper, inner_lower, inner_upper = bounds
    lower = 0.0 if lower is None else lower
    upper = math.inf if upper is None else upper
    horizon = tail_horizon(rel_tol)
    offsets = geometric_edges(0.0, horizon / rate_inner, 1.0 / rate_inner)

    def inner(s):
        low = 0.0 if inner_lower is None else max(0.0, inner_lower(s))
        high = math.inf if inner_upper is None else inner_upper(s)
        high = min(high, low + offsets[-1])
        total = 0.0
        for a, b in zip(offsets[:-1], offsets[1:]):
            a, b = low + a, min(low + b, high)
            if not b > a:
                break
            value, abserr, *_ = scipy.integrate.quad(
                lambda t: f(s, t) * rate_inner * math.exp(-rate_inner * t),
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

    outer_high = min(upper, lower + horizon / rate_outer)
    if not outer_high > lower:
        return 0.0
    scale = 1.0 / max(lambda_pu, lambda_su)
    edges = geometric_edges(lower, outer_high, scale)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        value, _, *_ = scipy.integrate.quad(
            lambda s: inner(s) * rate_outer * math.exp(-rate_outer * s),
            a,
            b,
            epsabs=0.0,
            epsrel=rel_tol / 2.0,
            limit=100,
            full_output=1,
        )
        total += value
    return math.exp(-lambda_pu * region.pu_origin) * total


def boosted_60db():
    """The power-normalized twin of (40, 60) dB: secondary boosted past 60 dB."""
    return oracle.normalized(ScenarioConfig.from_snr_db(40.0, 60.0))


def case_integrals(theta):
    """(name, region, scalar integrand, array integrand) of each rate region,
    the integrands taking the primary SNR from the region's origin."""
    regions = case_regions(theta)
    limited = (lambda x, y: math.log2(1.0 + y / (1.0 + x)),
               lambda x, y: np.log2(1.0 + y / (1.0 + x)))
    absolute = [
        ("below", regions["below"], *limited),
        ("band", regions["band"], lambda x, y: math.log2((1.0 + x + y) / (1.0 + theta)),
         lambda x, y: np.log2((1.0 + x + y) / (1.0 + theta))),
        ("reduced", regions["reduced"], lambda x, y: math.log2(x / theta),
         lambda x, y: np.log2(x / theta)),
        ("preferred", regions["preferred"], *limited),
        ("clear", regions["clear"], lambda x, y: math.log2(1.0 + y), lambda x, y: np.log2(1.0 + y)),
        ("full", FULL_QUADRANT, *limited),
    ]
    return [
        (name, region, *(from_origin(f, region) for f in integrands))
        for name, region, *integrands in absolute
    ]


def from_origin(integrand, region):
    """``integrand(x, y)`` as the oracle calls it, with ``x`` offset from the
    region's ``pu_origin``."""
    return lambda u, y: integrand(region.pu_origin + u, y)


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


def test_geometric_edges_triple_and_stop_at_upper():
    edges = geometric_edges(1.0, 10.0, 8.0)
    np.testing.assert_allclose(edges, [1.0, 2.0, 5.0, 10.0])
    np.testing.assert_allclose(geometric_edges(0.0, 0.5, 8.0), [0.0, 0.5])
    # An eighth of the scale would be 125,000 wide; the first panel stops at 16.
    np.testing.assert_allclose(
        geometric_edges(0.0, 1000.0, 1e6), [0.0, 16.0, 64.0, 208.0, 640.0, 1000.0]
    )


@pytest.mark.parametrize("scale", [0.0, 5e-324, -1.0, math.inf, math.nan])
def test_geometric_edges_reject_a_scale_without_a_first_panel(scale):
    # A zero-width first panel never grows, so the edges never reach upper.
    with pytest.raises(ValueError, match="scale"):
        geometric_edges(0.0, 1.0, scale)


# ----------------------------------------------------- blocked evaluation


def whole_array_kronrod(f, rows, a, b):
    """``_kronrod`` as one pass: every panel's nodes and integrand at once."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = centre[:, None] + half[:, None] * NODES
    values = np.empty(nodes.shape)
    values[...] = f(rows, nodes)
    sums = values @ panels._RULES
    kronrod = half * sums[:, 0]
    return kronrod, np.abs(kronrod - half * sums[:, 1])


@pytest.mark.parametrize(
    "integrand",
    [lambda r, y: np.log2(1.0 + y / (1.0 + r[:, None])) * np.exp(-y), lambda r, y: 1.0],
    ids=["array", "scalar"],
)
def test_blocked_kronrod_is_bit_identical_to_one_pass(integrand):
    rng = np.random.default_rng(5)
    count = 3 * panels._BLOCK + 7
    rows = rng.integers(0, 50, count)
    a = rng.uniform(0.0, 30.0, count)
    b = a + rng.uniform(1e-6, 10.0, count)
    blocks = []

    def f(r, y):
        blocks.append(len(r))
        return integrand(r, y)

    value, error = panels._kronrod(f, rows, a, b)
    assert blocks == [panels._BLOCK] * 3 + [7]
    expected_value, expected_error = whole_array_kronrod(integrand, rows, a, b)
    assert np.array_equal(value, expected_value)
    assert np.array_equal(error, expected_error)


def spans_of_kronrod(monkeypatch):
    """Record the integrand's name and the panel count of every ``_kronrod`` call."""
    spans, kronrod = [], panels._kronrod

    def spy(f, rows, a, b):
        spans.append((getattr(f, "__name__", ""), a.size))
        return kronrod(f, rows, a, b)

    monkeypatch.setattr(panels, "_kronrod", spy)
    return spans


EXPECTATIONS = {
    "band rate": lambda scenario: restricted_expectation(
        lambda u, y: np.log2((1.0 + scenario.theta + u + y) / (1.0 + scenario.theta)),
        case_regions(scenario.theta)["band"], scenario.lambda_pu, scenario.lambda_su,
    ),
    "region probability": lambda scenario: restricted_expectation(
        lambda x, y: 1.0,
        case_regions(scenario.theta)["clear"], scenario.lambda_pu, scenario.lambda_su,
    ),
}


@pytest.mark.parametrize("name", EXPECTATIONS)
def test_expectation_is_bit_identical_to_one_pass_per_inner_batch(monkeypatch, name):
    # At 60 dB the largest inner batch spans over 2,000 panels, several blocks.
    scenario = ScenarioConfig.from_snr_db(60.0, 60.0, rate_threshold=2.5)
    spans = spans_of_kronrod(monkeypatch)
    blocked = EXPECTATIONS[name](scenario)
    inner = max(size for f, size in spans if f != "outer")
    assert inner > 2 * panels._BLOCK
    monkeypatch.setattr(panels, "_BLOCK", 10 * inner)
    assert EXPECTATIONS[name](scenario) == blocked


def test_blocked_outer_integrand_is_bit_identical_to_one_pass(monkeypatch):
    # The outer integrand's node values are inner integrations, one per
    # node of the outer panels it is given.  Blocking the outer panels
    # splits them into several inner integrations with the same values.
    # A first outer pass spans several blocks here, at small sizes, and at
    # extreme rate ratios (over 512 panels with the links at +1000 and
    # -1000 dB).
    scenario = ScenarioConfig.from_snr_db(20.0, 20.0, rate_threshold=2.5)
    monkeypatch.setattr(panels, "_BLOCK", 4)
    spans = spans_of_kronrod(monkeypatch)
    blocked = EXPECTATIONS["band rate"](scenario)
    assert max(size for f, size in spans if f == "outer") > panels._BLOCK
    monkeypatch.setattr(panels, "_BLOCK", 10**9)
    assert EXPECTATIONS["band rate"](scenario) == blocked


STRONG_LINKS = [(40.0, 40.0), (60.0, 60.0), (80.0, 80.0), (100.0, 90.0), (100.0, 100.0)]


@pytest.mark.parametrize("primary_db,secondary_db", STRONG_LINKS)
def test_strong_link_terms_take_few_bisection_rounds(monkeypatch, primary_db, secondary_db):
    # Every integrand bends within a few SNR units of the origin.  A first
    # panel of an eighth of a decay length up to 1e10 would need one
    # bisection round, one _kronrod call, per halving to reach that bend.
    config = ScenarioConfig.from_snr_db(primary_db, secondary_db)
    names = sorted({name for terms in oracle.TERMS.values() for name in terms})
    assert len(names) == 6
    spans = spans_of_kronrod(monkeypatch)
    for scenario in (config, oracle.normalized(config)):
        for name in names:
            spans.clear()
            oracle._case_term.__wrapped__(name, scenario)
            assert len(spans) <= 8, (name, scenario)


@pytest.mark.parametrize("primary_db,secondary_db", [(20.0, -100.0), (40.0, -80.0),
                                                     (60.0, -100.0), (100.0, -100.0)])
def test_weak_secondary_terms_integrate_few_slices(monkeypatch, primary_db, secondary_db):
    # The rows of _integrate_rows are the integrals it takes at once: the
    # inner slices of the outer nodes, one per node.  The band cells once
    # took up to 8,200 slices a term there, in batches to bound a call's
    # arrays; measured from theta they take a few hundred, and no term
    # more than the 1,050 slices of the primary-sliced regions.
    rows, integrate = [], panels._integrate_rows

    def spy(f, rows_of, a, b, n_rows, rel):
        rows.append(n_rows)
        return integrate(f, rows_of, a, b, n_rows, rel)

    monkeypatch.setattr(panels, "_integrate_rows", spy)
    names = sorted({name for terms in oracle.TERMS.values() for name in terms})
    for rate_th in (0.5, 2.5, 6.0):
        config = ScenarioConfig.from_snr_db(primary_db, secondary_db, rate_threshold=rate_th)
        for scenario in (config, oracle.normalized(config)):
            for name in names:
                rows.clear()
                oracle._case_term.__wrapped__(name, scenario)
                assert sum(rows) <= 1_100, (name, rate_th, scenario)


#: Panels the 10 oracle terms of a figure2 point may take, by SNR in dB.
#: Threefold panels take 5,627, 4,450 and 10,574 there; doubling ones out
#: to 65.7 decay lengths took 13,252, 10,211 and 22,657.
FIGURE2_PANEL_BUDGET = {0.0: 6_000, 20.0: 5_000, 40.0: 11_500}


@pytest.mark.parametrize("snr_db", FIGURE2_PANEL_BUDGET)
def test_figure2_point_terms_stay_within_their_panel_budget(monkeypatch, snr_db):
    config = ScenarioConfig.from_snr_db(snr_db, snr_db)
    spans = spans_of_kronrod(monkeypatch)
    # Every term at the point, and pure SIC's at its normalized twin.
    for name in {name for terms in oracle.TERMS.values() for name in terms}:
        oracle._case_term.__wrapped__(name, config)
    for name in oracle.TERMS[ProtocolKind.CR_SIC]:
        oracle._case_term.__wrapped__(name, oracle.normalized(config))
    assert sum(size for _, size in spans) <= FIGURE2_PANEL_BUDGET[snr_db]


def test_bisection_never_takes_an_integral_past_the_panel_cap(monkeypatch):
    # A wiggle no panel resolves: every round bisects every panel, so only
    # the cap stops it.  Each later _kronrod call evaluates both halves of
    # the panels it splits, adding half its size to the integral's count.
    spans = spans_of_kronrod(monkeypatch)
    edges = np.linspace(0.0, 1.0, 11)
    panels._integrate_rows(
        lambda _, x: 1.0 + 1e-6 * np.sin(1e9 * x),
        np.zeros(10, dtype=np.intp), edges[:-1], edges[1:], 1, 1e-12,
    )
    sizes = [size for _, size in spans]
    assert len(sizes) > 1
    assert sizes[0] + sum(size // 2 for size in sizes[1:]) <= panels._MAX_PANELS


# ------------------------------------------------------------ 1-D integral


@pytest.mark.parametrize("rate", [1e-8, 1e-3, 1.0, 40.0])
def test_panel_integral_of_exponential_moments(rate):
    # int t^k rate exp(-rate t) = k! / rate^k
    for k in (0, 1, 3):
        value = panel_integral(
            lambda t: t**k * rate * np.exp(-rate * t), 1.0 / rate, 1e-10
        )
        assert value == pytest.approx(math.factorial(k) / rate**k, rel=1e-10, abs=0.0)


def test_panel_integral_resolves_a_jump_by_bisection():
    value = panel_integral(lambda t: np.where(t < 1.0 / 3.0, 0.0, np.exp(-t)), 1.0, 1e-10)
    assert value == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-10)


def test_panel_integral_raises_when_it_cannot_meet_the_budget():
    # exp(-t)/t is not integrable at 0: bisection stops at the panel cap
    # with the error of the first panel still a fixed share of the value.
    with pytest.raises(QuadratureError):
        panel_integral(lambda t: np.exp(-t) / t, 1.0, 1e-9)


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


def test_oracle_term_miss_names_its_scenario(monkeypatch):
    def missing(*args, **kwargs):
        raise QuadratureError("inner quadrature error")

    monkeypatch.setattr(oracle, "exponential_expectation", missing)
    config = ScenarioConfig.from_snr_db(20.0, -100.0)
    with pytest.raises(OracleAccuracyError) as caught:
        oracle._case_term.__wrapped__("reduced", config)
    assert str(caught.value) == (
        f"inner quadrature error (reduced power) at ScenarioConfig(lambda_pu="
        f"{config.lambda_pu!r}, lambda_su={config.lambda_su!r}, theta={config.theta!r})"
    )


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
        assert value == pytest.approx(reference, rel=1e-10, abs=0.0), name


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
            assert value == pytest.approx(reference, rel=1e-10, abs=0.0), name


def test_boosted_60db_scenario_matches_nested_quadpack():
    scenario = boosted_60db()
    lam_pu, lam_su = scenario.lambda_pu, scenario.lambda_su
    for name, region, scalar, vector in case_integrals(scenario.theta):
        value = restricted_expectation(vector, region, lam_pu, lam_su)
        reference = reference_expectation(scalar, region, lam_pu, lam_su)
        assert value == pytest.approx(reference, rel=1e-10), name


def test_band_corner_power_scale_matches_nested_quadpack():
    # Pure SIC's power scale (x/theta - 1)/y on the band is 1 at
    # the band's lower edge and the edge meets y = 0 at x = theta, so the
    # slices near the corner integrate a 1/y peak of growing height.
    scenario = ScenarioConfig.from_snr_db(20.0, 20.0)
    theta = scenario.theta
    band = case_regions(theta)["band"]
    scale = from_origin(lambda x, y: (x / theta - 1.0) / y, band)
    value = restricted_expectation(scale, band, scenario.lambda_pu, scenario.lambda_su)
    reference = reference_expectation(scale, band, scenario.lambda_pu, scenario.lambda_su)
    assert value == pytest.approx(reference, rel=1e-10)
