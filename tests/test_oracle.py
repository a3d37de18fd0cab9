"""Tests for the adaptive-integration oracle.

Closed-form values used below come from hand algebra on exponential
integrals (noted inline); the protocol-level numbers are cross-checked
structurally (region partitions, dominance, internal consistency) and
against direct numpy sampling, never against the quadrature route this
oracle exists to audit.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from crul import cli, oracle
from crul.analytic import DEFAULT_NODES, preferred_order_term, reduced_power_term
from crul.channel import ScenarioConfig
from crul.montecarlo import McConfig, draw_chunk, sample_point
from crul.oracle import (
    FULL_QUADRANT,
    TERMS,
    OracleAccuracyError,
    RegionSpec,
    case_regions,
    case_terms,
    ergodic_delta_oracle,
    ergodic_rate_oracle,
    expected_clean_rate,
    mean_power_factor_oracle,
    region_probability,
    restricted_expectation,
)
from crul.panels import REL_TOL, exponential_expectation
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
    switch_level,
    tolerance_level,
)
from crul.specfun import gauss_laguerre

THETA = 2.0**2.5 - 1.0  # default scenario threshold


def scenario(primary_db, secondary_db):
    return ScenarioConfig.from_snr_db(primary_db, secondary_db)


def classified(gamma_pu, gamma_su, theta):
    workspace = Workspace(gamma_pu.size)
    cells = sic_case_array(gamma_pu, gamma_su, theta, workspace)
    return CellDraws(gamma_pu, gamma_su, theta, cells, workspace)


def in_region(region, gamma_pu, gamma_su):
    """Which draws the region's slice bounds hold, along the region's axis."""
    if region.axis == "primary":
        sliced, other = gamma_pu, gamma_su
        bounds = region.pu_lower, region.pu_upper, region.su_lower, region.su_upper
    else:
        sliced, other = gamma_su, gamma_pu
        bounds = region.su_lower, region.su_upper, region.pu_lower, region.pu_upper
    lower, upper, other_lower, other_upper = (
        bound(sliced) if callable(bound) else bound for bound in bounds
    )
    return within(sliced, lower, upper) & within(other, other_lower, other_upper)


def within(values, lower, upper):
    lower = 0.0 if lower is None else np.maximum(0.0, lower)
    return (lower <= values) & (values < (np.inf if upper is None else upper))


# ------------------------------------------------- plumbing & hand algebra


def test_half_mass_region():
    # P(gamma_pu < ln 2) with unit rate = 1 - exp(-ln 2) = 1/2.
    region = RegionSpec("low primary", pu_upper=math.log(2.0))
    assert region_probability(region, 1.0, 1.0) == pytest.approx(0.5, rel=1e-9)


def test_full_quadrant_moments():
    # E[gamma_su] = 1/lambda_su and E[gamma_pu * gamma_su] factorizes.
    assert restricted_expectation(lambda x, y: y, FULL_QUADRANT, 0.5, 0.04) == pytest.approx(
        25.0, rel=1e-8
    )
    assert restricted_expectation(
        lambda x, y: x * y, FULL_QUADRANT, 0.5, 0.25
    ) == pytest.approx(8.0, rel=1e-8)


def test_qos_region_probability_closed_form():
    # P(gamma_pu > theta*(1+gamma_su)) integrates in one line:
    # exp(-lambda_pu*theta) * lambda_su / (lambda_su + lambda_pu*theta).
    for lam_pu, lam_su in ((0.01, 0.04), (1.0, 0.2), (0.1, 0.1)):
        expected = (
            math.exp(-lam_pu * THETA) * lam_su / (lam_su + lam_pu * THETA)
        )
        clear = case_regions(THETA)["clear"]
        assert region_probability(clear, lam_pu, lam_su) == pytest.approx(
            expected, rel=1e-8
        )


def test_below_threshold_probability_closed_form():
    region = case_regions(THETA)["below"]
    for lam_pu in (0.01, 0.3, 2.0):
        assert region_probability(region, lam_pu, 0.04) == pytest.approx(
            1.0 - math.exp(-lam_pu * THETA), rel=1e-9
        )


@pytest.mark.parametrize(
    "protocol,count", [(ProtocolKind.CR_RSMA, 3), (ProtocolKind.CR_SIC, 4)]
)
def test_case_regions_partition_probability(protocol, count):
    regions = [case_regions(THETA)[name] for name in TERMS[protocol]]
    assert len(regions) == count
    for lam_pu, lam_su in ((0.01, 0.04), (0.5, 0.1)):
        probs = [region_probability(r, lam_pu, lam_su) for r in regions]
        assert all(p >= 0.0 for p in probs)
        assert math.fsum(probs) == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize(
    "primary_db,secondary_db,rate_threshold",
    [(0.0, 0.0, 2.5), (20.0, 20.0, 2.5), (40.0, 10.0, 0.5), (10.0, 40.0, 6.0),
     (51.217, 31.017, 2.5), (30.0, 30.0, 0.0)],
)
def test_region_slices_hold_exactly_the_classified_draws(
    primary_db, secondary_db, rate_threshold
):
    """The oracle's regions (sliced with the level functions) and the Monte
    Carlo cells (decided by the product comparisons) are one partition."""
    config = ScenarioConfig.from_snr_db(
        primary_db, secondary_db, rate_threshold=rate_threshold
    )
    draws = draw_chunk(config, 3, 0, 100_000)
    gamma_pu, gamma_su, cells = draws.gamma_pu, draws.gamma_su, draws.cells
    regions = case_regions(config.theta)
    for cell, name in enumerate(TERMS[ProtocolKind.CR_SIC]):
        assert np.array_equal(in_region(regions[name], gamma_pu, gamma_su), cells == cell)
    cases = rsma_case_array(cells)
    for case, name in enumerate(TERMS[ProtocolKind.CR_RSMA]):
        assert np.array_equal(in_region(regions[name], gamma_pu, gamma_su), cases == case)


def test_zero_threshold_regions_degenerate_cleanly():
    regions = case_regions(0.0)
    clear = regions.pop("clear")
    assert all(region_probability(r, 0.1, 0.1) == 0.0 for r in regions.values())
    assert region_probability(clear, 0.1, 0.1) == pytest.approx(1.0, rel=1e-9)
    assert not any(in_region(r, 1.0, 1.0) for r in regions.values())
    assert in_region(clear, 1.0, 1.0)


def test_rsma_region_probabilities_match_closed_forms_on_a_wide_grid():
    """Below threshold, the band and the tolerant region have one-line
    closed forms.  With the outer panels on the primary's decay length
    alone, strong primaries lost the band's mass near x = theta: 0.0 for
    the band, and a power scale above 1."""
    grid = itertools.product(
        (-20.0, 20.0, 50.0, 80.0, 100.0), (-20.0, 0.0, 40.0, 80.0), (0.05, 2.5, 8.0)
    )
    misses = []
    for primary_db, secondary_db, rate_threshold in [*grid, (20.0, -20.0, 0.5)]:
        config = ScenarioConfig.from_snr_db(
            primary_db, secondary_db, rate_threshold=rate_threshold
        )
        lam_pu, lam_su, theta = config.lambda_pu, config.lambda_su, config.theta
        clear = math.exp(-lam_pu * theta)
        expected = (
            -math.expm1(-lam_pu * theta),
            clear * lam_pu * theta / (lam_su + lam_pu * theta),
            clear * lam_su / (lam_su + lam_pu * theta),
        )
        for name, value in zip(TERMS[ProtocolKind.CR_RSMA], expected):
            region = case_regions(theta)[name]
            got = region_probability(region, lam_pu, lam_su)
            if not abs(got - value) <= max(1e-7 * value, 1e-12):
                misses.append((primary_db, secondary_db, rate_threshold, region.description))
        if not mean_power_factor_oracle(config) <= 1.0:
            misses.append((primary_db, secondary_db, rate_threshold, "mean power scale"))
    assert not misses


@pytest.mark.parametrize("primary_db", [80.0, 90.0, 100.0])
def test_strong_primary_band_terms_match_the_fixed_order_route(primary_db):
    """The band's mass sits within a few units of theta, where all 21 outer
    nodes can miss it.  The reduced-power kernel's bracket is O(lambda_pu)
    in sum, so the fixed-order term keeps its digits only if the bracket
    does not cancel O(1) pieces (3e-7, 2e-6 and 7e-5 relative when it did)."""
    config = scenario(primary_db, 0.0)
    rule = gauss_laguerre(DEFAULT_NODES)
    terms = case_terms(ProtocolKind.CR_SIC, config)
    assert terms["preferred"] == pytest.approx(preferred_order_term(config, rule), rel=1e-6)
    assert terms["reduced"] == pytest.approx(
        reduced_power_term(config, rule), rel=1e-9, abs=0.0
    )
    assert terms["reduced"] > 0.0


def test_restricted_expectation_validation():
    with pytest.raises(ValueError):
        restricted_expectation(lambda x, y: 1.0, FULL_QUADRANT, 0.0, 1.0)
    with pytest.raises(ValueError, match="slicing axis"):
        restricted_expectation(lambda x, y: 1.0, RegionSpec("tilted", axis="x"), 1.0, 1.0)


def test_secondary_slicing_passes_the_integrand_its_arguments_in_order():
    # E[x ; y < 1] and E[y ; y < 1] for unit rates, sliced along y:
    # 1 - 1/e and 1 - 2/e.
    region = RegionSpec("low secondary", su_upper=1.0, axis="secondary")
    mass = -math.expm1(-1.0)
    assert restricted_expectation(lambda x, y: x, region, 1.0, 1.0) == pytest.approx(
        mass, rel=1e-10
    )
    assert restricted_expectation(lambda x, y: y, region, 1.0, 1.0) == pytest.approx(
        1.0 - 2.0 / math.e, rel=1e-10
    )
    assert restricted_expectation(lambda x, y: x, region, 2.0, 1.0) == pytest.approx(
        0.5 * mass, rel=1e-10
    )


# ------------------------------------------------------- ergodic rates


def test_clean_rate_closed_form():
    # E[log2(1+gamma)] = exp(lam) E1(lam) / ln 2; E1(1) frozen from
    # mpmath: 0.21938393439552027.
    expected = math.e * 0.21938393439552027 / math.log(2.0)
    assert expected_clean_rate(1.0) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError):
        expected_clean_rate(0.0)


def scaled_e1(mu):
    """``exp(mu) E1(mu)``, which is ``E[ln(1 + g)]`` for an exponential ``g``
    of rate ``mu``: scipy's ``exp1`` up to 500, where ``exp(mu)`` is finite,
    and the asymptotic series ``sum (-1)^k k! / mu^(k+1)`` beyond, whose
    40th term there is 1e-63 of the sum."""
    if mu <= 500.0:
        return math.exp(mu) * scipy.special.exp1(mu)
    term, total = 1.0 / mu, 0.0
    for k in range(1, 40):
        total += term
        term *= -k / mu
    return total


# A strong primary over a weak secondary: y / (1 + x) is far below an ulp
# of one, and log2(1 + r) formed as written would round it away.
TINY_RATIO_POINTS = [
    (primary_db, secondary_db)
    for primary_db in (70.0, 90.0, 100.0)
    for secondary_db in (-100.0, -60.0, -40.0, -20.0)
] + [(20.0, -100.0)]


@pytest.mark.parametrize("primary_db,secondary_db", TINY_RATIO_POINTS)
def test_benchmarks_keep_the_digits_of_a_tiny_ratio(primary_db, secondary_db):
    # With g = scaled_e1: E[log2(1 + y/(1 + x))] = lp (g(lp) - g(ls)) / ((ls - lp) ln 2),
    # and the QoS gate x >= theta (1 + y) leaves
    # E[log2(1 + y) exp(-lp theta (1 + y))] = exp(-lp theta) ls g(mu) / (mu ln 2),
    # mu = ls + lp theta.
    config = scenario(primary_db, secondary_db)
    lp, ls, theta = config.lambda_pu, config.lambda_su, config.theta
    ln2 = math.log(2.0)
    csi = lp * (scaled_e1(lp) - scaled_e1(ls)) / ((ls - lp) * ln2)
    mu = ls + lp * theta
    qos = math.exp(-lp * theta) * ls / mu * scaled_e1(mu) / ln2
    for protocol, expected in ((ProtocolKind.BENCH_CSI, csi), (ProtocolKind.BENCH_QOS, qos)):
        value = ergodic_rate_oracle(protocol, config)
        assert value == pytest.approx(expected, rel=1e-9, abs=0.0), protocol


@pytest.mark.parametrize("rate_parameter", [1e-10, 4e10])
def test_clean_rate_keeps_the_digits_of_a_tiny_snr(rate_parameter):
    expected = scaled_e1(rate_parameter) / math.log(2.0)
    assert expected_clean_rate(rate_parameter) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_mean_power_factor_matches_direct_sampling():
    config = scenario(20.0, 20.0)
    value = mean_power_factor_oracle(config)
    rng = np.random.Generator(np.random.Philox(2024))
    gamma_pu = rng.exponential(1.0 / config.lambda_pu, size=400_000)
    gamma_su = rng.exponential(1.0 / config.lambda_su, size=400_000)
    draws = classified(gamma_pu, gamma_su, config.theta)
    sample = sic_power_factor_array(draws, np.empty(400_000))
    stderr = float(sample.std(ddof=1)) / math.sqrt(sample.size)
    assert abs(value - float(sample.mean())) < 4.0 * stderr
    assert 0.0 < value <= 1.0


def test_rates_match_direct_sampling_at_one_point():
    """One end-to-end spot check per protocol against raw numpy sampling."""
    config = scenario(10.0, 15.0)
    rng = np.random.Generator(np.random.Philox(77))
    n = 400_000
    gamma_pu = rng.exponential(1.0 / config.lambda_pu, size=n)
    gamma_su = rng.exponential(1.0 / config.lambda_su, size=n)
    draws = classified(gamma_pu, gamma_su, config.theta)
    samples = {
        ProtocolKind.CR_RSMA: rsma_rate_arrays(draws, np.empty(n)),
        ProtocolKind.CR_SIC: sic_rate_arrays(draws, np.empty(n)),
        ProtocolKind.BENCH_CSI: csi_rate_array(draws),
        ProtocolKind.BENCH_QOS: qos_rate_array(draws, np.empty(n)),
    }
    for protocol, values in samples.items():
        oracle_value = ergodic_rate_oracle(protocol, config)
        stderr = float(values.std(ddof=1)) / math.sqrt(n)
        assert abs(oracle_value - float(values.mean())) < 4.0 * stderr, protocol


@pytest.mark.parametrize("primary_db,secondary_db", [(0.0, 0.0), (20.0, 20.0), (40.0, 40.0)])
def test_protocol_ordering(primary_db, secondary_db):
    config = scenario(primary_db, secondary_db)
    rsma = ergodic_rate_oracle(ProtocolKind.CR_RSMA, config)
    sic = ergodic_rate_oracle(ProtocolKind.CR_SIC, config)
    csi = ergodic_rate_oracle(ProtocolKind.BENCH_CSI, config)
    qos = ergodic_rate_oracle(ProtocolKind.BENCH_QOS, config)
    assert rsma >= sic - 1e-9
    assert sic >= csi - 1e-9
    assert sic >= qos - 1e-9


def test_delta_oracle_equals_difference_of_totals():
    config = scenario(10.0, 20.0)
    delta = ergodic_delta_oracle(config)
    difference = ergodic_rate_oracle(ProtocolKind.CR_RSMA, config) - ergodic_rate_oracle(
        ProtocolKind.CR_SIC, config
    )
    assert delta == pytest.approx(difference, abs=1e-8)
    assert delta >= 0.0


def test_power_normalized_variant_boosts_the_secondary():
    config = scenario(20.0, 20.0)
    norm = ergodic_rate_oracle(ProtocolKind.CR_SIC_NORM, config)
    plain = ergodic_rate_oracle(ProtocolKind.CR_SIC, config)
    # the control law saves power (factor < 1), so handing it back helps
    assert norm > plain


def test_high_snr_localized_mass_is_not_lost():
    """The regression that motivated panelized integration: at 40 dB the
    reduced-power region's mass hides in ~1e-3 of the truncated range and
    naive end-to-end quadrature silently returns ~0."""
    config = scenario(40.0, 40.0)
    reduced = case_regions(config.theta)["reduced"]
    value = restricted_expectation(
        lambda x, y: np.log2(x / config.theta),
        reduced,
        config.lambda_pu,
        config.lambda_su,
    )
    # direct sampling puts this term near 0.0534 with stderr ~4e-4
    rng = np.random.Generator(np.random.Philox(5))
    gamma_pu = rng.exponential(1.0 / config.lambda_pu, size=2_000_000)
    gamma_su = rng.exponential(1.0 / config.lambda_su, size=2_000_000)
    mask = classified(gamma_pu, gamma_su, config.theta).cells == 1
    sample = np.where(mask, np.log2(np.where(mask, gamma_pu, 1.0) / config.theta), 0.0)
    stderr = float(sample.std(ddof=1)) / math.sqrt(sample.size)
    assert abs(value - float(sample.mean())) < 4.0 * stderr
    assert value > 0.01


@pytest.mark.parametrize("primary_db", [10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
def test_power_normalized_sic_with_secondary_at_60db(primary_db):
    """The boosted secondary spans ~1e8 on the inner axis; before the inner
    axis had panels every one of these raised OracleAccuracyError."""
    argv = ["point", "--gamma0-pu", str(primary_db), "--gamma0-su", "60",
            "--protocol", "cr-sic-norm", "--method", "analytic,oracle"]
    settings = cli.resolve_settings(cli.build_parser().parse_args(argv))
    rows = cli.make_rows(settings, [(primary_db, 60.0)])
    assert [row.split(",")[3] for row in rows] == ["analytic", "oracle"]
    values = [float(row.split(",")[4]) for row in rows]
    assert all(math.isfinite(value) and value > 0.0 for value in values)


def test_power_normalized_sic_at_60db_matches_sampling():
    config = scenario(40.0, 60.0)
    estimates, _ = sample_point(config, McConfig(n_samples=100_000), [ProtocolKind.CR_SIC_NORM])
    sampled = estimates[ProtocolKind.CR_SIC_NORM]
    value = ergodic_rate_oracle(ProtocolKind.CR_SIC_NORM, config)
    assert abs(value - sampled.value) < 4.0 * sampled.stderr


def test_one_point_integrates_each_region_once(monkeypatch):
    """Every protocol by analytic and oracle at one point needs 13 region
    integrals: 3 for the mean power scale, 3 rate-splitting terms, the 2
    SIC terms of its own at the point and 4 at its power-normalized twin,
    1 for the CSI benchmark.  The SIC below-threshold and clear-channel
    terms are the rate-splitting ones; the QoS benchmark and the term
    arbitration reuse the terms too."""
    oracle._case_term.cache_clear()
    oracle.mean_power_factor_oracle.cache_clear()
    calls = []
    integrate = oracle.restricted_expectation

    def counting(*args, **kwargs):
        calls.append(args[1].description)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(oracle, "restricted_expectation", counting)
    argv = ["point", "--gamma0", "20", "--method", "analytic,oracle"]
    settings = cli.resolve_settings(cli.build_parser().parse_args(argv))
    rows = cli.make_rows(settings, [(20.0, 20.0)])
    assert len(rows) == 8
    assert len(calls) <= 13, calls


# ------------------------------------------- slicing the split band along y


def test_preferred_cell_of_a_strong_secondary_is_not_silently_zero():
    """At (100, 90) dB with a 0.01 bit/s/Hz target, the preferred cell sits
    in ``x < ~3e3`` of a primary whose decay length is 1e10.  Sliced along
    ``x`` its outer nodes all missed it and the term came out 0.0 with zero
    error estimate; the reference here is nested QUADPACK sliced along
    ``x``, with each inner slice split at the log's knee ``y ~ 1 + x``."""
    config = ScenarioConfig.from_snr_db(100.0, 90.0, rate_threshold=0.01)
    lam_pu, lam_su, theta = config.lambda_pu, config.lambda_su, config.theta

    def quad(f, edges):
        return math.fsum(
            scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )

    def inner(x):
        # y = switch_level(x) + u/lam_su, so u carries the unit exponential.
        start = switch_level(x, theta)
        rate = lambda u: math.log2(1.0 + (start + u / lam_su) / (1.0 + x)) * math.exp(-u)
        knees = [lam_su * (1.0 + x) * 10.0**k for k in range(20)]
        return quad(rate, [0.0, *(u for u in knees if u < 1.0), 1.0, 80.0]) * math.exp(
            -lam_su * start
        )

    # Past x_max the slices start 80 decay lengths of the secondary out.
    x_max = theta + math.sqrt(80.0 * theta / lam_su)
    edges = [theta + 2.0**k - 1.0 for k in range(64) if theta + 2.0**k - 1.0 < x_max]
    reference = quad(lambda x: inner(x) * lam_pu * math.exp(-lam_pu * x), [*edges, x_max])
    assert reference == pytest.approx(2.2185841577e-06, rel=1e-10)
    preferred = case_terms(ProtocolKind.CR_SIC, config)["preferred"]
    assert preferred == pytest.approx(reference, rel=1e-8)


def agreement_scenarios():
    """The figure2 diagonal, the figure3 line, their power-normalized twins
    and the benchmark's eight off-diagonal points."""
    figure2 = [scenario(db, db) for db in range(0, 41, 2)]
    figure3 = [scenario(db, 20.0) for db in range(0, 61, 2)]
    twins = [oracle.normalized(config) for config in figure2 + figure3]
    asym = [scenario(pu, su) for pu, su in (
        (3.037, 35.959), (9.775, 27.691), (19.375, 38.77), (26.285, 29.705),
        (35.669, 25.546), (39.379, 33.774), (52.371, 43.526), (59.266, 39.775),
    )]
    return figure2 + figure3 + twins + asym


def test_split_band_along_y_matches_the_band_sliced_along_x():
    """The band, its two pure-SIC cells and the power scale's band piece,
    sliced along the secondary SNR by the oracle, against the same
    integrals sliced along the primary with the level functions as slice
    bounds (how the oracle sliced them before, 4.4e-13 apart at most)."""
    misses = []
    for config in agreement_scenarios():
        lam_pu, lam_su, theta = config.lambda_pu, config.lambda_su, config.theta
        tolerance = lambda x: tolerance_level(x, theta)
        switch = lambda x: switch_level(x, theta)
        rsma = case_terms(ProtocolKind.CR_RSMA, config)
        sic = case_terms(ProtocolKind.CR_SIC, config)
        scale = lambda x, y: tolerance_level(x, theta) / y
        checks = (
            ("band", rsma["band"], lambda x, y: np.log2((1.0 + x + y) / (1.0 + theta)),
             tolerance, None),
            ("reduced", sic["reduced"], lambda x, y: np.log2(x / theta), tolerance, switch),
            ("preferred", sic["preferred"], lambda x, y: np.log2(1.0 + y / (1.0 + x)),
             switch, None),
            ("power scale", restricted_expectation(
                scale, case_regions(theta)["band"], lam_pu, lam_su
            ), scale, tolerance, None),
        )
        for name, value, integrand, lower, upper in checks:
            reference = exponential_expectation(
                integrand, lam_pu, lam_su, REL_TOL, x_lower=theta, y_lower=lower, y_upper=upper
            )
            if not abs(value - reference) <= 1e-10 * abs(reference):
                misses.append((lam_pu, lam_su, theta, name, value, reference))
    assert not misses
