"""Tests for the adaptive-integration oracle.

Closed-form values used below come from hand algebra on exponential
integrals (noted inline); the protocol-level numbers are cross-checked
structurally (region partitions, dominance, internal consistency) and
against direct numpy sampling, never against the quadrature route this
oracle exists to audit.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from crul import cli, oracle, validation
from crul.analytic import preferred_order_term, reduced_power_term
from crul.channel import ScenarioConfig
from crul.montecarlo import McConfig, draw_chunk, sample_point
from crul.oracle import (
    FULL_QUADRANT,
    TERMS,
    OracleAccuracyError,
    RegionSpec,
    case_regions,
    case_terms,
    ergodic_rate_oracle,
    mean_power_factor_oracle,
    restricted_expectation,
)
from crul.panels import REL_TOL, exponential_expectation, panel_integral
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
    tolerance_level,
)

THETA = 2.0**2.5 - 1.0  # default scenario threshold


def scenario(primary_db, secondary_db):
    return ScenarioConfig.from_snr_db(primary_db, secondary_db)


def switch_level(gamma_pu, theta):
    """SU SNR where pure SIC's decoding order switches at PU SNR ``gamma_pu``."""
    return (1.0 + gamma_pu) * tolerance_level(gamma_pu, theta)


def classified(gamma_pu, gamma_su, theta):
    workspace = Workspace(gamma_pu.size)
    cells = sic_case_array(gamma_pu, gamma_su, theta, workspace)
    return CellDraws(gamma_pu, gamma_su, theta, cells, workspace)


def in_region(region, gamma_pu, gamma_su):
    """Which draws the region's slice bounds hold, along the region's axis,
    with the primary SNR measured from the region's origin."""
    gamma_pu = gamma_pu - region.pu_origin
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


def region_probability(region, lambda_pu, lambda_su):
    return restricted_expectation(lambda x, y: 1.0, region, lambda_pu, lambda_su)


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
    draws = draw_chunk(config, 3, 0, 100_000, Workspace(100_000))
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
    assert regions.pop("full") is FULL_QUADRANT
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
    nodes can miss it.  The cells' derived routes, their kernels integrated
    over the primary excess, must keep their digits there too (a bracket
    that cancelled O(1) pieces of an O(lambda_pu) result was 3e-7, 2e-6 and
    7e-5 relative off)."""
    config = scenario(primary_db, 0.0)
    terms = case_terms(ProtocolKind.CR_SIC, config)
    assert terms["preferred"] == pytest.approx(preferred_order_term(config), rel=1e-9, abs=0.0)
    assert terms["reduced"] == pytest.approx(reduced_power_term(config), rel=1e-9, abs=0.0)
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


def test_every_protocol_but_the_normalized_one_has_terms():
    # The power-normalized protocol is pure SIC at the boosted scenario.
    assert set(TERMS) == set(ProtocolKind) - {ProtocolKind.CR_SIC_NORM}


@pytest.mark.parametrize(
    "primary_db,secondary_db,rate_threshold",
    [(20.0, 20.0, 2.5), (40.0, 10.0, 0.5), (30.0, 30.0, 0.0)],
)
def test_benchmark_oracles_are_their_one_memoised_term(
    monkeypatch, primary_db, secondary_db, rate_threshold
):
    config = ScenarioConfig.from_snr_db(primary_db, secondary_db, rate_threshold=rate_threshold)
    quadrant = restricted_expectation(
        lambda x, y: oracle._interference_limited(x, y, config.theta),
        FULL_QUADRANT, config.lambda_pu, config.lambda_su,
    )
    clear = case_terms(ProtocolKind.CR_RSMA, config)["clear"]
    assert ergodic_rate_oracle(ProtocolKind.BENCH_CSI, config) == quadrant
    assert ergodic_rate_oracle(ProtocolKind.BENCH_QOS, config) == clear
    monkeypatch.setattr(oracle, "restricted_expectation", lambda *args: pytest.fail("integrated"))
    assert ergodic_rate_oracle(ProtocolKind.BENCH_CSI, config) == quadrant


@pytest.mark.parametrize("rate_parameter", [1.0, 1e-10, 4e10])
def test_clean_rate_closed_form(rate_parameter):
    # With no rate target the QoS gate admits every draw, so its rate is
    # E[log2(1 + gamma_su)] = exp(lam) E1(lam) / ln 2, whose digits a tiny
    # SNR (lam = 4e10) loses if 1 + gamma is rounded.
    config = ScenarioConfig(1.0, rate_parameter, 0.0)
    expected = scaled_e1(rate_parameter) / math.log(2.0)
    value = ergodic_rate_oracle(ProtocolKind.BENCH_QOS, config)
    assert value == pytest.approx(expected, rel=1e-9, abs=0.0)


def expected_clean_rate(rate_parameter):
    """``E[log2(1 + gamma)]`` as one integral over the exponential SNR."""
    return panel_integral(
        lambda y: np.log1p(y) / math.log(2.0) * rate_parameter * np.exp(-rate_parameter * y),
        1.0 / rate_parameter, REL_TOL,
    )


@pytest.mark.parametrize("primary_db,secondary_db", [(60.0, 20.0), (0.0, 0.0), (20.0, -100.0)])
def test_unconstrained_qos_rate_is_the_one_dimensional_clean_rate(primary_db, secondary_db):
    """The strong-primary ceiling of release check 8, at its 60/20 dB point
    among others, is the QoS term with no rate target."""
    config = replace(scenario(primary_db, secondary_db), theta=0.0)
    value = ergodic_rate_oracle(ProtocolKind.BENCH_QOS, config)
    assert value == pytest.approx(expected_clean_rate(config.lambda_su), rel=1e-12, abs=0.0)


#: Pure SIC's mean power scale at the default target, frozen from mpmath
#: at 45 digits: the below-threshold and clear-channel probabilities in
#: closed form, plus the band's scale integrated over the primary SNR by
#: hand and over the secondary by ``mp.quad`` (not by Frullani's formula).
FROZEN_POWER_SCALES = {
    (20.0, -100.0): "0.999999999999444379581127237385872923",
    (20.0, -80.0): "0.999999999944437958116993020046327457",
    (-20.0, 60.0): "1.0",
    (80.0, 90.0): "0.217918416176192618334292809127093948",
    (20.0, 20.0): "0.678484198506504641406090277636040443",
}


@pytest.mark.parametrize("primary_db,secondary_db", FROZEN_POWER_SCALES)
def test_mean_power_factor_matches_mpmath(primary_db, secondary_db):
    value = mean_power_factor_oracle(scenario(primary_db, secondary_db))
    expected = float(FROZEN_POWER_SCALES[primary_db, secondary_db])
    assert value == pytest.approx(expected, rel=5e-16, abs=0.0)


def test_mean_power_factor_without_a_rate_target_is_one():
    assert mean_power_factor_oracle(ScenarioConfig(0.5, 0.04, 0.0)) == 1.0
    no_target = ScenarioConfig.from_snr_db(20.0, 20.0, rate_threshold=0.0)
    assert mean_power_factor_oracle(no_target) == 1.0


def mean_power_factor_by_regions(config):
    """The mean power scale as three region integrals: the scale is 1 below
    the threshold and on the clear channel, ``(x/theta - 1)/y`` on the band,
    written ``u/(theta*y)`` in the band's offset ``u = x - theta`` so that
    a weak secondary's slice does not cancel in ``(theta + u)/theta - 1``."""
    regions = case_regions(config.theta)
    rates = config.lambda_pu, config.lambda_su
    scaled = lambda u, y: u / (config.theta * y)
    return math.fsum((
        region_probability(regions["below"], *rates),
        region_probability(regions["clear"], *rates),
        restricted_expectation(scaled, regions["band"], *rates),
    ))


@pytest.mark.parametrize(
    "primary_db,secondary_db",
    [(0.0, 0.0), (20.0, 20.0), (40.0, 40.0), (20.0, -60.0), (-20.0, 60.0), (80.0, 90.0),
     (20.0, 60.0), (51.217, 31.017)],
)
def test_mean_power_factor_is_its_region_integrals_without_integrating(
    monkeypatch, primary_db, secondary_db
):
    config = scenario(primary_db, secondary_db)
    expected = mean_power_factor_by_regions(config)
    monkeypatch.setattr(oracle, "restricted_expectation", lambda *args: pytest.fail("integrated"))
    assert mean_power_factor_oracle(config) == pytest.approx(expected, rel=1e-12, abs=0.0)


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
        ProtocolKind.CR_RSMA: rsma_rate_arrays(draws, draws.full_power(np.empty(n))),
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


@pytest.mark.parametrize(
    "primary_db,secondary_db,rate_th",
    [(0.0, 0.0, 2.5), (10.0, 20.0, 2.5), (20.0, 20.0, 2.5), (40.0, 40.0, 2.5),
     (20.0, -20.0, 0.5), (60.0, 30.0, 6.0)],
)
def test_pure_sic_cells_tile_the_split_band(primary_db, secondary_db, rate_th):
    """The band's rate integrated over pure SIC's two cells is rate
    splitting's band term: the ergodic gap of release check 4, the band
    term less the two cell terms, rests on this tiling."""
    config = ScenarioConfig.from_snr_db(primary_db, secondary_db, rate_threshold=rate_th)
    regions = case_regions(config.theta)
    tiled = sum(
        restricted_expectation(
            lambda u, y: np.log2((1.0 + regions[name].pu_origin + u + y) / (1.0 + config.theta)),
            regions[name], config.lambda_pu, config.lambda_su,
        )
        for name in ("reduced", "preferred")
    )
    band = case_terms(ProtocolKind.CR_RSMA, config)["band"]
    assert band > 0.0
    assert tiled == pytest.approx(band, rel=1e-12, abs=0.0)


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
        lambda u, y: np.log2((reduced.pu_origin + u) / config.theta),
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


@pytest.fixture
def integral_calls(monkeypatch):
    """The region of every oracle integral made from here on, with the
    term cache cleared first."""
    oracle._case_term.cache_clear()
    calls = []
    integrate = oracle.restricted_expectation

    def counting(*args, **kwargs):
        calls.append(args[1].description)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(oracle, "restricted_expectation", counting)
    return calls


def test_one_point_integrates_each_region_once(integral_calls):
    """Every protocol by analytic and oracle at one point needs 10 region
    integrals: 3 rate-splitting terms, the 2 SIC terms of its own at the
    point and 4 at its power-normalized twin, 1 for the CSI benchmark.
    The SIC below-threshold and clear-channel terms are the rate-splitting
    ones; the QoS benchmark and the term arbitration reuse the terms too,
    and the mean power scale is a closed form."""
    argv = ["point", "--gamma0", "20", "--method", "analytic,oracle"]
    settings = cli.resolve_settings(cli.build_parser().parse_args(argv))
    rows = cli.make_rows(settings, [(20.0, 20.0)])
    assert len(rows) == 8
    assert len(integral_calls) == 10, integral_calls


def test_release_checks_integrate_only_through_the_term_cache(integral_calls):
    """Every region integral of the quick battery is a memoised term, so
    no check pays for a region the rows have already integrated."""
    results, _ = validation.run_all(2_000, quick=True)
    assert [result.id for result in results] == list(range(1, 10))
    assert len(integral_calls) == oracle._case_term.cache_info().misses, integral_calls


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
    assert reference == pytest.approx(2.2185841577e-06, rel=1e-10, abs=0.0)
    preferred = case_terms(ProtocolKind.CR_SIC, config)["preferred"]
    assert preferred == pytest.approx(reference, rel=1e-8, abs=0.0)


#: Weak-secondary scenarios, as (primary dB, secondary dB, rate target,
#: power-normalized): at -100 dB the band's primary span ``theta*y`` is
#: some 1e-11 of ``theta``.  The last is where the normalized preferred
#: term, 2.8e-19, once passed on the budget's absolute floor alone.
WEAK_SECONDARY = [
    (pu, su, rate_th, twin)
    for pu, su in ((20.0, -100.0), (40.0, -80.0), (60.0, -100.0), (100.0, -100.0))
    for rate_th in (0.5, 2.5, 6.0)
    for twin in (False, True)
] + [(40.0, -60.0, 6.0, True)]


@pytest.mark.parametrize("primary_db,secondary_db,rate_th,twin", WEAK_SECONDARY)
def test_weak_secondary_cells_match_their_kernel_integrals(primary_db, secondary_db, rate_th, twin):
    # Integrated in the primary SNR's offset from theta, the cells keep the
    # digits a slice theta*y wide at x ~ theta would lose to theta's ulp.
    config = ScenarioConfig.from_snr_db(primary_db, secondary_db, rate_threshold=rate_th)
    config = oracle.normalized(config) if twin else config
    terms = case_terms(ProtocolKind.CR_SIC, config)
    reduced = reduced_power_term(config)
    preferred = preferred_order_term(config)
    assert terms["reduced"] == pytest.approx(reduced, rel=1e-12, abs=0.0)
    assert terms["preferred"] == pytest.approx(preferred, rel=1e-12, abs=0.0)


#: Pure SIC's preferred-order term at strong links and the default target,
#: frozen from mpmath at 50 digits: the one-dimensional preferred kernel
#: over the primary excess ``v`` (``analytic._preferred_kernel``),
#: which two sets of breakpoints agreed on to 25 digits.
FROZEN_STRONG_PREFERRED = {
    (50.0, 60.0): "0.08799048718156352492911267",
    (80.0, 70.0): "0.000331393291724324893703962",
}


@pytest.mark.parametrize("primary_db,secondary_db", FROZEN_STRONG_PREFERRED)
def test_strong_link_preferred_term_matches_mpmath(primary_db, secondary_db):
    # Both links' decay lengths are 1e5 to 1e8: the first panels must still
    # resolve the kernel's bend within a few SNR units of the origin.
    preferred = case_terms(ProtocolKind.CR_SIC, scenario(primary_db, secondary_db))["preferred"]
    expected = float(FROZEN_STRONG_PREFERRED[primary_db, secondary_db])
    assert preferred == pytest.approx(expected, rel=1e-13, abs=0.0)


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
        band = case_regions(theta)["band"]
        checks = (
            ("band", rsma["band"], lambda x, y: np.log2((1.0 + x + y) / (1.0 + theta)),
             tolerance, None),
            ("reduced", sic["reduced"], lambda x, y: np.log2(x / theta), tolerance, switch),
            ("preferred", sic["preferred"], lambda x, y: np.log2(1.0 + y / (1.0 + x)),
             switch, None),
            ("power scale", restricted_expectation(
                lambda u, y: scale(band.pu_origin + u, y), band, lam_pu, lam_su
            ), scale, tolerance, None),
        )
        for name, value, integrand, lower, upper in checks:
            reference = exponential_expectation(
                integrand, lam_pu, lam_su, REL_TOL, x_lower=theta, y_lower=lower, y_upper=upper
            )
            if not abs(value - reference) <= 1e-10 * abs(reference):
                misses.append((lam_pu, lam_su, theta, name, value, reference))
    assert not misses
