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

from crul import cli, oracle
from crul.analytic import AnalyticParams, preferred_order_term, reduced_power_term
from crul.channel import ScenarioConfig, sample_snrs
from crul.montecarlo import McConfig, chunk_stream, estimate
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

THETA = 2.0**2.5 - 1.0  # default scenario threshold


def scenario(primary_db, secondary_db):
    return ScenarioConfig.from_snr_db(primary_db, secondary_db)


def classified(gamma_pu, gamma_su, theta):
    return CellDraws(gamma_pu, gamma_su, theta, sic_case_array(gamma_pu, gamma_su, theta))


def in_region(region, gamma_pu, gamma_su):
    """Which draws the region's slice bounds hold."""
    low = 0.0 if region.su_lower is None else np.maximum(0.0, region.su_lower(gamma_pu))
    high = np.inf if region.su_upper is None else region.su_upper(gamma_pu)
    return (
        (region.pu_lower <= gamma_pu)
        & (gamma_pu < region.pu_upper)
        & (low <= gamma_su)
        & (gamma_su < high)
    )


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
    gamma_pu, gamma_su = sample_snrs(config, chunk_stream(3, 0), 100_000)
    cells = sic_case_array(gamma_pu, gamma_su, config.theta)
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
    params = AnalyticParams.from_scenario(config)
    terms = case_terms(ProtocolKind.CR_SIC, config)
    assert terms["preferred"] == pytest.approx(preferred_order_term(params), rel=1e-6)
    assert terms["reduced"] == pytest.approx(reduced_power_term(params), rel=1e-9, abs=0.0)
    assert terms["reduced"] > 0.0


def test_restricted_expectation_validation():
    with pytest.raises(ValueError):
        restricted_expectation(lambda x, y: 1.0, FULL_QUADRANT, 0.0, 1.0)


# ------------------------------------------------------- ergodic rates


def test_clean_rate_closed_form():
    # E[log2(1+gamma)] = exp(lam) E1(lam) / ln 2; E1(1) frozen from
    # mpmath: 0.21938393439552027.
    expected = math.e * 0.21938393439552027 / math.log(2.0)
    assert expected_clean_rate(1.0) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError):
        expected_clean_rate(0.0)


def test_mean_power_factor_matches_direct_sampling():
    config = scenario(20.0, 20.0)
    value = mean_power_factor_oracle(config)
    rng = np.random.Generator(np.random.Philox(2024))
    gamma_pu = rng.exponential(1.0 / config.lambda_pu, size=400_000)
    gamma_su = rng.exponential(1.0 / config.lambda_su, size=400_000)
    sample = sic_power_factor_array(classified(gamma_pu, gamma_su, config.theta))
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
        ProtocolKind.CR_RSMA: rsma_rate_arrays(draws),
        ProtocolKind.CR_SIC: sic_rate_arrays(draws),
        ProtocolKind.BENCH_CSI: csi_rate_array(draws),
        ProtocolKind.BENCH_QOS: qos_rate_array(draws),
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
    mask = sic_case_array(gamma_pu, gamma_su, config.theta) == 1
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
    sampled = estimate(ProtocolKind.CR_SIC_NORM, config, McConfig(n_samples=100_000))
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
