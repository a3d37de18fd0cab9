"""Tests for the closed-form rate approximations.

Ground truth throughout is the adaptive-integration engine in
``crul.oracle`` (independent route over the raw 2-D region integrals),
plus a handful of values frozen from scipy adaptive quadrature runs.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, strategies as st

from crul import analytic
from crul.analytic import DEFAULT_NODES, DERIVED, STATED
from crul.channel import ScenarioConfig
from crul.crosscheck import ARBITRATION_REL_TOL, relative_deviation
from crul.oracle import (
    FULL_QUADRANT,
    RegionSpec,
    case_regions,
    case_terms,
    ergodic_delta_oracle,
    ergodic_rate_oracle,
    restricted_expectation,
)
from crul.panels import panel_integral
from crul.protocols import ProtocolKind, switch_edge, switch_level
from crul.specfun import (
    E1_SERIES_MAX,
    QuadratureRule,
    ei_series_sum,
    expint_ei,
    gauss_laguerre,
)

THETA_DEFAULT = 2.0**2.5 - 1.0


#: Cancellation noise of the reduced-power kernel's four-term bracket.
NOISE_FLOOR = 1e-12


#: The half-line rule of every fixed-rule form below, unless a test says otherwise.
RULE = gauss_laguerre(DEFAULT_NODES)


def scenario_at(gamma0_db: float) -> ScenarioConfig:
    return ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def rsma_total(p: ScenarioConfig, variant: str = DERIVED, rule=RULE) -> float:
    """Rate splitting's closed-form total: its three region terms, or the
    stated headline's merged form."""
    if variant == STATED:
        return analytic.below_threshold_term(p, rule, STATED) + analytic.merged_tail_stated(p)
    return (
        analytic.below_threshold_term(p, rule)
        + analytic.split_band_term(p)
        + analytic.clear_channel_term(p)
    )


def sic_total(p: ScenarioConfig) -> float:
    """Pure SIC's fixed-rule total: its four region terms."""
    return (
        analytic.below_threshold_term(p, RULE)
        + analytic.reduced_power_term(p, RULE)
        + analytic.preferred_order_term(p, RULE)
        + analytic.clear_channel_term(p)
    )


@pytest.fixture(scope="module")
def p20() -> ScenarioConfig:
    return scenario_at(20.0)


@pytest.fixture(scope="module")
def unit_scenario() -> ScenarioConfig:
    return ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=THETA_DEFAULT)


# ------------------------------------------------------------ parameters


class TestParameters:
    def test_equal_rates_detection(self):
        assert analytic._equal_rates(ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=1.0))
        assert analytic._equal_rates(
            ScenarioConfig(lambda_pu=1.0, lambda_su=1.0 + 1e-12, theta=1.0)
        )
        assert not analytic._equal_rates(
            ScenarioConfig(lambda_pu=1.0, lambda_su=1.01, theta=1.0)
        )

    def test_rejects_unknown_variant(self, p20):
        with pytest.raises(ValueError):
            analytic.ratio_density(1.0, p20, variant="fixed")


# ------------------------------------------------------------ ratio density


class TestRatioDensity:
    def test_total_mass_is_protect_probability(self, p20, unit_scenario):
        # The density is defective: it carries exactly the probability of
        # the event that the primary misses its SINR target.
        for p in (p20, unit_scenario):
            mass = panel_integral(
                lambda z: analytic.ratio_density(z, p), 0.0, 1.0 / p.lambda_su, 1e-10
            )
            expected = 1.0 - math.exp(-p.lambda_pu * p.theta)
            assert mass == pytest.approx(expected, abs=1e-6)

    def test_matches_cdf_finite_difference(self, unit_scenario):
        p = unit_scenario

        def cdf(z: float) -> float:
            value, _ = scipy.integrate.quad(
                lambda y: p.lambda_pu
                * math.exp(-p.lambda_pu * y)
                * (1.0 - math.exp(-p.lambda_su * z * (y + 1.0))),
                0.0,
                p.theta,
                limit=200,
            )
            return value

        step = 1e-5
        derivative = (cdf(1.0 + step) - cdf(1.0 - step)) / (2.0 * step)
        assert analytic.ratio_density(1.0, p) == pytest.approx(derivative, abs=1e-6)

    def test_far_tail_underflows(self):
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=4.0)
        assert analytic.ratio_density(1e3, p) < 1e-300

    def test_rejects_negative_ratio(self, p20):
        with pytest.raises(ValueError):
            analytic.ratio_density(-0.1, p20)

    def test_array_matches_scalars(self, p20):
        grid = np.array([0.0, 0.3, 1.0, 7.5, 40.0])
        vec = analytic.ratio_density(grid, p20)
        assert vec.shape == grid.shape
        for z, v in zip(grid, vec):
            assert v == analytic.ratio_density(float(z), p20)

    @given(
        z=st.floats(min_value=0.0, max_value=100.0),
        lam_p=st.floats(min_value=1e-3, max_value=10.0),
        lam_s=st.floats(min_value=1e-3, max_value=10.0),
        theta=st.floats(min_value=0.05, max_value=10.0),
    )
    def test_derived_density_nonnegative(self, z, lam_p, lam_s, theta):
        p = ScenarioConfig(lambda_pu=lam_p, lambda_su=lam_s, theta=theta)
        assert analytic.ratio_density(z, p) >= -1e-12

    @given(
        z=st.floats(min_value=0.0, max_value=50.0),
        lam=st.floats(min_value=0.01, max_value=5.0),
        theta=st.floats(min_value=0.1, max_value=8.0),
    )
    def test_variants_coincide_for_equal_rates(self, z, lam, theta):
        # The stated variant's slip swaps the two rate parameters, so it
        # is invisible exactly when they coincide.
        p = ScenarioConfig(lambda_pu=lam, lambda_su=lam, theta=theta)
        derived = analytic.ratio_density(z, p)
        stated = analytic.ratio_density(z, p, STATED)
        assert stated == pytest.approx(derived, rel=1e-9, abs=1e-300)

    def test_variants_differ_for_unequal_rates(self, p20):
        derived = analytic.ratio_density(1.0, p20)
        stated = analytic.ratio_density(1.0, p20, STATED)
        assert rel_err(stated, derived) > 1e-3


# ------------------------------------------------------------ term: below threshold


class TestBelowThresholdTerm:
    def test_quadrature_matches_adaptive_integral(self, p20):
        quad = analytic.below_threshold_term(p20, RULE)
        integral = analytic.below_threshold_term_integral(p20)
        assert rel_err(quad, integral) < 1e-6

    def test_matches_region_oracle(self, p20):
        below = case_regions(p20.theta)["below"]
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y / (1.0 + x)),
            below,
            p20.lambda_pu,
            p20.lambda_su,
        )
        assert rel_err(analytic.below_threshold_term(p20, RULE), reference) < 1e-3
        assert rel_err(analytic.below_threshold_term_integral(p20), reference) < 1e-6

    def test_stated_variant_deviates_at_unequal_rates(self, p20):
        # This is the headline symptom of the swapped rate parameters:
        # at the reference geometry the stated value is off by ~57%.
        derived = analytic.below_threshold_term(p20, RULE)
        stated = analytic.below_threshold_term(p20, RULE, STATED)
        assert rel_err(stated, derived) > 0.01


# ------------------------------------------------------------ term: split band


class TestSplitBandTerm:
    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0])
    def test_matches_region_oracle(self, gamma0_db):
        p = scenario_at(gamma0_db)
        band = case_regions(p.theta)["band"]
        reference = restricted_expectation(
            lambda x, y: np.log2((1.0 + x + y) / (1.0 + p.theta)),
            band,
            p.lambda_pu,
            p.lambda_su,
        )
        assert rel_err(analytic.split_band_term(p), reference) < 1e-6

    def test_equal_rate_branch_matches_region_oracle(self, unit_scenario):
        p = unit_scenario
        band = case_regions(p.theta)["band"]
        reference = restricted_expectation(
            lambda x, y: np.log2((1.0 + x + y) / (1.0 + p.theta)),
            band,
            p.lambda_pu,
            p.lambda_su,
        )
        assert rel_err(analytic.split_band_term(p), reference) < 1e-6

    def test_branch_continuity_at_equal_rates(self):
        # The generic branch divides by the rate difference; approaching
        # coincidence from both sides must bracket the analytic limit.
        equal = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=THETA_DEFAULT)
        low = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0 - 1e-6, theta=THETA_DEFAULT)
        high = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0 + 1e-6, theta=THETA_DEFAULT)
        center = analytic.split_band_branch_term(equal)
        bracket = sorted(
            (analytic.split_band_branch_term(low), analytic.split_band_branch_term(high))
        )
        assert bracket[0] <= center <= bracket[1]

    def test_branch_term_vs_band_oracle_remainder(self):
        # The branch piece equals the band oracle minus the branch-free
        # closed-form pieces; checked on the equal-rate path where the
        # stated algebra is most suspect.
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=1.0)
        band = case_regions(p.theta)["band"]
        reference = restricted_expectation(
            lambda x, y: np.log2((1.0 + x + y) / (1.0 + p.theta)),
            band,
            p.lambda_pu,
            p.lambda_su,
        )
        branch_free = analytic.split_band_term(p) - analytic.split_band_branch_term(p)
        assert analytic.split_band_branch_term(p) == pytest.approx(
            reference - branch_free, abs=1e-4
        )

    def test_branch_term_frozen_value(self):
        # Frozen from the band oracle minus the branch-free pieces
        # (scipy adaptive quadrature, 12 digits).
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=1.0)
        assert analytic.split_band_branch_term(p) == pytest.approx(
            0.0735981510946, rel=1e-10
        )

    def test_branch_vanishes_with_band(self):
        for lam_su in (1.0, 2.0):
            p = ScenarioConfig(lambda_pu=1.0, lambda_su=lam_su, theta=1e-6)
            assert abs(analytic.split_band_branch_term(p)) < 1e-6

    def test_stated_variant_deviates(self, p20):
        band = case_regions(p20.theta)["band"]
        reference = restricted_expectation(
            lambda x, y: np.log2((1.0 + x + y) / (1.0 + p20.theta)),
            band,
            p20.lambda_pu,
            p20.lambda_su,
        )
        assert rel_err(analytic.split_band_term(p20, STATED), reference) > 0.01


# ------------------------------------------------------------ term: clear channel


class TestClearChannelTerm:
    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0])
    def test_matches_region_oracle(self, gamma0_db):
        p = scenario_at(gamma0_db)
        tolerant = case_regions(p.theta)["clear"]
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y),
            tolerant,
            p.lambda_pu,
            p.lambda_su,
        )
        assert rel_err(analytic.clear_channel_term(p), reference) < 1e-6

    def test_stated_variant_is_derived_times_stray_exponential(self, p20):
        # The stated form carries exp(-lambda_pu*theta) twice; everything
        # else is identical, so the ratio pins the slip exactly.
        derived = analytic.clear_channel_term(p20)
        stated = analytic.clear_channel_term(p20, STATED)
        stray = math.exp(-2.0 * p20.lambda_pu * p20.theta)
        assert stated == pytest.approx(derived * stray, rel=1e-12)
        assert rel_err(stated, derived) > 0.01


# ------------------------------------------------------------ totals: rate splitting


class TestRsmaTotal:
    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    def test_matches_full_oracle(self, gamma0_db):
        p = scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        reference = ergodic_rate_oracle(ProtocolKind.CR_RSMA, scenario)
        assert rel_err(rsma_total(p), reference) < 1e-3

    def test_node_count_converged(self, p20):
        # Order 100 against order 120: the approximation is already
        # settled well past the headline tolerance.
        coarse = rsma_total(p20, rule=gauss_laguerre(100))
        fine = rsma_total(p20, rule=gauss_laguerre(120))
        assert rel_err(coarse, fine) < 1e-6

    def test_huge_threshold_collapses_to_first_term(self):
        # With an unattainable SINR target the protected event fills the
        # quadrant and the total is the plain interference-limited rate.
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=1e6)
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y / (1.0 + x)),
            FULL_QUADRANT,
            1.0,
            1.0,
        )
        assert rel_err(rsma_total(p), reference) < 1e-3

    def test_vanishing_secondary_snr(self):
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1e6, theta=THETA_DEFAULT)
        assert abs(rsma_total(p)) < 1e-6

    def test_stated_total_deviates(self, p20):
        scenario = ScenarioConfig.from_snr_db(20.0, 20.0)
        reference = ergodic_rate_oracle(ProtocolKind.CR_RSMA, scenario)
        stated = rsma_total(p20, STATED)
        assert rel_err(stated, reference) > 0.01


# ------------------------------------------------------------ term: reduced power


class TestReducedPowerKernel:
    def test_frozen_value(self):
        # Frozen from scipy adaptive quadrature of the inner band integral
        # (17 digits; the closed form agreed to 7e-16 when frozen).
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=4.0)
        assert analytic.reduced_power_kernel(2.0, p) == pytest.approx(
            0.00043763904577598535, rel=1e-12
        )

    def test_matches_inner_integral(self):
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=4.0)
        for x in (0.5, 2.0, 17.0):
            switch = switch_edge(x, p.theta)
            value, _ = scipy.integrate.quad(
                lambda y: math.log2(y / p.theta) * p.lambda_pu * math.exp(-p.lambda_pu * y),
                switch,
                p.theta * (x + 1.0),
                limit=300,
            )
            reference = value * p.lambda_su * math.exp(-p.lambda_su * x)
            assert analytic.reduced_power_kernel(x, p) == pytest.approx(
                reference, abs=1e-8
            )

    def test_zero_at_origin(self, p20):
        # The band collapses: the switch point equals the band edge.
        assert analytic.reduced_power_kernel(0.0, p20) == 0.0

    def test_rejects_negative_snr(self, p20):
        with pytest.raises(ValueError):
            analytic.reduced_power_kernel(-1.0, p20)

    @given(
        x=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=16),
        lam_p=st.floats(min_value=1e-3, max_value=10.0),
        lam_s=st.floats(min_value=1e-3, max_value=10.0),
        theta=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_nonnegative(self, x, lam_p, lam_s, theta):
        # Floor at the cancellation noise of the four-term bracket: for a
        # hair-thin band the true value is O(x^2) but the bracket terms
        # are O(1), so ~1e-13 of signed rounding survives.
        p = ScenarioConfig(lambda_pu=lam_p, lambda_su=lam_s, theta=theta)
        values = analytic.reduced_power_kernel(np.array(x), p)
        assert values.shape == (len(x),)
        assert np.all(values >= -NOISE_FLOOR)
        assert analytic.reduced_power_kernel(x[0], p) >= -NOISE_FLOOR

    @staticmethod
    def per_node_kernel(x: float, p: ScenarioConfig) -> float:
        """The kernel one SU SNR at a time on :mod:`math` and the scalar
        special functions, as the rule's nodes were once summed."""
        lam_p, lam_s, theta = p.lambda_pu, p.lambda_su, p.theta
        switch = float(switch_edge(x, theta))
        band_edge = theta * (x + 1.0)
        if switch >= band_edge:
            return 0.0
        density = lam_s * math.exp(-lam_s * x) / math.log(2.0)
        if lam_p * band_edge <= E1_SERIES_MAX:
            return density * (
                (
                    math.expm1(-lam_p * switch) * math.log(switch / theta)
                    - math.expm1(-lam_p * band_edge) * math.log(band_edge / theta)
                )
                + (ei_series_sum(-lam_p * band_edge) - ei_series_sum(-lam_p * switch))
            )
        return density * (
            math.exp(-lam_p * switch) * math.log(switch / theta)
            - math.exp(-lam_p * band_edge) * math.log(band_edge / theta)
            + expint_ei(-lam_p * band_edge)
            - expint_ei(-lam_p * switch)
        )

    @pytest.mark.parametrize(
        "lam_p,theta,low,high,branches",
        [
            (0.01, 3.0, 1e-3, 50.0, {"series"}),
            (1.0, 3.0, 0.4, 200.0, {"fraction"}),
            (10.0, 3.0, 30.0, 1e3, {"underflow"}),
            (0.5, 1.5, 1e-3, 1e3, {"series", "fraction", "underflow"}),
        ],
    )
    def test_array_matches_per_node_scalars(self, lam_p, theta, low, high, branches):
        # By lambda_pu * theta * (x + 1): the S form up to 4, the band
        # edge's Ei by continued fraction up to 745, and underflowing past.
        p = ScenarioConfig(lambda_pu=lam_p, lambda_su=0.3, theta=theta)
        x = np.concatenate([[0.0], np.geomspace(low, high, 257)])
        edge = lam_p * theta * (x[1:] + 1.0)
        taken = {"series": edge <= 4.0, "fraction": (edge > 4.0) & (edge <= 745.0),
                 "underflow": edge > 745.0}
        assert {name for name, mask in taken.items() if mask.any()} == branches
        values = analytic.reduced_power_kernel(x, p)
        assert values[0] == 0.0
        for node, value in zip(x, values):
            reference = self.per_node_kernel(float(node), p)
            assert value == pytest.approx(reference, rel=1e-13, abs=NOISE_FLOOR)
            scalar = analytic.reduced_power_kernel(float(node), p)
            assert scalar == pytest.approx(reference, rel=1e-13, abs=NOISE_FLOOR)

    def test_empty_band_by_one_ulp_is_zero(self):
        # Rounding in the square root puts this switch point one ulp past
        # the band edge, so the band is empty though x > 0.
        x, theta = 4.66610086e-17, 7.3
        assert float(switch_edge(x, theta)) > theta * (x + 1.0)
        p = ScenarioConfig(lambda_pu=1.0, lambda_su=1.0, theta=theta)
        assert analytic.reduced_power_kernel(x, p) == 0.0
        assert analytic.reduced_power_kernel(np.array([x, 1.0]), p)[0] == 0.0

    def test_nan_snr_stays_nan(self, p20):
        assert math.isnan(analytic.reduced_power_kernel(math.nan, p20))

    @staticmethod
    def stated_kernel(x: float, p: ScenarioConfig) -> float:
        """The printed reduced-power kernel, transcribed verbatim."""
        lam_p, lam_s, theta = p.lambda_pu, p.lambda_su, p.theta
        switch = switch_edge(x, theta)
        return -(lam_s * math.exp(-lam_s * x) / math.log(2.0)) * (
            math.log(x + 1.0) * math.exp(-lam_p * theta * (x + 1.0))
            + math.log(theta / switch) * math.exp(-lam_p * switch)
            + expint_ei(-lam_p * switch)
            - expint_ei(-lam_p * theta * (x + 1.0))
        )

    def test_stated_variant_matches_derived(self):
        # The printed form is the same algebra with its terms in another
        # order, so the route table carries only the derived one.
        p = ScenarioConfig(lambda_pu=0.3, lambda_su=0.7, theta=2.0)
        for x in (0.5, 4.0, 33.0):
            derived = analytic.reduced_power_kernel(x, p)
            stated = self.stated_kernel(x, p)
            assert stated == pytest.approx(derived, rel=1e-12, abs=1e-300)


class TestReducedPowerTerm:
    def test_sums_the_kernel_at_the_rule_nodes(self, p20):
        per_node = [
            weight * TestReducedPowerKernel.per_node_kernel(float(node), p20)
            for node, weight in zip(RULE.nodes, RULE.integration_weights)
        ]
        assert analytic.reduced_power_term(p20, RULE) == pytest.approx(
            math.fsum(per_node), rel=1e-13
        )

    def test_a_custom_rule_is_its_own_cache_key(self, p20):
        # The bracket is memoised per rule object: a rule with other nodes
        # but the default's order must not get the default's bracket.
        default = gauss_laguerre(100)
        stretched = QuadratureRule(
            order=100, nodes=2.0 * default.nodes, log_weights=default.log_weights - math.log(2.0)
        )
        copied = QuadratureRule(
            order=100, nodes=default.nodes.copy(), log_weights=default.log_weights.copy()
        )
        value = analytic.reduced_power_term(p20, default)
        for rule in (stretched, copied):
            kernel = analytic.reduced_power_kernel(rule.nodes, p20)
            assert analytic.reduced_power_term(p20, rule) == math.fsum(
                rule.integration_weights * kernel
            )
        assert analytic.reduced_power_term(p20, copied) == value

    def test_routes_agree_at_moderate_snr(self, p20):
        quad = analytic.reduced_power_term(p20, RULE)
        integral = analytic.reduced_power_term_integral(p20)
        reduced = case_regions(p20.theta)["reduced"]
        reference = restricted_expectation(
            lambda x, y: np.log2(x / p20.theta),
            reduced,
            p20.lambda_pu,
            p20.lambda_su,
        )
        assert rel_err(quad, reference) < 1e-3
        assert rel_err(integral, reference) < 1e-6

    def test_fixed_rule_loses_tail_mass_at_high_snr(self):
        # Documented limitation: the largest order-100 node sits near 375,
        # so once 1/lambda_su is thousands the fixed rule sees almost none
        # of the kernel's mass.  The adaptive route stays correct.
        p = scenario_at(40.0)
        quad = analytic.reduced_power_term(p, RULE)
        integral = analytic.reduced_power_term_integral(p)
        reduced = case_regions(p.theta)["reduced"]
        reference = restricted_expectation(
            lambda x, y: np.log2(x / p.theta),
            reduced,
            p.lambda_pu,
            p.lambda_su,
        )
        assert rel_err(integral, reference) < 1e-6
        assert quad < 0.5 * integral


# ------------------------------------------------------------ term: preferred order


class TestOrderSwitchGeometry:
    @pytest.mark.parametrize("theta", [1.0, THETA_DEFAULT])
    @pytest.mark.parametrize("x", [0.0, 2.0, 10.0])
    def test_radicand_identity(self, theta, x):
        # The switch threshold appears in two algebraic dressings; their
        # radicands are identical polynomials.
        assert (theta - 1.0) ** 2 + 4.0 * theta * (1.0 + x) == pytest.approx(
            (theta + 1.0) ** 2 + 4.0 * theta * x, rel=1e-15
        )
        alt = 0.5 * (theta - 1.0 + math.sqrt((theta - 1.0) ** 2 + 4.0 * theta * (1.0 + x)))
        assert switch_edge(x, theta) == pytest.approx(alt, rel=1e-15)

    @given(
        pu=st.floats(min_value=0.0, max_value=100.0),
        theta=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_threshold_inverts_boundary(self, pu, theta):
        pu_snr = pu + theta  # boundary only meaningful from the threshold up
        level = switch_level(pu_snr, theta)
        assert switch_edge(level, theta) == pytest.approx(
            pu_snr, rel=1e-12
        )

    def test_threshold_starts_at_protection_level(self):
        assert switch_edge(0.0, 4.0) == pytest.approx(4.0, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            switch_edge(1.0, 0.0)
        with pytest.raises(ValueError):
            switch_edge(-1.0, 1.0)
        with pytest.raises(ValueError):
            switch_edge(np.array([1.0, -1.0]), 1.0)

    def test_arrays_match_scalars_bit_for_bit(self):
        # The oracle slices along arrays of secondary SNRs and the kernel
        # takes one at a time: both must see the same curve.
        su = np.array([0.0, 1e-12, 0.3, 2.0, 17.0, 1e6])
        edges = switch_edge(su, THETA_DEFAULT)
        assert [float(switch_edge(float(x), THETA_DEFAULT)) for x in su] == edges.tolist()
        np.testing.assert_allclose(switch_level(edges, THETA_DEFAULT), su, rtol=1e-12, atol=1e-15)


class TestPreferredOrderTerm:
    def test_routes_agree_at_moderate_snr(self, p20):
        quad = analytic.preferred_order_term(p20, RULE)
        integral = analytic.preferred_order_term_integral(p20)
        preferred = case_regions(p20.theta)["preferred"]
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y / (1.0 + x)),
            preferred,
            p20.lambda_pu,
            p20.lambda_su,
        )
        assert rel_err(quad, reference) < 1e-3
        assert rel_err(integral, reference) < 1e-6

    def test_fixed_rule_loses_tail_mass_at_high_snr(self):
        p = scenario_at(40.0)
        quad = analytic.preferred_order_term(p, RULE)
        integral = analytic.preferred_order_term_integral(p)
        preferred = case_regions(p.theta)["preferred"]
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y / (1.0 + x)),
            preferred,
            p.lambda_pu,
            p.lambda_su,
        )
        assert rel_err(integral, reference) < 1e-6
        assert quad < 0.5 * integral


# ------------------------------------------------------------ totals: pure SIC


class TestSicTotal:
    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0])
    def test_matches_full_oracle_at_moderate_snr(self, gamma0_db):
        p = scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        reference = ergodic_rate_oracle(ProtocolKind.CR_SIC, scenario)
        assert rel_err(sic_total(p), reference) < 1e-3

    @pytest.mark.parametrize("gamma0_db", [30.0, 40.0])
    def test_adaptive_routes_cover_high_snr(self, gamma0_db):
        # The all-quadrature assembly degrades here (tail truncation); the
        # adaptive kernel routes recover the oracle value.
        p = scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        total = (
            analytic.below_threshold_term_integral(p)
            + analytic.reduced_power_term_integral(p)
            + analytic.preferred_order_term_integral(p)
            + analytic.clear_channel_term(p)
        )
        reference = ergodic_rate_oracle(ProtocolKind.CR_SIC, scenario)
        assert rel_err(total, reference) < 1e-6

    @pytest.mark.parametrize("gamma0_su_db", [30.0, 40.0, 50.0, 60.0])
    @pytest.mark.parametrize("gamma0_pu_db", [20.0, 40.0])
    def test_kernel_checks_hold_at_high_secondary_snr(self, gamma0_pu_db, gamma0_su_db):
        # The fixed rule saturates on these three terms here, so the rows
        # carry the oracle's terms; the adaptive kernel integrals are the
        # evidence that the derived kernels are right where it cannot be.
        p = scenario = ScenarioConfig.from_snr_db(gamma0_pu_db, gamma0_su_db)
        terms = case_terms(ProtocolKind.CR_SIC, scenario)
        below = analytic.below_threshold_term_integral(p)
        reduced = analytic.reduced_power_term_integral(p)
        assert relative_deviation(below, terms["below"]) <= ARBITRATION_REL_TOL
        assert relative_deviation(reduced, terms["reduced"]) <= ARBITRATION_REL_TOL
        # The kernel integral slices the preferred region along the primary
        # SNR and the oracle along the secondary, so the two agree only to
        # the integrator's tolerance, not bit for bit.
        assert analytic.preferred_order_term_integral(p) == pytest.approx(
            terms["preferred"], rel=1e-8
        )

    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    def test_rate_splitting_dominates(self, gamma0_db):
        p = scenario_at(gamma0_db)
        assert (
            rsma_total(p) - sic_total(p)
            >= -1e-6
        )

    def test_overwhelming_primary_degenerates_to_interference_floor(self):
        # With the primary link essentially off the air the protocols all
        # collapse to the plain interference-limited expectation.
        p = ScenarioConfig(lambda_pu=1e3, lambda_su=1.0, theta=THETA_DEFAULT)
        reference = restricted_expectation(
            lambda x, y: np.log2(1.0 + y / (1.0 + x)),
            FULL_QUADRANT,
            1e3,
            1.0,
        )
        assert rel_err(sic_total(p), reference) < 1e-2
        assert rel_err(rsma_total(p), reference) < 1e-2


# ------------------------------------------------------------ rate difference


def gap_scenario(theta: float) -> ScenarioConfig:
    """Unit primary rate, secondary rate 2, protection threshold ``theta``."""
    return ScenarioConfig.from_snr_db(
        0.0,
        -10.0 * math.log10(2.0),
        secondary_distance=1.0,
        rate_threshold=math.log2(1.0 + theta),
    )


class TestDeltaRate:
    """The protocol gap has no closed form; the oracle integrates it over
    the split band, which its two SIC regions must tile exactly."""

    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0])
    def test_equals_difference_of_totals(self, gamma0_db):
        scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        difference = ergodic_rate_oracle(
            ProtocolKind.CR_RSMA, scenario
        ) - ergodic_rate_oracle(ProtocolKind.CR_SIC, scenario)
        assert ergodic_delta_oracle(scenario) == pytest.approx(difference, abs=1e-6)

    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0, 40.0])
    def test_nonnegative(self, gamma0_db):
        scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        assert ergodic_delta_oracle(scenario) >= 0.0

    def test_vanishes_with_threshold(self):
        coarse = ergodic_delta_oracle(gap_scenario(1e-2))
        fine = ergodic_delta_oracle(gap_scenario(1e-3))
        assert 0.0 <= fine < coarse
        assert fine < 1e-6
