"""Tests for the quadrature and exponential-integral kernels.

Reference values are frozen from independent oracles noted inline
(mpmath at 30 significant digits, or hand algebra for the tiny cases);
scipy.special serves as a second opinion where doubles suffice.
"""

import math
import struct

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from crul import analytic, specfun, validation
from crul.analytic import DEFAULT_NODES
from crul.specfun import (
    MAX_ORDER,
    ConvergenceError,
    QuadratureRule,
    e1_cf_factor,
    ei_series_sum,
    expint_ei,
    gauss_laguerre,
    log_e1,
)

# Frozen from mpmath.e1 at 30-digit precision.
LOG_E1 = {
    20.0: -23.042435162184236996,
    100.0: -104.6150243505053549,
    1000.0: -1006.908753783297812,
}


# ---------------------------------------------------------------- rules


def test_order_one_rule_is_exact_point():
    # Single root of L_1(x) = 1 - x, weight = full mass of exp(-x).
    rule = gauss_laguerre(1)
    assert rule.nodes == pytest.approx([1.0], abs=1e-15)
    assert np.exp(rule.log_weights) == pytest.approx([1.0], abs=1e-15)


def test_order_two_rule_matches_hand_algebra():
    # Roots of L_2: x^2 - 4x + 2 = 0 -> 2 +- sqrt(2); weights (2 -+ sqrt(2))/4...
    # solving the 2x2 moment system gives w = (2 +- sqrt(2))/4 paired low/high.
    rule = gauss_laguerre(2)
    root = math.sqrt(2.0)
    assert rule.nodes == pytest.approx([2.0 - root, 2.0 + root], rel=1e-14)
    assert np.exp(rule.log_weights) == pytest.approx(
        [(2.0 + root) / 4.0, (2.0 - root) / 4.0], rel=1e-14
    )


def test_nodes_are_laguerre_roots():
    rule = gauss_laguerre(7)
    l7 = np.polynomial.laguerre.lagval(rule.nodes, [0.0] * 7 + [1.0])
    assert np.all(np.abs(l7) < 1e-10)


@pytest.mark.parametrize("order", [2, 5, 20, 100])
def test_moment_exactness_log_space(order):
    # A Gauss rule of n points integrates x^k exactly for k <= 2n-1:
    # sum(w * x^k) = k!.  Compared in log space because k! overflows at 171.
    rule = gauss_laguerre(order)
    log_nodes = np.log(rule.nodes)
    for k in range(2 * order):
        log_moment = scipy.special.logsumexp(rule.log_weights + k * log_nodes)
        assert abs(math.exp(log_moment - math.lgamma(k + 1)) - 1.0) < 1e-10


@given(st.integers(min_value=1, max_value=MAX_ORDER))
def test_rule_shape_invariants(order):
    rule = gauss_laguerre(order)
    assert rule.order == order
    assert rule.nodes.shape == rule.log_weights.shape == (order,)
    assert rule.nodes[0] > 0.0
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(np.isfinite(rule.log_weights))
    assert np.all(np.isfinite(rule.integration_weights))
    assert np.all(rule.integration_weights > 0.0)
    assert math.fsum(np.exp(rule.log_weights)) == pytest.approx(1.0, rel=1e-10)


def test_high_order_linear_weights_underflow_but_log_survives():
    rule = gauss_laguerre(256)
    assert np.exp(rule.log_weights).min() == 0.0  # the documented underflow
    assert np.all(np.isfinite(rule.log_weights))
    # exp(-x) integrates to 1 and only touches the log path.
    assert integrate(lambda x: np.exp(-x), rule) == pytest.approx(1.0, rel=1e-10)


def test_stored_rule_is_the_newton_build_byte_for_byte():
    # The default rule ships as literals; any other order is built.
    nodes, log_weights = specfun._newton_rule(DEFAULT_NODES)
    rule = gauss_laguerre(DEFAULT_NODES)
    for stored, built in ((rule.nodes, nodes), (rule.log_weights, log_weights)):
        assert stored.tobytes() == built.tobytes(), (
            "specfun._STORED_RULES differs from _newton_rule; regenerate the "
            "block with scripts/laguerre_constants.py"
        )


def test_the_stored_order_is_the_default_order():
    assert set(specfun._STORED_RULES) == {DEFAULT_NODES}


def reference_pair(order, x):
    """The three-term recurrence one step per ``k``, with integer
    coefficients."""
    current, previous = 1.0, 0.0
    for k in range(1, order + 1):
        current, previous = ((2 * k - 1 - x) * current - (k - 1) * previous) / k, current
    return current, previous


@pytest.mark.parametrize(
    "order,x",
    [(order, 0.0) for order in (1, 2, 100, 256)]
    + [(order, x) for order in (200, 230, 256) for x in (470.0, 600.0, 800.0, 1050.0)]
    + [(order, x) for order in (1, 100, 256) for x in (math.nan, math.inf, -math.inf)],
)
def test_recurrence_is_the_per_step_reference_bit_for_bit(order, x):
    expected = reference_pair(order, x)
    actual = specfun._laguerre_pair(x, order)
    assert struct.pack("2d", *actual) == struct.pack("2d", *expected)


def test_recurrence_stays_in_double_range_past_the_largest_node():
    # Every node of order n lies below about 4n + 2, and |L_k(x)| <= e^{x/2}
    # for x >= 0, so the unscaled recurrence is finite at every supported
    # order; past order ~354 e^{x/2} leaves double range and this fails.
    x = 4.0 * MAX_ORDER + 2.0
    assert gauss_laguerre(MAX_ORDER).nodes[-1] < x
    bound = math.exp(x / 2.0)
    for value in specfun._laguerre_pair(x, MAX_ORDER):
        assert math.isfinite(value)
        assert abs(value) <= bound


@pytest.mark.parametrize("order", [0, -1, 257, 2.5, "10"])
def test_rule_rejects_bad_orders(order):
    with pytest.raises(ValueError):
        gauss_laguerre(order)


def test_rule_arrays_are_read_only():
    rule = gauss_laguerre(3)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


# ------------------------------------------------------------ integrals


def integrate(f, rule):
    """``int_0^inf f`` by the rule's plain-integral weights, as the closed forms use it."""
    return float(rule.integration_weights @ f(rule.nodes))


def test_integrates_exponential():
    value = integrate(lambda x: np.exp(-2.0 * x), gauss_laguerre(40))
    assert value == pytest.approx(0.5, abs=1e-8)


@given(st.integers(min_value=0, max_value=39))
def test_weighted_monomials_integrate_to_factorials(k):
    # f = x^k exp(-x) on a 20-point rule is inside the exactness degree.
    value = integrate(lambda x: x**k * np.exp(-x), gauss_laguerre(20))
    assert value == pytest.approx(math.factorial(k), rel=1e-10)


# ------------------------------------------------------- exponential Ei


@pytest.mark.parametrize(
    "x,expected", sorted(validation._EI_NEGATIVE_REFERENCE.items())
)
def test_ei_negative_frozen(x, expected):
    assert expint_ei(-x) == pytest.approx(expected, rel=1e-12, abs=0.0)


@given(st.floats(min_value=1e-4, max_value=500.0))
def test_ei_agrees_with_scipy_e1(x):
    assert expint_ei(-x) == pytest.approx(-scipy.special.exp1(x), rel=1e-12, abs=5e-324)


@given(
    st.floats(min_value=1e-3, max_value=300.0),
    st.floats(min_value=1.0001, max_value=3.0),
)
def test_ei_negative_is_decreasing_in_magnitude(x, factor):
    # Ei(-x) is negative and increases toward 0 as x grows.
    assert expint_ei(-x * factor) > expint_ei(-x)
    assert expint_ei(-x) < 0.0


def test_ei_continuous_at_series_boundary():
    below, above = expint_ei(-4.0 + 1e-9), expint_ei(-4.0 - 1e-9)
    assert below == pytest.approx(above, rel=1e-7)


def test_ei_non_negative_is_a_domain_error():
    for x in (0.0, 1.0):
        with pytest.raises(ValueError):
            expint_ei(x)


def test_ei_far_negative_underflows_to_zero():
    assert expint_ei(-800.0) == 0.0


@pytest.mark.parametrize("x,expected", sorted(LOG_E1.items()))
def test_log_e1_frozen(x, expected):
    assert log_e1(x) == pytest.approx(expected, rel=1e-13)


@given(st.floats(min_value=1e-4, max_value=600.0))
def test_log_e1_consistent_with_ei(x):
    assert log_e1(x) == pytest.approx(math.log(scipy.special.exp1(x)), rel=1e-12)


def test_log_e1_rejects_non_positive():
    for x in (0.0, -1.0):
        with pytest.raises(ValueError):
            log_e1(x)


def test_log_e1_far_beyond_underflow():
    # exp(-1200) is not a double, but the log form stays finite and accurate:
    # E1(x) ~ exp(-x)/x * (1 - 1/x + ...) so log is ~ -x - log(x) - 1/x.
    value = log_e1(1200.0)
    assert value == pytest.approx(-1200.0 - math.log(1200.0) - 1 / 1200.0, rel=1e-6)


# ------------------------------------------------------------- arrays


def test_series_over_an_array_is_the_scalar_series_bit_for_bit():
    # Elements converge at different terms; the late ones must not move
    # the early ones' sums.
    x = -np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-6, 4.0, 300)])
    np.testing.assert_array_equal(ei_series_sum(x), [ei_series_sum(float(v)) for v in x])


def test_continued_fraction_over_an_array_is_the_scalar_one_bit_for_bit():
    # Every element runs at the one depth, just above the series switch
    # and on each side of the depths the fraction once switched between.
    x = np.concatenate([
        np.geomspace(4.0 + 1e-12, 745.0, 300), [5.0, 5.0],
        [4.5], np.linspace(6.0, 14.0, 4001), np.linspace(29.0, 102.0, 2001),
    ])
    np.testing.assert_array_equal(e1_cf_factor(x), [e1_cf_factor(float(v)) for v in x])


#: Arguments where the earlier forward (Lentz) evaluation held every step
#: factor an ulp off one and never stopped: past 2**54, ``b + 2`` rounds
#: back to ``b`` and ``b * (1/b)`` is 0.9999999999999999, and near 2.5e14
#: ``c`` and ``1/d`` round apart.  They stay as the fraction's far end,
#: where ``x + 1`` itself rounds.
ROUNDING_BOUND_ARGUMENTS = [1.073741823e17, 4.2949673e17, 245690564412334.34]


@pytest.mark.parametrize("x", ROUNDING_BOUND_ARGUMENTS)
def test_continued_fraction_stops_where_rounding_holds_every_factor_off_one(x):
    # K = 1/x - 1/x^2 + 2/x^3 - ... to far below an ulp here.
    expected = 1.0 / x - 1.0 / x**2 + 2.0 / x**3
    assert e1_cf_factor(x) == pytest.approx(expected, rel=1e-15, abs=0.0)
    value = e1_cf_factor(np.array([5.0, x]))
    np.testing.assert_array_equal(value, [e1_cf_factor(5.0), e1_cf_factor(x)])


#: ``exp(x) E1(x)`` just above the series switch, where the fraction's one
#: depth is barely enough, on each side of the depths it once switched
#: between, far out, and at :data:`ROUNDING_BOUND_ARGUMENTS`: mpmath at 40
#: digits, printed by scripts/e1_references.py.
E1_SCALED = {
    4.000000000001: 0.20634564990101217,
    5.999: 0.14528903146117,
    6.0: 0.1452676292338869,
    9.999: 0.09157177138758804,
    10.0: 0.09156333393978808,
    29.99: 0.032300178081643774,
    30.0: 0.03228973875898013,
    99.99: 0.009902922960989645,
    100.0: 0.009901942286733018,
    10000.0: 9.999000199940023e-05,
    100000000.0: 9.999999900000002e-09,
    1.073741823e+17: 9.313225754828402e-18,
    4.2949673e+17: 2.328306434370292e-18,
    245690564412334.34: 4.0701603758853715e-15,
}


@pytest.mark.parametrize("x,expected", sorted(E1_SCALED.items()))
def test_continued_fraction_matches_frozen_references(x, expected):
    # Two ulp: the truncation at depth 30 is within 0.31 ulp, the rest
    # is the backward steps' rounding.
    assert e1_cf_factor(x) == pytest.approx(expected, rel=4.5e-16, abs=0.0)


def test_continued_fraction_over_an_array_matches_frozen_references():
    # One array, every element at its scalar's depth.
    x, expected = (np.array(values) for values in zip(*sorted(E1_SCALED.items())))
    np.testing.assert_allclose(e1_cf_factor(x), expected, rtol=4.5e-16, atol=0.0)


def per_term_series(x):
    """``S(x)`` stopped at the first term within ``1e-18`` of the sum."""
    total, power = 0.0, 1.0
    for k in range(1, 500):
        power *= x / k
        term = power / k
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return total
    raise AssertionError(f"no stop at {x}")


def test_series_of_fixed_length_is_the_per_term_stop_bit_for_bit():
    # On both sides of 0, up to the switch at |x| = 4 itself.
    x = np.geomspace(1e-300, 4.0, 500)
    x = np.concatenate([-x, x])
    expected = [per_term_series(float(v)) for v in x]
    np.testing.assert_array_equal([ei_series_sum(float(v)) for v in x], expected)
    np.testing.assert_array_equal(ei_series_sum(x), expected)


@pytest.mark.parametrize("x", [-5.0, 5.0, -10.0])
def test_series_past_its_range_fails_loudly(x):
    # Its last term is still past 1e-18 of the sum there.
    with pytest.raises(ConvergenceError):
        ei_series_sum(x)
    with pytest.raises(ConvergenceError):
        ei_series_sum(np.array([-1.0, x, 4.0]))


@pytest.mark.parametrize("routine", [ei_series_sum, e1_cf_factor])
def test_an_empty_array_comes_back_empty(routine):
    value = routine(np.array([]))
    assert value.shape == (0,)


@pytest.mark.parametrize("routine,x", [(ei_series_sum, -1.0), (e1_cf_factor, 6.0)])
def test_a_nan_element_fails_the_array_loudly(routine, x):
    with pytest.raises(ConvergenceError):
        routine(np.array([x, math.nan, 2.0 * x]))


#: ``exp(x) E1(x)`` on the series side of the switch, thicker toward 4,
#: where the series cancels most: mpmath at 40 digits, printed by
#: scripts/e1_references.py.
E1_SCALED_SERIES = {
    0.001: 6.337874070325488,
    0.1: 2.0146425447084515,
    0.5: 0.9229106324837305,
    1.0: 0.5963473623231941,
    2.0: 0.3613286168882226,
    3.0: 0.2620837402553185,
    3.458: 0.23314875079511616,
    3.86: 0.21264780155263757,
    4.0: 0.20634564990105583,
}


@pytest.mark.parametrize("x,expected", sorted(E1_SCALED_SERIES.items()))
def test_scaled_e1_matches_frozen_references_on_the_series_side(x, expected):
    # The series' cancellation costs up to about 2.5e-13 relative just
    # below 4 (1.4e-13 at 4 itself), against 4.7e-15 at 2.
    assert analytic._scaled_e1(x) == pytest.approx(expected, rel=3e-13, abs=0.0)
    (value,) = analytic._scaled_e1_array(np.array([x]))
    assert value == pytest.approx(expected, rel=3e-13, abs=0.0)
