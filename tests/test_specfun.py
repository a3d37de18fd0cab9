"""Tests for the quadrature and exponential-integral kernels.

Reference values are frozen from independent oracles noted inline
(mpmath at 30 significant digits, or hand algebra for the tiny cases);
scipy.special serves as a second opinion where doubles suffice.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from crul.specfun import (
    MAX_ORDER,
    ConvergenceError,
    QuadratureRule,
    expint_ei,
    gauss_laguerre,
    log_e1,
)

# Frozen from mpmath.ei / mpmath.e1 at 30-digit precision.
EI_NEGATIVE = {
    1e-4: -8.63322470457470543,
    0.1: -1.8229239584193906661,
    0.5: -0.55977359477616081175,
    1.0: -0.21938393439552027368,
    5.0: -0.0011482955912753257973,
    20.0: -9.8355252906498816904e-11,
    100.0: -3.6835977616820321802e-46,
}
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


@pytest.mark.parametrize("x,expected", sorted(EI_NEGATIVE.items()))
def test_ei_negative_frozen(x, expected):
    assert expint_ei(-x) == pytest.approx(expected, rel=1e-12)


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
