"""Closed-form and quadrature approximations of the ergodic secondary rate.

The adaptive-integration engine in :mod:`crul.oracle` evaluates the raw
two-dimensional region integrals; this module evaluates the closed forms
obtained by carrying out the inner integrations analytically.  The total
rate for each protocol decomposes over the decision regions:

* below-threshold term -- the primary link misses its SINR target, the
  secondary transmits at full power and sees primary interference (shared
  by both protocols);
* split-band / reduced-power / preferred-order terms -- the contested band
  where the two protocols differ;
* clear-channel term -- the primary tolerates the secondary at full power.

Every form takes only a :class:`crul.channel.ScenarioConfig`, the triple
``(lambda_pu, lambda_su, theta)``; the below-threshold sums read the one
stored half-line rule themselves.

Every piece is available in more than one route, each its own function,
so they can be cross-checked term by term:

* ``derived`` closed forms (``*_term``), re-derived from scratch.  Products
  of exponentials with the exponential integral are formed as
  ``exp(a) E1(a)``, the continued fraction itself past the series range
  and ``exp(a + log_e1(a))`` below it, so extreme rate parameters neither
  overflow nor cancel away their digits.  Two kinds of term need a
  quadrature.  The below-threshold ratio is summed on the fixed half-line
  rule's unscaled axis, whose largest order-100 node is near 375, so the
  sum loses visible mass once ``1/lambda_su`` grows past it.  Pure SIC's
  two band cells reduce to one integral over the primary SNR each, and
  each cell's kernel is integrated on the adaptive Gauss-Kronrod panels of
  :mod:`crul.panels` at its own decay length.
* ``stated`` closed forms (``*_stated``) of the terms whose printed form
  differs from the derived one, transcribed verbatim from the derivation
  these formulas originate from -- including its transcription slips --
  so the validation report can show exactly where they deviate.  Being
  literal transcriptions they use plain products and may overflow outside
  the moderate-parameter regime they were stated for.
* adaptive panel integration of the below-threshold kernel on the same
  panels (:func:`below_threshold_term_integral`), with none of the fixed
  rule's tail truncation: a check of that kernel against the oracle.

:mod:`crul.crosscheck` puts one route per term on the rate path: the
``derived`` form where it is within tolerance of the oracle's term, and
that term otherwise.  The ``stated`` forms, the merged tail and the
adaptive below-threshold integral are report-only: the deviation report
tabulates them, and an arbitrated rate never runs them.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ScenarioConfig
from .panels import REL_TOL, panel_integral
from .specfun import (
    E1_SERIES_MAX,
    EULER_GAMMA,
    e1_cf_factor,
    ei_series_sum,
    expint_ei,
    gauss_laguerre,
    log_e1,
)

LN2 = math.log(2.0)

#: Relative width ``(b - a)/b`` below which :func:`split_band_term` takes the
#: midpoint derivative: the divided difference divides the scaled E1's error
#: (up to 2.4e-13 relative near its series switch) by the width, the
#: derivative about the width's square; next to the switch both reach ~6e-10.
MIDPOINT_REL_GAP = 3e-5

#: Order of the half-line rule every fixed-rule closed form is evaluated on.
DEFAULT_NODES = 100


def _scaled_e1(arg: float) -> float:
    """``exp(arg) * E1(arg)`` for ``arg > 0``, near ``1/arg`` when ``arg`` is large.

    The factors over/underflow separately while the product stays modest.
    Past the series range the product is the continued fraction itself:
    ``exp(arg + log_e1(arg))`` would cancel two numbers of size ``arg``.
    """
    if arg > E1_SERIES_MAX:
        return e1_cf_factor(arg)
    return math.exp(arg + log_e1(arg))


# --------------------------------------------- derived forms


def ratio_density(z, scenario: ScenarioConfig):
    """Defective density of ``gamma_su/(1+gamma_pu)`` on the protected event.

    Integrates to ``Pr{gamma_pu < theta}`` rather than one: it carries only
    the probability mass of the event where the primary link misses its
    SINR target.  Accepts scalars or arrays.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("ratio must be >= 0")
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    denom = lam_p + lam_s * z_arr
    result = lam_s * lam_p * np.exp(-lam_s * z_arr) * (1.0 / denom + 1.0 / denom**2) - (
        lam_s
        * lam_p
        * math.exp(-lam_p * theta)
        * np.exp(-lam_s * (1.0 + theta) * z_arr)
        * ((1.0 + theta) / denom + 1.0 / denom**2)
    )
    if np.ndim(z) == 0:
        return float(result)
    return result


def below_threshold_term(scenario: ScenarioConfig) -> float:
    """Rate contribution of the protected-primary event, by quadrature.

    Weighted sum of ``log2(1+z)`` times the ratio density over the
    half-line rule's nodes.
    """
    rule = gauss_laguerre(DEFAULT_NODES)
    density = ratio_density(rule.nodes, scenario)
    return float(np.sum(rule.integration_weights * np.log2(1.0 + rule.nodes) * density))


def below_threshold_term_integral(scenario: ScenarioConfig) -> float:
    """Same contribution by adaptive integration of the ratio density."""
    integrand = lambda z: np.log2(1.0 + z) * ratio_density(z, scenario)
    return panel_integral(integrand, 1.0 / scenario.lambda_su, REL_TOL)


def split_band_term(scenario: ScenarioConfig) -> float:
    """Closed form of the rate earned inside the contested band.

    Covers the event where the primary meets its target only thanks to the
    secondary's split (or reduced) transmission; the rate-splitting
    protocol earns ``log2((1+x+y)/(1+theta))`` there.  It is
    ``-exp(-lambda_pu theta) lambda_pu theta b / ln 2`` times the divided
    difference of ``k(t) = exp(t) E1(t)/t`` over ``a = lambda_su +
    lambda_pu theta`` and ``b = lambda_su (1 + theta)``, or its midpoint
    derivative where ``b - a`` (near-equal rates, a tiny target) is too
    small against ``b`` to keep the difference's digits.
    """
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    a, b = lam_s + lam_p * theta, lam_s * (1.0 + theta)
    if abs(b - a) < MIDPOINT_REL_GAP * b:
        m = 0.5 * (a + b)
        slope = (_scaled_e1(m) * (m - 1.0) - 1.0) / (m * m)
    else:
        slope = (_scaled_e1(b) / b - _scaled_e1(a) / a) / (b - a)
    return -math.exp(-lam_p * theta) * lam_p * theta * b * slope / LN2


def clear_channel_term(scenario: ScenarioConfig) -> float:
    """Closed form of the rate earned when the primary tolerates full power."""
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    ei_arg_band = lam_s + lam_p * theta
    return math.exp(-lam_p * theta) * lam_s * _scaled_e1(ei_arg_band) / (ei_arg_band * LN2)


# --------------------------------------------- printed forms


#: Relative spread below which the printed split band takes the two rate
#: parameters as equal, switching to its branch free of their difference.
EQUAL_RATE_REL_TOL = 1e-9


def _equal_rates(scenario: ScenarioConfig) -> bool:
    lam_p, lam_s = scenario.lambda_pu, scenario.lambda_su
    return abs(lam_s - lam_p) < EQUAL_RATE_REL_TOL * max(lam_s, lam_p)


def _stated_density(z, scenario: ScenarioConfig):
    """:func:`ratio_density` as printed, for ``z >= 0``: its second term
    swaps the two rate parameters, so it is right only at equal rates."""
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    denom = lam_p + lam_s * z
    return (
        lam_s * lam_p * np.exp(-lam_s * z) / denom
        - lam_p * lam_s * math.exp(-lam_s * theta) * np.exp(-lam_p * (1.0 + theta) * z)
        / denom**2
        + lam_s * lam_p * np.exp(-lam_s * z) / denom**2
        - lam_p
        * lam_s
        * (1.0 + theta)
        * math.exp(-lam_p * theta)
        * np.exp(-lam_s * (1.0 + theta) * z)
        / denom
    )


def below_threshold_stated(scenario: ScenarioConfig) -> float:
    """:func:`below_threshold_term` on the printed ratio density."""
    rule = gauss_laguerre(DEFAULT_NODES)
    density = _stated_density(rule.nodes, scenario)
    return float(np.sum(rule.integration_weights * np.log2(1.0 + rule.nodes) * density))


def _stated_branch(scenario: ScenarioConfig) -> float:
    """The printed split band's two-branch piece: a generic one over
    ``lambda_pu - lambda_su``, and its analytic limit at equal rates."""
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    if _equal_rates(scenario):
        return (
            lam_s * theta / LN2
            + lam_s * theta * (lam_p * theta + 1.0) / (LN2 * (1.0 + theta) * lam_p)
        ) * math.exp(lam_p) * expint_ei(-lam_p * (theta + 1.0)) + (
            lam_p * theta * math.exp(-lam_p * theta) / (LN2 * (1.0 + theta) * lam_p)
        )
    return (lam_s * math.exp(lam_s) / ((lam_p - lam_s) * LN2)) * (
        expint_ei(-(lam_s + lam_p * theta))
        - math.exp(theta * (lam_p - lam_s)) * expint_ei(-lam_s * (1.0 + theta))
    )


def split_band_stated(scenario: ScenarioConfig) -> float:
    """:func:`split_band_term` as printed, in plain products that overflow
    outside the moderate parameters it was stated for."""
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    ei_arg_band = lam_s + lam_p * theta
    head = (
        (lam_s * math.exp(lam_p * theta) / (LN2 * ei_arg_band))
        * math.exp(lam_p * theta + lam_s)
        * expint_ei(-ei_arg_band)
    )
    middle = -(1.0 / LN2) * math.exp(theta * (lam_s - lam_p) + lam_s) * expint_ei(
        -lam_s * (1.0 + theta)
    )
    return head + middle + _stated_branch(scenario)


def clear_channel_stated(scenario: ScenarioConfig) -> float:
    """:func:`clear_channel_term` as printed, with a stray
    ``exp(-lambda_pu*theta)`` prefactor squared."""
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    ei_arg_band = lam_s + lam_p * theta
    return (
        -(lam_s * math.exp(-lam_p * theta) / (LN2 * ei_arg_band))
        * math.exp(-lam_p * theta + lam_s)
        * expint_ei(-ei_arg_band)
    )


def merged_tail_stated(scenario: ScenarioConfig) -> float:
    """Split-band plus clear-channel terms as merged in the stated headline.

    The stated headline formula folds the two closed forms into a single
    expression with an ``exp(lambda_pu*theta) - exp(-lambda_pu*theta)``
    factor; re-derivation shows the two leading pieces actually cancel.
    """
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    ei_arg_band = lam_s + lam_p * theta
    merged = (
        (lam_s * (math.exp(lam_p * theta) - math.exp(-lam_p * theta)) / (LN2 * ei_arg_band))
        * math.exp(lam_p * theta + lam_s)
        * expint_ei(-ei_arg_band)
    )
    second = (
        -(1.0 / LN2)
        * math.exp(theta * (lam_s - lam_p) + lam_s)
        * expint_ei(-lam_s * (theta + 1.0))
    )
    return merged + second + _stated_branch(scenario)


# --------------------------------------------- pure-SIC terms


def _scaled_e1_array(args: np.ndarray) -> np.ndarray:
    """:func:`_scaled_e1` over an array ``args > 0``, in one pass per branch."""
    small = args <= E1_SERIES_MAX
    result = np.empty_like(args)
    series = args[small]
    result[small] = -np.exp(series) * (EULER_GAMMA + np.log(series) + ei_series_sum(-series))
    result[~small] = e1_cf_factor(args[~small])
    return result


def _preferred_kernel(v, scenario: ScenarioConfig):
    """The preferred-order kernel at primary excess ``v``.

    Pure SIC's band cells are written over ``v``, with the primary SNR ``x
    = theta (1 + v)`` and the secondary SNR ``y`` integrated out exactly:
    the band holds ``y > v`` and the cells meet at ``s = (1 + x) v``.  Over
    ``y > s`` the rate ``log2(1 + y/(1+x))`` averages to ``ln(1 + v) +
    g(lambda_su (1 + x)(1 + v))`` over ``ln 2``, ``g(a) = exp(a) E1(a)``;
    the kernel is that average times the primary density and ``Pr{y > s}``.
    """
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    pu = theta * (1.0 + v)
    weight = lam_p * theta * np.exp(-lam_p * pu - lam_s * (1.0 + pu) * v) / LN2
    return weight * (np.log1p(v) + _scaled_e1_array(lam_s * (1.0 + pu) * (1.0 + v)))


def _reduced_kernel(v, scenario: ScenarioConfig):
    """The reduced-power kernel at primary excess ``v``: the primary
    density times ``log2(x/theta) Pr{v < y < s}``, with ``exp(-lambda_su
    v)`` factored out of the probability so a thin cell keeps its digits."""
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    pu = theta * (1.0 + v)
    density = lam_p * theta * np.exp(-lam_p * pu - lam_s * v) / LN2
    return density * np.log1p(v) * -np.expm1(-lam_s * pu * v)


def reduced_power_term(scenario: ScenarioConfig) -> float:
    """Rate contribution of the reduced-power event, by adaptive integration
    of its kernel, which decays at ``lambda_pu theta + lambda_su`` in ``v``."""
    kernel = lambda v: _reduced_kernel(v, scenario)
    decay = scenario.lambda_pu * scenario.theta + scenario.lambda_su
    return panel_integral(kernel, 1.0 / decay, REL_TOL)


def preferred_order_term(scenario: ScenarioConfig) -> float:
    """Rate contribution of the swapped decoding order, by adaptive
    integration of its kernel, on the scale of the ``v`` where the kernel's
    exponent ``a v + b v**2`` reaches 1."""
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    a, b = lam_p * theta + lam_s * (1.0 + theta), lam_s * theta
    kernel = lambda v: _preferred_kernel(v, scenario)
    return panel_integral(kernel, 2.0 / (a + math.sqrt(a * a + 4.0 * b)), REL_TOL)


# perfbench/spans.py wraps these two names; they are the routes above.
reduced_power_term_integral = reduced_power_term
preferred_order_term_integral = preferred_order_term
