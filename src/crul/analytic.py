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

Every piece is available in more than one route so they can be cross-checked
term by term:

* ``derived`` closed forms, re-derived from scratch.  Products of
  exponentials with the exponential integral are evaluated in log space
  (via :func:`crul.specfun.log_e1`) so extreme rate parameters cannot
  overflow.
* ``stated`` closed forms of the terms whose printed form differs from
  the derived one, transcribed verbatim from the derivation these
  formulas originate from -- including its transcription slips -- so the
  validation report can show exactly where they deviate.  Being literal
  transcriptions they use plain products and may overflow outside the
  moderate-parameter regime they were stated for.
* fixed half-line quadrature of the kernels (the headline approximation
  route).
* adaptive panel integration of the same kernels on the Gauss-Kronrod
  panels of :mod:`crul.panels`.  This removes the fixed rule's tail
  truncation: the largest order-100 node is near 375, so a kernel
  decaying like ``exp(-lambda_su * x)`` loses visible mass once
  ``1/lambda_su`` grows past the node range.

:mod:`crul.crosscheck` arbitrates between the routes term by term against
the adaptive-integration oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ScenarioConfig
from .panels import REL_TOL, exponential_expectation, panel_integral
from .protocols import switch_level
from .specfun import (
    E1_SERIES_MAX,
    QuadratureRule,
    ei_series_sum,
    expint_ei,
    gauss_laguerre,
    log_e1,
)

LN2 = math.log(2.0)

#: Relative spread below which the two rate parameters are treated as equal
#: and the branch terms switch to their analytic limit; the generic branch
#: divides by the difference and loses all precision near coincidence.
EQUAL_RATE_REL_TOL = 1e-9

DERIVED = "derived"
STATED = "stated"


def _check_variant(variant: str) -> None:
    if variant not in (DERIVED, STATED):
        raise ValueError(f"variant must be {DERIVED!r} or {STATED!r}, got {variant!r}")


@dataclass(frozen=True)
class AnalyticParams:
    """Immutable inputs of the closed-form rate approximations.

    ``rule`` drives every quadrature sum, both axes of the double sum in
    the preferred-order term included.
    """

    lambda_pu: float
    lambda_su: float
    theta: float
    rule: QuadratureRule = field(default_factory=lambda: gauss_laguerre(100))

    def __post_init__(self) -> None:
        for name in ("lambda_pu", "lambda_su", "theta"):
            value = getattr(self, name)
            if name == "theta" and value == 0.0:
                continue  # a primary with no rate target: only the clear channel
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")

    @classmethod
    def from_scenario(cls, scenario: ScenarioConfig, nodes: int = 100) -> "AnalyticParams":
        return cls(
            lambda_pu=scenario.lambda_pu,
            lambda_su=scenario.lambda_su,
            theta=scenario.theta,
            rule=gauss_laguerre(nodes),
        )

    @property
    def equal_rates(self) -> bool:
        return abs(self.lambda_su - self.lambda_pu) < EQUAL_RATE_REL_TOL * max(
            self.lambda_su, self.lambda_pu
        )


def _exp_ei_neg(exponent: float, arg: float) -> float:
    """``exp(exponent) * Ei(-arg)`` for ``arg > 0``, evaluated in log space.

    The factors routinely over/underflow separately (e.g. ``exp(lambda_su)``
    against ``Ei(-lambda_su*(1+theta))``) while the product stays modest.
    """
    return -math.exp(exponent + log_e1(arg))


# --------------------------------------------- below-threshold term


def ratio_density(z, params: AnalyticParams, variant: str = DERIVED):
    """Defective density of ``gamma_su/(1+gamma_pu)`` on the protected event.

    Integrates to ``Pr{gamma_pu < theta}`` rather than one: it carries only
    the probability mass of the event where the primary link misses its
    SINR target.  Accepts scalars or arrays.

    The stated variant swaps the two rate parameters inside its second
    term; it is kept verbatim for the validation report and can go
    negative, whereas the derived variant is a true (defective) density.
    """
    _check_variant(variant)
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("ratio must be >= 0")
    lam_p, lam_s, theta = params.lambda_pu, params.lambda_su, params.theta
    denom = lam_p + lam_s * z_arr
    if variant == DERIVED:
        result = lam_s * lam_p * np.exp(-lam_s * z_arr) * (1.0 / denom + 1.0 / denom**2) - (
            lam_s
            * lam_p
            * math.exp(-lam_p * theta)
            * np.exp(-lam_s * (1.0 + theta) * z_arr)
            * ((1.0 + theta) / denom + 1.0 / denom**2)
        )
    else:
        result = (
            lam_s * lam_p * np.exp(-lam_s * z_arr) / denom
            - lam_p * lam_s * math.exp(-lam_s * theta) * np.exp(-lam_p * (1.0 + theta) * z_arr)
            / denom**2
            + lam_s * lam_p * np.exp(-lam_s * z_arr) / denom**2
            - lam_p
            * lam_s
            * (1.0 + theta)
            * math.exp(-lam_p * theta)
            * np.exp(-lam_s * (1.0 + theta) * z_arr)
            / denom
        )
    if np.ndim(z) == 0:
        return float(result)
    return result


def below_threshold_term(params: AnalyticParams, variant: str = DERIVED) -> float:
    """Rate contribution of the protected-primary event, by quadrature.

    Weighted sum of ``log2(1+z)`` times the ratio density over the
    half-line rule's nodes.
    """
    rule = params.rule
    density = ratio_density(rule.nodes, params, variant)
    return float(np.sum(rule.integration_weights * np.log2(1.0 + rule.nodes) * density))


def below_threshold_term_integral(params: AnalyticParams) -> float:
    """Same contribution by adaptive integration of the ratio density."""
    integrand = lambda z: np.log2(1.0 + z) * ratio_density(z, params)
    return panel_integral(integrand, 0.0, 1.0 / params.lambda_su, REL_TOL)


# --------------------------------------------- split-band closed form


def split_band_branch_term(params: AnalyticParams, variant: str = DERIVED) -> float:
    """The piece of the split-band closed form with two algebraic branches.

    Its shape depends on whether the two rate parameters coincide; the
    generic branch carries a ``1/(lambda_su - lambda_pu)`` factor whose
    cancellation the equal branch resolves analytically.
    """
    _check_variant(variant)
    lam_p, lam_s, theta = params.lambda_pu, params.lambda_su, params.theta
    ei_arg_full = lam_s * (1.0 + theta)
    if variant == DERIVED:
        if params.equal_rates:
            lam = lam_s
            return (1.0 / LN2) * (
                lam * theta * _exp_ei_neg(lam, lam * (1.0 + theta))
                + theta * math.exp(-lam * theta) / (1.0 + theta)
            )
        diff = lam_s - lam_p
        ei_arg_band = lam_s + lam_p * theta
        return (1.0 / LN2) * (lam_s / diff) * (
            _exp_ei_neg(lam_s + theta * diff, ei_arg_full) - _exp_ei_neg(lam_s, ei_arg_band)
        )
    if params.equal_rates:
        return (
            lam_s * theta / LN2
            + lam_s * theta * (lam_p * theta + 1.0) / (LN2 * (1.0 + theta) * lam_p)
        ) * math.exp(lam_p) * expint_ei(-lam_p * (theta + 1.0)) + (
            lam_p * theta * math.exp(-lam_p * theta) / (LN2 * (1.0 + theta) * lam_p)
        )
    return (lam_s * math.exp(lam_s) / ((lam_p - lam_s) * LN2)) * (
        expint_ei(-(lam_s + lam_p * theta))
        - math.exp(theta * (lam_p - lam_s)) * expint_ei(-ei_arg_full)
    )


def split_band_term(params: AnalyticParams, variant: str = DERIVED) -> float:
    """Closed form of the rate earned inside the contested band.

    Covers the event where the primary meets its target only thanks to the
    secondary's split (or reduced) transmission; the rate-splitting
    protocol earns ``log2((1+x+y)/(1+theta))`` there.
    """
    _check_variant(variant)
    lam_p, lam_s, theta = params.lambda_pu, params.lambda_su, params.theta
    ei_arg_band = lam_s + lam_p * theta
    ei_arg_full = lam_s * (1.0 + theta)
    branch = split_band_branch_term(params, variant)
    if variant == DERIVED:
        diff = lam_s - lam_p
        head = -_exp_ei_neg(lam_s + theta * diff, ei_arg_full)
        middle = lam_s * _exp_ei_neg(lam_s, ei_arg_band) / ei_arg_band
        return (1.0 / LN2) * (head + middle) + branch
    head = (
        (lam_s * math.exp(lam_p * theta) / (LN2 * ei_arg_band))
        * math.exp(lam_p * theta + lam_s)
        * expint_ei(-ei_arg_band)
    )
    middle = -(1.0 / LN2) * math.exp(theta * (lam_s - lam_p) + lam_s) * expint_ei(-ei_arg_full)
    return head + middle + branch


def clear_channel_term(params: AnalyticParams, variant: str = DERIVED) -> float:
    """Closed form of the rate earned when the primary tolerates full power.

    The stated variant carries a stray ``exp(-lambda_pu*theta)`` prefactor
    squared; kept for the validation report.
    """
    _check_variant(variant)
    lam_p, lam_s, theta = params.lambda_pu, params.lambda_su, params.theta
    ei_arg_band = lam_s + lam_p * theta
    if variant == DERIVED:
        return -(1.0 / LN2) * lam_s * _exp_ei_neg(lam_s, ei_arg_band) / ei_arg_band
    return (
        -(lam_s * math.exp(-lam_p * theta) / (LN2 * ei_arg_band))
        * math.exp(-lam_p * theta + lam_s)
        * expint_ei(-ei_arg_band)
    )


def merged_tail_stated(params: AnalyticParams) -> float:
    """Split-band plus clear-channel terms as merged in the stated headline.

    The stated headline formula folds the two closed forms into a single
    expression with an ``exp(lambda_pu*theta) - exp(-lambda_pu*theta)``
    factor; re-derivation shows the two leading pieces actually cancel.
    Preserved verbatim for the validation report.
    """
    lam_p, lam_s, theta = params.lambda_pu, params.lambda_su, params.theta
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
    return merged + second + split_band_branch_term(params, STATED)


# --------------------------------------------- pure-SIC terms


def order_switch_threshold(su_snr: float, theta: float) -> float:
    """Primary SNR above which decoding the primary first beats swapping.

    Below it, the secondary's full-power rate under primary interference
    exceeds the reduced-power rate, so the secondary is decoded first.
    Inverse of :func:`crul.protocols.switch_level`: the same curve, sliced
    along the other axis.
    """
    if theta <= 0.0:
        raise ValueError(f"threshold must be > 0, got {theta}")
    if su_snr < 0.0:
        raise ValueError(f"secondary SNR must be >= 0, got {su_snr}")
    return 0.5 * (theta - 1.0 + math.sqrt((theta + 1.0) ** 2 + 4.0 * theta * su_snr))


def reduced_power_kernel(su_snr: float, params: AnalyticParams) -> float:
    """Closed-form inner integral of the reduced-power rate at one SU SNR.

    For fixed secondary SNR ``x``, integrates ``log2(y/theta)`` over the
    primary band where the secondary transmits at reduced power, times the
    secondary density factor.  Vanishes at ``x = 0`` (the band collapses)
    and is nonnegative everywhere.

    This is the derived form; the stated one is the same algebra with its
    terms in another order.  The bracket of exponentials, logs and ``Ei``
    values is O(1) term by term but O(lambda_pu) in sum, so at strong
    primaries it would cancel away its digits.  Where the exponential
    integrals take their power series (``lambda_pu * theta * (x + 1) <=
    4``), it is written with ``Ei(-z) = gamma + log z + S(-z)`` instead:
    the constants and logs cancel exactly and every term left is
    O(lambda_pu).
    """
    if su_snr < 0.0:
        raise ValueError(f"secondary SNR must be >= 0, got {su_snr}")
    lam_p, lam_s, theta = params.lambda_pu, params.lambda_su, params.theta
    switch = order_switch_threshold(su_snr, theta)
    band_edge = theta * (su_snr + 1.0)
    if switch >= band_edge:
        # Empty band: analytically only at su_snr == 0, but rounding in
        # the square root can land the switch point one ulp past the edge.
        return 0.0
    density = lam_s * math.exp(-lam_s * su_snr) / LN2
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


def reduced_power_term(params: AnalyticParams) -> float:
    """Rate contribution of the reduced-power event, by quadrature."""
    rule = params.rule
    return math.fsum(
        weight * reduced_power_kernel(node, params)
        for node, weight in zip(rule.nodes, rule.integration_weights)
    )


def reduced_power_term_integral(params: AnalyticParams) -> float:
    """Same contribution by adaptive integration of the closed-form kernel."""
    integrand = np.vectorize(lambda x: reduced_power_kernel(x, params), otypes=[float])
    return panel_integral(integrand, 0.0, 1.0 / params.lambda_su, REL_TOL)


def preferred_order_kernel(su_snr, pu_snr, params: AnalyticParams):
    """Joint-density-weighted secondary rate for the swapped decoding order.

    ``log2(1 + x/(1+y))`` times the joint exponential density, evaluated
    at secondary SNR ``x`` and primary SNR ``y``.  Accepts scalars or
    arrays (broadcasting).
    """
    lam_p, lam_s = params.lambda_pu, params.lambda_su
    return (
        np.log2(1.0 + np.asarray(su_snr) / (1.0 + np.asarray(pu_snr)))
        * lam_s
        * lam_p
        * np.exp(-lam_s * np.asarray(su_snr))
        * np.exp(-lam_p * np.asarray(pu_snr))
    )


def preferred_order_term(params: AnalyticParams) -> float:
    """Rate contribution of the swapped decoding order, by double quadrature.

    Both axes are shifted: the primary axis starts at the protection
    threshold, the secondary axis at the order-switch boundary for that
    primary SNR.
    """
    rule = params.rule
    pu = rule.nodes + params.theta
    su = rule.nodes[:, None] + switch_level(pu, params.theta)[None, :]
    values = preferred_order_kernel(su, pu[None, :], params)
    weights = rule.integration_weights
    return float(np.einsum("i,j,ij->", weights, weights, values))


def preferred_order_term_integral(params: AnalyticParams) -> float:
    """Same contribution by adaptive integration over the swapped-order region.

    The primary axis starts at the protection threshold and each secondary
    slice at the order-switch boundary, as in :func:`preferred_order_term`.
    """
    theta = params.theta
    return exponential_expectation(
        lambda pu_snr, su_snr: np.log2(1.0 + su_snr / (1.0 + pu_snr)),
        params.lambda_pu,
        params.lambda_su,
        REL_TOL,
        x_lower=theta,
        y_lower=functools.partial(switch_level, theta=theta),
    )
