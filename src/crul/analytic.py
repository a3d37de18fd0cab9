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

Every form reads a :class:`crul.channel.ScenarioConfig`, the triple
``(lambda_pu, lambda_su, theta)``.  A form with a quadrature also takes
its half-line rule, which drives every sum it makes, both axes of the
preferred-order double sum included.

Every piece is available in more than one route so they can be cross-checked
term by term:

* ``derived`` closed forms, re-derived from scratch.  Products of
  exponentials with the exponential integral are formed as
  ``exp(a) E1(a)``, the continued fraction itself past the series range
  and ``exp(a + log_e1(a))`` below it, so extreme rate parameters neither
  overflow nor cancel away their digits.  Where a term needs a
  quadrature, it is the fixed half-line rule of the kernel (the headline
  approximation route).
* ``stated`` closed forms of the terms whose printed form differs from
  the derived one, transcribed verbatim from the derivation these
  formulas originate from -- including its transcription slips -- so the
  validation report can show exactly where they deviate.  Being literal
  transcriptions they use plain products and may overflow outside the
  moderate-parameter regime they were stated for.
* adaptive panel integration of the same kernels on the Gauss-Kronrod
  panels of :mod:`crul.panels` (the ``*_integral`` functions).  These
  have none of the fixed rule's tail truncation -- the largest order-100
  node is near 375, so a kernel decaying like ``exp(-lambda_su * x)``
  loses visible mass once ``1/lambda_su`` grows past the node range --
  and serve as checks of the kernels against the oracle.

The reduced-power kernel is one array pass over the rule's nodes.  Its
bracket reads only ``(lambda_pu, theta)`` and the rule, so it is
memoised per rule and shared by pure SIC and its power-normalized twin,
which differ only in ``lambda_su``.

:mod:`crul.crosscheck` puts one route per term on the rate path: the
``derived`` form where it is within tolerance of the oracle's term, and
that term otherwise.  The ``stated`` forms, the merged tail and the
adaptive kernel integrals are report-only: the deviation report
tabulates them, and an arbitrated rate never runs them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channel import ScenarioConfig
from .panels import REL_TOL, exponential_expectation, panel_integral
from .protocols import switch_edge, switch_level
from .specfun import (
    E1_SERIES_MAX,
    EULER_GAMMA,
    QuadratureRule,
    e1_cf_factor,
    ei_series_sum,
    expint_ei,
    gauss_laguerre,  # noqa: F401 - crosscheck builds its rule by this name, which perfbench spans
    log_e1,
)

LN2 = math.log(2.0)

#: Relative spread below which the two rate parameters are treated as equal
#: and the branch terms switch to their analytic limit; the generic branch
#: divides by the difference and loses all precision near coincidence.
EQUAL_RATE_REL_TOL = 1e-9


def _equal_rates(scenario: ScenarioConfig) -> bool:
    lam_p, lam_s = scenario.lambda_pu, scenario.lambda_su
    return abs(lam_s - lam_p) < EQUAL_RATE_REL_TOL * max(lam_s, lam_p)


#: Order of the half-line rule the fixed-rule closed forms are evaluated
#: on unless the caller asks for another.
DEFAULT_NODES = 100

DERIVED = "derived"
STATED = "stated"


def _check_variant(variant: str) -> None:
    if variant not in (DERIVED, STATED):
        raise ValueError(f"variant must be {DERIVED!r} or {STATED!r}, got {variant!r}")


def _scaled_e1(arg: float) -> float:
    """``exp(arg) * E1(arg)`` for ``arg > 0``, near ``1/arg`` when ``arg`` is large.

    The factors over/underflow separately while the product stays modest.
    Past the series range the product is the continued fraction itself:
    ``exp(arg + log_e1(arg))`` would cancel two numbers of size ``arg``.
    """
    if arg > E1_SERIES_MAX:
        return e1_cf_factor(arg)
    return math.exp(arg + log_e1(arg))


# --------------------------------------------- below-threshold term


def ratio_density(z, scenario: ScenarioConfig, variant: str = DERIVED):
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
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
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


def below_threshold_term(
    scenario: ScenarioConfig, rule: QuadratureRule, variant: str = DERIVED
) -> float:
    """Rate contribution of the protected-primary event, by quadrature.

    Weighted sum of ``log2(1+z)`` times the ratio density over the
    half-line rule's nodes.
    """
    density = ratio_density(rule.nodes, scenario, variant)
    return float(np.sum(rule.integration_weights * np.log2(1.0 + rule.nodes) * density))


def below_threshold_term_integral(scenario: ScenarioConfig) -> float:
    """Same contribution by adaptive integration of the ratio density."""
    integrand = lambda z: np.log2(1.0 + z) * ratio_density(z, scenario)
    return panel_integral(integrand, 0.0, 1.0 / scenario.lambda_su, REL_TOL)


# --------------------------------------------- split-band closed form


def split_band_branch_term(scenario: ScenarioConfig, variant: str = DERIVED) -> float:
    """The piece of the split-band closed form with two algebraic branches.

    Its shape depends on whether the two rate parameters coincide; the
    generic branch carries a ``1/(lambda_su - lambda_pu)`` factor whose
    cancellation the equal branch resolves analytically.  The derived form
    has only the equal branch: at unequal rates :func:`split_band_term`
    collects its pieces into one expression.
    """
    _check_variant(variant)
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    ei_arg_full = lam_s * (1.0 + theta)
    if variant == DERIVED:
        if not _equal_rates(scenario):
            raise ValueError("the derived branch stands apart only at equal rates")
        clear = math.exp(-lam_s * theta)
        return (1.0 / LN2) * (
            -lam_s * theta * clear * _scaled_e1(ei_arg_full) + theta * clear / (1.0 + theta)
        )
    if _equal_rates(scenario):
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


def split_band_term(scenario: ScenarioConfig, variant: str = DERIVED) -> float:
    """Closed form of the rate earned inside the contested band.

    Covers the event where the primary meets its target only thanks to the
    secondary's split (or reduced) transmission; the rate-splitting
    protocol earns ``log2((1+x+y)/(1+theta))`` there.  The derived form's
    pieces are each O(1/lambda_su) and cancel to O(1/lambda_su**2), so at
    unequal rates it is one expression in ``g = exp(a) E1(a)``.
    """
    _check_variant(variant)
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    ei_arg_band = lam_s + lam_p * theta
    ei_arg_full = lam_s * (1.0 + theta)
    if variant == DERIVED:
        clear = math.exp(-lam_p * theta)
        g_band, g_full = _scaled_e1(ei_arg_band), _scaled_e1(ei_arg_full)
        if not _equal_rates(scenario):
            denominator = (lam_s - lam_p) * LN2
            return clear * lam_p * (ei_arg_full * g_band / ei_arg_band - g_full) / denominator
        head, middle = clear * g_full, -lam_s * clear * g_band / ei_arg_band
        return (1.0 / LN2) * (head + middle) + split_band_branch_term(scenario)
    head = (
        (lam_s * math.exp(lam_p * theta) / (LN2 * ei_arg_band))
        * math.exp(lam_p * theta + lam_s)
        * expint_ei(-ei_arg_band)
    )
    middle = -(1.0 / LN2) * math.exp(theta * (lam_s - lam_p) + lam_s) * expint_ei(-ei_arg_full)
    return head + middle + split_band_branch_term(scenario, variant)


def clear_channel_term(scenario: ScenarioConfig, variant: str = DERIVED) -> float:
    """Closed form of the rate earned when the primary tolerates full power.

    The stated variant carries a stray ``exp(-lambda_pu*theta)`` prefactor
    squared; kept for the validation report.
    """
    _check_variant(variant)
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    ei_arg_band = lam_s + lam_p * theta
    if variant == DERIVED:
        return math.exp(-lam_p * theta) * lam_s * _scaled_e1(ei_arg_band) / (ei_arg_band * LN2)
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
    Preserved verbatim for the validation report.
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
    return merged + second + split_band_branch_term(scenario, STATED)


# --------------------------------------------- pure-SIC terms


def _reduced_power_bracket(su_snr: np.ndarray, lambda_pu: float, theta: float) -> np.ndarray:
    """The reduced-power kernel without its secondary density factor.

    Zero where the band is empty.  Where the exponential integrals take
    their power series, the bracket is written with ``Ei(-z) = gamma +
    log z + S(-z)`` so its constants and logs cancel exactly; elsewhere it
    takes ``Ei`` itself (see :func:`reduced_power_kernel`).
    """
    switch = switch_edge(su_snr, theta)
    band_edge = theta * (su_snr + 1.0)
    # Empty band: analytically only at su_snr == 0, but rounding in the
    # square root can land the switch point one ulp past the edge.  A NaN
    # SNR stays NaN.
    empty = switch >= band_edge
    bracket = np.where(empty, 0.0, np.nan)
    band = ~empty
    # Row 0 at the band edge, row 1 at the switch point.
    edges = np.stack([band_edge[band], switch[band]])
    z, logs = lambda_pu * edges, np.log(edges / theta)
    # One series pass for every z up to 4 and one continued fraction for
    # every z up to 745; past that the fraction stays 0, so Ei(-z) is -0.0
    # as in expint_ei.
    small, moderate = z <= E1_SERIES_MAX, (z > E1_SERIES_MAX) & (z <= 745.0)
    sums, fractions = np.zeros_like(z), np.zeros_like(z)
    sums[small] = ei_series_sum(-z[small])
    fractions[moderate] = e1_cf_factor(z[moderate])
    ei = np.where(small, EULER_GAMMA + np.log(z) + sums, -np.exp(-z) * fractions)
    series_form = np.expm1(-z) * logs
    ei_form = np.exp(-z) * logs
    bracket[band] = np.where(
        small[0],  # the band edge in the series range puts the switch point there too
        (series_form[1] - series_form[0]) + (sums[0] - sums[1]),
        ei_form[1] - ei_form[0] + ei[0] - ei[1],
    )
    return bracket


@functools.lru_cache(maxsize=64)
def _rule_bracket(lambda_pu: float, theta: float, rule: QuadratureRule) -> np.ndarray:
    """The bracket at a rule's nodes, memoised per primary rate, threshold
    and rule (by identity): pure SIC and its power-normalized twin share it."""
    bracket = _reduced_power_bracket(rule.nodes, lambda_pu, theta)
    bracket.flags.writeable = False
    return bracket


def reduced_power_kernel(su_snr, scenario: ScenarioConfig):
    """Closed-form inner integral of the reduced-power rate at SU SNR ``x``.

    For fixed secondary SNR ``x``, integrates ``log2(y/theta)`` over the
    primary band where the secondary transmits at reduced power, times the
    secondary density factor.  Vanishes at ``x = 0`` (the band collapses)
    and is nonnegative everywhere.  Accepts scalars or arrays; an array is
    one pass, each element on its own branch below.

    This is the derived form; the stated one is the same algebra with its
    terms in another order.  The bracket of exponentials, logs and ``Ei``
    values is O(1) term by term but O(lambda_pu) in sum, so at strong
    primaries it would cancel away its digits.  Where the exponential
    integrals take their power series (``lambda_pu * theta * (x + 1) <=
    4``), it is written with ``Ei(-z) = gamma + log z + S(-z)`` instead:
    the constants and logs cancel exactly and every term left is
    O(lambda_pu).
    """
    x = np.asarray(su_snr, dtype=float)
    lam_s = scenario.lambda_su
    density = lam_s * np.exp(-lam_s * x) / LN2
    result = density * _reduced_power_bracket(x, scenario.lambda_pu, scenario.theta)
    if np.ndim(su_snr) == 0:
        return float(result)
    return result


def reduced_power_term(scenario: ScenarioConfig, rule: QuadratureRule) -> float:
    """Rate contribution of the reduced-power event, by quadrature."""
    lam_s = scenario.lambda_su
    density = lam_s * np.exp(-lam_s * rule.nodes) / LN2
    bracket = _rule_bracket(scenario.lambda_pu, scenario.theta, rule)
    return math.fsum(rule.integration_weights * (density * bracket))


def reduced_power_term_integral(scenario: ScenarioConfig) -> float:
    """Same contribution by adaptive integration of the closed-form kernel."""
    integrand = lambda x: reduced_power_kernel(x, scenario)
    return panel_integral(integrand, 0.0, 1.0 / scenario.lambda_su, REL_TOL)


def preferred_order_kernel(su_snr, pu_snr, scenario: ScenarioConfig):
    """Joint-density-weighted secondary rate for the swapped decoding order.

    ``log2(1 + x/(1+y))`` times the joint exponential density, evaluated
    at secondary SNR ``x`` and primary SNR ``y``.  Accepts scalars or
    arrays (broadcasting).
    """
    lam_p, lam_s = scenario.lambda_pu, scenario.lambda_su
    return (
        np.log2(1.0 + np.asarray(su_snr) / (1.0 + np.asarray(pu_snr)))
        * lam_s
        * lam_p
        * np.exp(-lam_s * np.asarray(su_snr))
        * np.exp(-lam_p * np.asarray(pu_snr))
    )


def preferred_order_term(scenario: ScenarioConfig, rule: QuadratureRule) -> float:
    """Rate contribution of the swapped decoding order, by double quadrature.

    Both axes are shifted: the primary axis starts at the protection
    threshold, the secondary axis at the order-switch boundary for that
    primary SNR.
    """
    pu = rule.nodes + scenario.theta
    su = rule.nodes[:, None] + switch_level(pu, scenario.theta)[None, :]
    values = preferred_order_kernel(su, pu[None, :], scenario)
    weights = rule.integration_weights
    return float(np.einsum("i,j,ij->", weights, weights, values))


def preferred_order_term_integral(scenario: ScenarioConfig) -> float:
    """Same contribution by adaptive integration over the swapped-order region.

    The primary axis starts at the protection threshold and each secondary
    slice at the order-switch boundary, as in :func:`preferred_order_term`.
    """
    theta = scenario.theta
    return exponential_expectation(
        lambda pu_snr, su_snr: np.log2(1.0 + su_snr / (1.0 + pu_snr)),
        scenario.lambda_pu,
        scenario.lambda_su,
        REL_TOL,
        x_lower=theta,
        y_lower=functools.partial(switch_level, theta=theta),
    )
