"""Independent numerical-integration route for every ergodic quantity.

The estimands are expectations of piecewise-smooth functions of two
independent exponential SNRs.  This module evaluates them by brute
force: split the plane into the protocol's decision regions (so each
integrand is smooth where it is integrated), then integrate each region
with the exponential densities written out explicitly.

It deliberately shares no code with :mod:`crul.analytic` -- no
Gauss-Laguerre rules, no exponential-integral identities -- so that
agreement between the two routes is evidence, not tautology.

The integrals run on :mod:`crul.panels`: 21-point Gauss-Kronrod rules on
geometrically doubling panels along both axes, truncated where the
neglected tail is below a tenth of the tolerance, with the inner slices
of up to 512 outer nodes integrated together, their nodes evaluated in
numpy passes of 512 panels (so each pass's working set stays in L2 and its
temporaries under the allocator's mmap threshold), and ``|K21 - G10|``
deciding which panels are bisected.  A slice or region whose error
estimate misses its budget raises :class:`OracleAccuracyError`.
Integrands take numpy arrays.

The decision regions are the cells of :mod:`crul.protocols`, bounded by
its level functions and their inverses, so the regions and the Monte
Carlo cells are one partition.  Each region is sliced along the SNR that
keeps its slices short and its integrand smooth on them: the split band
and its two pure-SIC cells along the secondary SNR, the other regions
along the primary.

Every integral is held to :data:`crul.panels.REL_TOL` (1e-9 relative).

This module is the one home of the per-case region integrals.
:data:`TERMS` names each protocol's terms, :func:`case_regions` gives
their regions and :func:`case_terms` their values.  Each one is memoised
per region and scenario, so the two protocols share the regions they
have in common, and :func:`mean_power_factor_oracle` is memoised per
scenario: the oracle rows sum the terms, the hard-QoS benchmark reads the
rate-splitting clear-channel term, and :mod:`crul.crosscheck` arbitrates
every closed-form term against the same values, so one grid point
integrates each region once.  :func:`normalized` builds the boosted
scenario of the power-normalized protocol for all of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ScenarioConfig
from .panels import REL_TOL, QuadratureError, exponential_expectation, panel_integral
from .protocols import ProtocolKind, switch_edge, tolerance_edge, tolerance_level

__all__ = [
    "OracleAccuracyError",
    "RegionSpec",
    "FULL_QUADRANT",
    "restricted_expectation",
    "region_probability",
    "TERMS",
    "case_regions",
    "case_terms",
    "normalized",
    "ergodic_rate_oracle",
    "ergodic_delta_oracle",
    "mean_power_factor_oracle",
    "expected_clean_rate",
]


class OracleAccuracyError(RuntimeError):
    """The integrator could not vouch for the requested tolerance."""


#: A region bound: a number on the sliced SNR, a function of it on the
#: other, or ``None``.
Bound = float | Callable[[np.ndarray], np.ndarray] | None


@dataclass(frozen=True)
class RegionSpec:
    """A region of the positive SNR quadrant, sliced along one of its axes.

    ``axis`` names the sliced SNR, ``"primary"`` (``x``) or ``"secondary"``
    (``y``).  Its bounds are numbers; the other SNR's bounds are functions
    of it, the lower one floored at 0.  ``None`` bounds mean 0 / infinity.
    Sliced along ``x``, the region holds ``pu_lower <= x < pu_upper`` and,
    for each such ``x``, ``su_lower(x) <= y < su_upper(x)``; sliced along
    ``y`` the roles swap.
    """

    description: str
    pu_lower: Bound = None
    pu_upper: Bound = None
    su_lower: Bound = None
    su_upper: Bound = None
    axis: str = "primary"


FULL_QUADRANT = RegionSpec("both SNRs unconstrained")


def restricted_expectation(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    region: RegionSpec,
    lambda_pu: float,
    lambda_su: float,
) -> float:
    """``E[integrand(gamma_pu, gamma_su) ; region]`` for exponential SNRs.

    ``integrand`` takes arrays and returns an array broadcastable to
    their shape; it must be smooth inside the region (split piecewise
    integrands into one region per piece).  The region's sliced SNR is
    the outer variable of the integration.  Raises
    :class:`OracleAccuracyError` when the quadrature error cannot be
    reconciled with :data:`~crul.panels.REL_TOL`.
    """
    if lambda_pu <= 0.0 or lambda_su <= 0.0:
        raise ValueError("rate parameters must be > 0")
    if region.axis == "primary":
        f, rates = integrand, (lambda_pu, lambda_su)
        outer, inner = (region.pu_lower, region.pu_upper), (region.su_lower, region.su_upper)
    elif region.axis == "secondary":
        f, rates = (lambda y, x: integrand(x, y)), (lambda_su, lambda_pu)
        outer, inner = (region.su_lower, region.su_upper), (region.pu_lower, region.pu_upper)
    else:
        raise ValueError(f"unknown slicing axis {region.axis!r} ({region.description})")
    try:
        return exponential_expectation(
            f,
            *rates,
            REL_TOL,
            x_lower=0.0 if outer[0] is None else outer[0],
            x_upper=math.inf if outer[1] is None else outer[1],
            y_lower=inner[0],
            y_upper=inner[1],
        )
    except QuadratureError as exc:
        raise OracleAccuracyError(f"{exc} ({region.description})") from None


def region_probability(region: RegionSpec, lambda_pu: float, lambda_su: float) -> float:
    return restricted_expectation(lambda x, y: 1.0, region, lambda_pu, lambda_su)


# ------------------------------------------------------ decision regions

#: Each protocol's per-case terms, by name, in case-index order.  Pure SIC
#: cuts rate splitting's band in two; the other regions are shared.
TERMS = {
    ProtocolKind.CR_RSMA: ("below", "band", "clear"),
    ProtocolKind.CR_SIC: ("below", "reduced", "preferred", "clear"),
}


def case_regions(theta: float) -> dict[str, RegionSpec]:
    """The region of every per-case term, by name.

    The band and the clear channel meet at the tolerance level of
    :mod:`crul.protocols`.  Pure SIC cuts the band at the switch level,
    where the SU's full-power rate under PU interference matches the
    reduced-power rate.  The band and its two cells are sliced along the
    secondary SNR: at each ``y`` they hold a primary span of width
    ``theta*y`` or less from ``theta``, where their integrands are
    bounded and smooth.  Sliced along the primary they start at ``y ~ 0``
    near ``x = theta``, where the power scale ``(x/theta - 1)/y`` varies
    on that tiny scale.
    """
    if theta < 0.0:
        raise ValueError(f"threshold must be >= 0, got {theta}")
    if theta == 0.0:
        # With no rate target the primary tolerates every draw.
        empty = RegionSpec("empty", pu_lower=0.0, pu_upper=0.0)
        regions = dict.fromkeys(("below", "band", "reduced", "preferred"), empty)
        return {**regions, "clear": RegionSpec("no protection constraint")}
    tolerance = functools.partial(tolerance_level, theta=theta)
    floor = functools.partial(np.full_like, fill_value=theta)
    edge = functools.partial(tolerance_edge, theta=theta)
    switch = functools.partial(switch_edge, theta=theta)
    return {
        "below": RegionSpec("primary below threshold", pu_upper=theta),
        "band": RegionSpec("split band", pu_lower=floor, pu_upper=edge, axis="secondary"),
        "reduced": RegionSpec(
            "reduced power", pu_lower=switch, pu_upper=edge, axis="secondary"
        ),
        "preferred": RegionSpec(
            "secondary first preferred", pu_lower=floor, pu_upper=switch, axis="secondary"
        ),
        "clear": RegionSpec("interference tolerant", pu_lower=theta, su_upper=tolerance),
    }


# ------------------------------------------------------- per-case terms


_LN2 = math.log(2.0)


def _log2_1p(r):
    """``log2(1 + r)`` without rounding ``1 + r``, which loses a tiny ``r``."""
    return np.log1p(r) / _LN2


def _interference_limited(x, y, theta):
    return _log2_1p(y / (1.0 + x))


#: The SU rate of every per-case term at PU SNR ``x`` and SU SNR ``y``.
_INTEGRANDS = {
    "below": _interference_limited,
    "band": lambda x, y, theta: np.log2((1.0 + x + y) / (1.0 + theta)),
    "reduced": lambda x, y, theta: np.log2(x / theta),
    "preferred": _interference_limited,
    "clear": lambda x, y, theta: _log2_1p(y),
}


@functools.lru_cache(maxsize=512)
def _case_term(name: str, scenario: ScenarioConfig) -> float:
    """One per-case region integral, memoised per region and scenario.

    Rate splitting and pure SIC share the below-threshold and clear-channel
    regions, so keying on the region rather than the protocol integrates
    each once.
    """
    integrand = functools.partial(_INTEGRANDS[name], theta=scenario.theta)
    region = case_regions(scenario.theta)[name]
    return restricted_expectation(integrand, region, scenario.lambda_pu, scenario.lambda_su)


def case_terms(protocol: ProtocolKind, scenario: ScenarioConfig) -> dict[str, float]:
    """The oracle value of each of ``protocol``'s per-case terms, by name."""
    return {name: _case_term(name, scenario) for name in TERMS[protocol]}


def normalized(scenario: ScenarioConfig) -> ScenarioConfig:
    """Where the power-normalized protocol runs pure SIC: the secondary's
    mean SNR boosted by the inverse of the oracle's mean power scale."""
    return scenario.with_secondary_snr_scaled(1.0 / mean_power_factor_oracle(scenario))


# ------------------------------------------------------- ergodic rates


def ergodic_rate_oracle(protocol: ProtocolKind, scenario: ScenarioConfig) -> float:
    """Ergodic SU rate of ``protocol``, by integration over its decision regions."""
    if protocol in TERMS:
        return math.fsum(case_terms(protocol, scenario).values())

    if protocol is ProtocolKind.CR_SIC_NORM:
        return ergodic_rate_oracle(ProtocolKind.CR_SIC, normalized(scenario))

    if protocol is ProtocolKind.BENCH_CSI:
        integrand = functools.partial(_interference_limited, theta=scenario.theta)
        return restricted_expectation(
            integrand, FULL_QUADRANT, scenario.lambda_pu, scenario.lambda_su
        )

    if protocol is ProtocolKind.BENCH_QOS:
        # The hard gate admits the secondary exactly where rate splitting
        # gives it the clear channel.
        return _case_term("clear", scenario)

    raise ValueError(f"unknown protocol: {protocol}")


def ergodic_delta_oracle(scenario: ScenarioConfig) -> float:
    """Ergodic-rate gap (rate splitting minus pure SIC) as a region integral.

    Outside the split band the two protocols act identically, so the gap
    is integrated only there, split along the order-preference boundary
    where the SIC rate changes formula.  Cross-checking this against the
    difference of the two full oracles is a consistency test of all the
    region plumbing.
    """
    lam_pu, lam_su, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    # Without a threshold both regions are empty and the gap is zero.
    regions = case_regions(theta)
    split_rate = _INTEGRANDS["band"]
    return sum(
        restricted_expectation(
            lambda x, y, rate=_INTEGRANDS[name]: split_rate(x, y, theta) - rate(x, y, theta),
            regions[name], lam_pu, lam_su,
        )
        for name in ("reduced", "preferred")
    )


@functools.lru_cache(maxsize=64)
def mean_power_factor_oracle(scenario: ScenarioConfig) -> float:
    """Average of the pure-SIC control-law power scale.

    The scale is 1 below the threshold and beyond the tolerance edge,
    and ``(gamma_pu/theta - 1)/gamma_su`` in the split band between; each
    piece is integrated over its own region so the integrands stay smooth.
    Memoised per scenario: a sweep point needs two (its own and the
    power-normalized one), and the release checks revisit a few dozen.
    """
    lam_pu, lam_su = scenario.lambda_pu, scenario.lambda_su
    theta = scenario.theta
    if theta == 0.0:
        return 1.0
    regions = case_regions(theta)
    scaled = lambda x, y: tolerance_level(x, theta) / y
    return math.fsum(
        (
            region_probability(regions["below"], lam_pu, lam_su),
            region_probability(regions["clear"], lam_pu, lam_su),
            restricted_expectation(scaled, regions["band"], lam_pu, lam_su),
        )
    )


def expected_clean_rate(rate_parameter: float) -> float:
    """``E[log2(1 + gamma)]`` for one exponential SNR.

    The interference-free ceiling every protocol approaches when the
    primary link is overwhelmingly strong.
    """
    if rate_parameter <= 0.0:
        raise ValueError("rate parameter must be > 0")
    try:
        return panel_integral(
            lambda y: _log2_1p(y) * rate_parameter * np.exp(-rate_parameter * y),
            0.0,
            1.0 / rate_parameter,
            REL_TOL,
        )
    except QuadratureError as exc:
        raise OracleAccuracyError(f"{exc} (one-dimensional rate integral)") from None
