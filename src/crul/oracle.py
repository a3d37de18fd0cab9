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
geometrically growing panels along both axes, truncated at the tail
horizon that module sets, with ``|K21 - G10|`` deciding which panels are
bisected.  A slice or region whose error estimate misses its budget
raises :class:`OracleAccuracyError`.  Integrands take numpy arrays.

The decision regions are the cells of :mod:`crul.protocols`, bounded by
its tolerance level and switch curve, so the regions and the Monte
Carlo cells are one partition.  Each region is sliced along the SNR that
keeps its slices short and its integrand smooth on them: the split band
and its two pure-SIC cells along the secondary SNR, the other regions
along the primary.  The split band and its cells are written in the
primary SNR's offset ``u = x - theta``, so their slices, ``theta*y``
wide, keep their digits however weak the secondary is.

Every integral is held to :data:`crul.panels.REL_TOL` (1e-9 relative).

This module is the one home of the per-case region integrals.
:data:`TERMS` names every protocol's terms (one each for the two
benchmarks), :func:`case_regions` gives their regions and
:func:`case_terms` their values.  Each one is memoised per region and
scenario, so protocols share the regions they have in common (the
hard-QoS benchmark's is the rate-splitting clear channel): every oracle
row is the sum of its protocol's terms, and :mod:`crul.crosscheck`
arbitrates every closed-form term against the same values, as does
release check 4 with the ergodic gap, so one grid point integrates each
region once.  :func:`normalized` builds the boosted scenario of the
power-normalized protocol for all of them.

The one elementary quantity, the mean power scale of pure SIC, is not
integrated: :func:`mean_power_factor_oracle` is its closed form, and the
tests hold it to the three region integrals it replaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ScenarioConfig
from .panels import REL_TOL, QuadratureError, exponential_expectation
from .protocols import ProtocolKind, switch_offset, tolerance_level

__all__ = [
    "OracleAccuracyError",
    "RegionSpec",
    "FULL_QUADRANT",
    "restricted_expectation",
    "TERMS",
    "case_regions",
    "case_terms",
    "normalized",
    "ergodic_rate_oracle",
    "mean_power_factor_oracle",
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
    ``y`` the roles swap.  The primary SNR is measured from
    ``pu_origin``: its bounds, and the integrand's first argument, are
    offsets ``x - pu_origin``.
    """

    description: str
    pu_lower: Bound = None
    pu_upper: Bound = None
    su_lower: Bound = None
    su_upper: Bound = None
    axis: str = "primary"
    pu_origin: float = 0.0


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
    integrands into one region per piece), and it takes the primary SNR
    as its offset from ``region.pu_origin``.  The exponential density
    forgets its origin, so the integral over offsets times
    ``exp(-lambda_pu * pu_origin)`` is exact.  The region's sliced SNR is
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
        return math.exp(-lambda_pu * region.pu_origin) * exponential_expectation(
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


# ------------------------------------------------------ decision regions

#: Each protocol's per-case terms, by name, in case-index order.  Pure SIC
#: cuts rate splitting's band in two; the other regions are shared.  The
#: hard QoS gate admits the secondary exactly where rate splitting gives it
#: the clear channel, and the CSI benchmark takes the whole quadrant.  The
#: power-normalized protocol is pure SIC at :func:`normalized`.
TERMS = {
    ProtocolKind.CR_RSMA: ("below", "band", "clear"),
    ProtocolKind.CR_SIC: ("below", "reduced", "preferred", "clear"),
    ProtocolKind.BENCH_CSI: ("full",),
    ProtocolKind.BENCH_QOS: ("clear",),
}


def case_regions(theta: float) -> dict[str, RegionSpec]:
    """The region of every per-case term, by name.

    The band and the clear channel meet at the tolerance level of
    :mod:`crul.protocols`.  Pure SIC cuts the band at the switch curve,
    where the SU's full-power rate under PU interference matches the
    reduced-power rate.  The band and its two cells are sliced along the
    secondary SNR: at each ``y`` they hold offsets ``u = x - theta`` in
    ``[0, theta*y]``, cut at :func:`~crul.protocols.switch_offset`, where
    their integrands are bounded and smooth.  Sliced along the primary
    they start at ``y ~ 0`` near ``x = theta``, where the power scale
    ``u/(theta*y)`` varies on that tiny scale.  In absolute ``x`` the
    nodes of a slice ``theta*y`` wide would sit at ``x ~ theta``, to
    ``theta``'s ulp, some 1e-6 of the slice at a -100 dB secondary.
    """
    if theta < 0.0:
        raise ValueError(f"threshold must be >= 0, got {theta}")
    if theta == 0.0:
        # With no rate target the primary tolerates every draw.
        empty = RegionSpec("empty", pu_lower=0.0, pu_upper=0.0)
        regions = dict.fromkeys(("below", "band", "reduced", "preferred"), empty)
        return {**regions, "clear": RegionSpec("no protection constraint"), "full": FULL_QUADRANT}
    tolerance = functools.partial(tolerance_level, theta=theta)
    edge = functools.partial(np.multiply, theta)
    switch = functools.partial(switch_offset, theta=theta)
    band_cell = functools.partial(RegionSpec, axis="secondary", pu_origin=theta)
    return {
        "below": RegionSpec("primary below threshold", pu_upper=theta),
        "band": band_cell("split band", pu_upper=edge),
        "reduced": band_cell("reduced power", pu_lower=switch, pu_upper=edge),
        "preferred": band_cell("secondary first preferred", pu_upper=switch),
        "clear": RegionSpec("interference tolerant", pu_lower=theta, su_upper=tolerance),
        "full": FULL_QUADRANT,
    }


# ------------------------------------------------------- per-case terms


_LN2 = math.log(2.0)


def _log2_1p(r):
    """``log2(1 + r)`` without rounding ``1 + r``, which loses a tiny ``r``."""
    return np.log1p(r) / _LN2


def _interference_limited(x, y, theta):
    return _log2_1p(y / (1.0 + x))


#: The SU rate of every per-case term at SU SNR ``y`` and PU SNR ``x``,
#: or, in the split band and its cells, PU SNR ``theta + u``.
_INTEGRANDS = {
    "below": _interference_limited,
    "band": lambda u, y, theta: _log2_1p((u + y) / (1.0 + theta)),
    "reduced": lambda u, y, theta: _log2_1p(u / theta),
    "preferred": lambda u, y, theta: _log2_1p(y / (1.0 + theta + u)),
    "clear": lambda x, y, theta: _log2_1p(y),
    "full": _interference_limited,
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
    try:
        return restricted_expectation(integrand, region, scenario.lambda_pu, scenario.lambda_su)
    except OracleAccuracyError as exc:
        raise OracleAccuracyError(f"{exc} at {scenario}") from None


def case_terms(protocol: ProtocolKind, scenario: ScenarioConfig) -> dict[str, float]:
    """The oracle value of each of ``protocol``'s per-case terms, by name."""
    return {name: _case_term(name, scenario) for name in TERMS[protocol]}


def normalized(scenario: ScenarioConfig) -> ScenarioConfig:
    """Where the power-normalized protocol runs pure SIC: the secondary's
    mean SNR boosted by the inverse of pure SIC's mean power scale, in
    the closed form of :func:`mean_power_factor_oracle`."""
    return scenario.with_secondary_snr_scaled(1.0 / mean_power_factor_oracle(scenario))


# ------------------------------------------------------- ergodic rates


def ergodic_rate_oracle(protocol: ProtocolKind, scenario: ScenarioConfig) -> float:
    """Ergodic SU rate of ``protocol``, by integration over its decision regions."""
    if protocol is ProtocolKind.CR_SIC_NORM:
        protocol, scenario = ProtocolKind.CR_SIC, normalized(scenario)
    return math.fsum(case_terms(protocol, scenario).values())


def mean_power_factor_oracle(scenario: ScenarioConfig) -> float:
    """Average of the pure-SIC control-law power scale, in closed form.

    The scale is 1 below the threshold and beyond the tolerance edge, and
    ``(gamma_pu/theta - 1)/gamma_su`` in the split band between.  The band
    piece, integrated over the primary SNR first, leaves a Frullani
    integral over the secondary.  With ``a = lambda_pu*theta`` and
    ``r = a/lambda_su`` the mean is ``1 - exp(-a) + exp(-a) log1p(r)/r``,
    a sum of two nonnegative terms, so nothing cancels.
    """
    a = scenario.lambda_pu * scenario.theta
    if a == 0.0:
        return 1.0
    r = a / scenario.lambda_su
    return -math.expm1(-a) + math.exp(-a) * math.log1p(r) / r
