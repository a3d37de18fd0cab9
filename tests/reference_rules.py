"""Scalar reference rules of the access protocols, one fading draw at a time.

The readable specification the array rules of :mod:`crul.protocols` are
tested against: every case is decided by comparing the rates (or SINRs)
the protocol would get, written out here rather than taken from the
boundary functions of :mod:`crul.protocols`, so agreement stays an
independent check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from crul.protocols import ProtocolKind

class DecodingOrder(enum.Enum):
    SU_FIRST = "su-first"
    PU_FIRST = "pu-first"


@dataclass(frozen=True)
class RateOutcome:
    """Rates realized by one protocol on one fading draw.

    ``power_factor`` is the control knob the protocol actually applied:
    the split fraction ``alpha`` for rate splitting, the transmitted
    power scale for pure SIC (1 whenever the SU is decoded first or the
    PU is safe at full interference).  ``case_index`` indexes the
    protocol's case labels below.
    """

    su_rate: float
    pu_rate: float
    power_factor: float
    case_index: int
    decoding_order: DecodingOrder | None = None


RSMA_CASE_LABELS = (
    "primary-below-threshold",  # even alone the PU cannot reach theta
    "split",                    # alpha tuned so the PU sits exactly at theta
    "interference-tolerant",    # PU meets theta under full SU interference
)

SIC_CASE_LABELS = (
    "primary-below-threshold",  # SU decoded first at full power
    "reduced-power",            # PU decoded first, SU power scaled down
    "secondary-first-preferred",  # SU first beats the reduced-power rate
    "interference-tolerant",    # PU first, SU at full power
)


def _validate_draw(gamma_pu: float, gamma_su: float, theta: float):
    if gamma_pu < 0.0 or gamma_su < 0.0:
        raise ValueError(f"SNRs must be >= 0, got ({gamma_pu}, {gamma_su})")
    if theta < 0.0:
        raise ValueError(f"threshold must be >= 0, got {theta}")


# -------------------------------------------------------- rate splitting


def rsma_alpha(gamma_pu: float, gamma_su: float, theta: float) -> float:
    """Fraction of SU power on the early-decoded message part.

    Chosen so the PU's SINR after the early part is cancelled equals
    ``theta`` exactly when a genuine split is needed; pinned at the
    endpoints when protection is impossible (PU below threshold alone)
    or free (PU meets threshold under full interference).  Continuous in
    both SNRs.
    """
    _validate_draw(gamma_pu, gamma_su, theta)
    if gamma_pu >= theta * (1.0 + gamma_su):
        return 0.0
    if gamma_pu < theta:
        return 1.0
    # theta <= gamma_pu < theta*(1+gamma_su) implies gamma_su > 0, theta > 0
    return 1.0 - (gamma_pu / theta - 1.0) / gamma_su


def rsma_case_index(gamma_pu: float, gamma_su: float, theta: float) -> int:
    _validate_draw(gamma_pu, gamma_su, theta)
    if gamma_pu < theta:
        return 0
    if gamma_pu < theta * (1.0 + gamma_su):
        return 1
    return 2


def rsma_rates(gamma_pu: float, gamma_su: float, theta: float) -> RateOutcome:
    """Rates under rate splitting: early part, then PU, then late part.

    The SU rate is the sum of its two parts' rates: the early part sees
    the PU plus the late part as interference, the late part is decoded
    interference-free.  The PU sees only the late part.
    """
    _validate_draw(gamma_pu, gamma_su, theta)
    alpha = rsma_alpha(gamma_pu, gamma_su, theta)
    late_power = (1.0 - alpha) * gamma_su
    early = math.log2(1.0 + alpha * gamma_su / (gamma_pu + late_power + 1.0))
    late = math.log2(1.0 + late_power)
    pu = math.log2(1.0 + gamma_pu / (late_power + 1.0))
    return RateOutcome(
        su_rate=early + late,
        pu_rate=pu,
        power_factor=alpha,
        case_index=rsma_case_index(gamma_pu, gamma_su, theta),
        decoding_order=None,
    )


# --------------------------------------------------------------- pure SIC


def sic_power_factor(gamma_pu: float, gamma_su: float, theta: float) -> float:
    """Power scale that parks the PU's full-interference SINR on ``theta``.

    This is the protocol's *control law*: inside the band where partial
    power helps (PU above threshold but not under full interference) it
    solves ``gamma_pu / (1 + c*gamma_su) = theta``; outside the band the
    SU keeps full power, either because protection is impossible or
    because it is free.  The fleet-average of this quantity is the
    energy diagnostic reported alongside sweeps.
    """
    _validate_draw(gamma_pu, gamma_su, theta)
    if theta <= 0.0:
        return 1.0
    if theta <= gamma_pu < theta * (1.0 + gamma_su):
        return (gamma_pu / theta - 1.0) / gamma_su
    return 1.0


def sic_decoding_order(gamma_pu: float, gamma_su: float, theta: float) -> DecodingOrder:
    """Receiver's order choice: decode the SU first whenever that is
    feasible for the PU and not worse for the SU.

    SU first is forced when the PU is below threshold alone (protection
    impossible, nothing to preserve).  PU first wins whenever the PU
    tolerates the SU at full power, since the SU then decodes clean; this
    also settles the zero-measure ties where both orders give the same
    rates (``gamma_pu = theta`` with ``gamma_su = 0``, or ``theta = 0``).
    Otherwise SU first is preferred when the SU's rate under full PU
    interference beats the reduced-power alternative ``log2(gamma_pu/theta)``,
    or when the PU sits on ``theta`` and reduced power would mean silence.
    """
    _validate_draw(gamma_pu, gamma_su, theta)
    if gamma_pu < theta:
        return DecodingOrder.SU_FIRST
    if gamma_pu >= theta * (1.0 + gamma_su):
        return DecodingOrder.PU_FIRST
    if gamma_pu == theta or gamma_su / (1.0 + gamma_pu) > gamma_pu / theta - 1.0:
        return DecodingOrder.SU_FIRST
    return DecodingOrder.PU_FIRST


def sic_case_index(gamma_pu: float, gamma_su: float, theta: float) -> int:
    _validate_draw(gamma_pu, gamma_su, theta)
    if gamma_pu < theta:
        return 0
    if sic_decoding_order(gamma_pu, gamma_su, theta) is DecodingOrder.SU_FIRST:
        return 2
    if gamma_pu >= theta * (1.0 + gamma_su):
        return 3
    return 1


def sic_rates(gamma_pu: float, gamma_su: float, theta: float) -> RateOutcome:
    """Rates under pure SIC with the order/power choices above."""
    _validate_draw(gamma_pu, gamma_su, theta)
    case = sic_case_index(gamma_pu, gamma_su, theta)
    if case in (0, 2):
        order = DecodingOrder.SU_FIRST
        su = math.log2(1.0 + gamma_su / (1.0 + gamma_pu))
        pu = math.log2(1.0 + gamma_pu)
        factor = 1.0
    elif case == 1:
        order = DecodingOrder.PU_FIRST
        factor = (gamma_pu / theta - 1.0) / gamma_su
        su = math.log2(gamma_pu / theta)  # = log2(1 + c*gamma_su)
        pu = math.log2(1.0 + theta)
    else:
        order = DecodingOrder.PU_FIRST
        factor = 1.0
        su = math.log2(1.0 + gamma_su)
        pu = math.log2(1.0 + gamma_pu / (1.0 + gamma_su))
    return RateOutcome(
        su_rate=su,
        pu_rate=pu,
        power_factor=factor,
        case_index=case,
        decoding_order=order,
    )


# ------------------------------------------------------------- baselines


def benchmark_su_rate(kind: ProtocolKind, gamma_pu: float, gamma_su: float, theta: float) -> float:
    """SU rate of the two non-cognitive baselines.

    ``BENCH_CSI`` decodes the SU first unconditionally (PU interference
    always present); ``BENCH_QOS`` lets the SU transmit at full power
    only when the PU strictly clears the threshold despite it, else the
    SU stays silent.
    """
    _validate_draw(gamma_pu, gamma_su, theta)
    if kind is ProtocolKind.BENCH_CSI:
        return math.log2(1.0 + gamma_su / (1.0 + gamma_pu))
    if kind is ProtocolKind.BENCH_QOS:
        if gamma_pu > theta * (1.0 + gamma_su):
            return math.log2(1.0 + gamma_su)
        return 0.0
    raise ValueError(f"not a benchmark protocol: {kind}")
