"""Per-realization access-protocol mechanics for the two-user uplink.

Licensed primary user (PU) and unlicensed secondary user (SU) transmit
simultaneously; the base station runs successive interference
cancellation.  The SU must never push the PU's post-cancellation SINR
below the protection threshold ``theta`` whenever the PU could have met
it alone.  Two cognitive protocols enforce that:

* **Rate splitting** (``cr-rsma``): the SU splits its message in two
  parts, putting a fraction ``alpha`` of its power on the part decoded
  *before* the PU and the rest on the part decoded after.  ``alpha`` is
  chosen per realization so the PU's SINR lands exactly on ``theta``
  whenever the split matters.
* **Pure SIC** (``cr-sic``): the SU transmits a single message and can
  only scale its power by ``c <= 1``; the receiver picks the decoding
  order.  Protection costs actual power here, which is the gap the
  rate-splitting scheme closes.

Two non-cognitive baselines complete the comparison: ``bench-csi``
always decodes the SU first (full interference from the PU), and
``bench-qos`` silences the SU unless the PU tolerates it at full power.

This module is the one home of the decision cells.  Pure SIC's four
cells refine rate splitting's three cases (its split band is the reduced
and preferred cells together), and ``bench-qos`` admits the tolerant cell
off its edge.  :func:`sic_case_array` classifies a batch of fading draws
``(gamma_pu, gamma_su)`` once, every rule builds its rates from the
cells, and the oracle's regions slice the same cells with
:func:`tolerance_level` and :func:`switch_level`.  Averaging over fading
lives in :mod:`crul.montecarlo`, :mod:`crul.analytic` and :mod:`crul.oracle`.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property

import numpy as np

__all__ = [
    "ProtocolKind",
    "BELOW",
    "REDUCED",
    "PREFERRED",
    "TOLERANT",
    "tolerance_level",
    "switch_level",
    "sic_case_array",
    "rsma_case_array",
    "CellDraws",
    "rsma_rate_arrays",
    "sic_rate_arrays",
    "primary_rate_arrays",
    "sic_power_factor_array",
    "csi_rate_array",
    "qos_rate_array",
]


class ProtocolKind(enum.Enum):
    """Access protocols the estimators understand; values are CLI names."""

    CR_RSMA = "cr-rsma"
    CR_SIC = "cr-sic"
    CR_SIC_NORM = "cr-sic-norm"
    BENCH_CSI = "bench-csi"
    BENCH_QOS = "bench-qos"

    @classmethod
    def from_name(cls, name: str) -> "ProtocolKind":
        for kind in cls:
            if kind.value == name:
                return kind
        valid = ", ".join(kind.value for kind in cls)
        raise ValueError(f"unknown protocol {name!r} (expected one of: {valid})")


#: Pure SIC's decision cells, which are also its case indices: the PU
#: misses ``theta`` even alone; the SU backs its power off; decoding the SU
#: first beats backing off; the PU meets ``theta`` under full interference.
BELOW, REDUCED, PREFERRED, TOLERANT = range(4)
# Rate splitting's case of each cell: below threshold, split band, tolerant.
_RSMA_CASE_OF_CELL = np.array((0, 1, 1, 2), dtype=np.int8)


# ------------------------------------------------------------ boundaries


def tolerance_level(gamma_pu, theta: float):
    """Most SU SNR the PU tolerates at full power: ``gamma_pu/theta - 1``.

    Scalars or arrays, ``theta > 0``.
    """
    return gamma_pu / theta - 1.0


def switch_level(gamma_pu, theta: float):
    """SU SNR where decoding it first (``log2(1 + y/(1+x))``) starts to
    beat backing its power off (``log2(x/theta)``).  Scalars or arrays."""
    return (1.0 + gamma_pu) * tolerance_level(gamma_pu, theta)


# --------------------------------------------------------------- the cells


def sic_case_array(gamma_pu, gamma_su, theta: float) -> np.ndarray:
    """Decision cell of every draw (the pure-SIC case index), as ``int8``.

    Below is ``gamma_pu < theta``, tolerant ``gamma_pu >= theta*(1 +
    gamma_su)``.  Between them the SU goes first where ``gamma_su/(1 +
    gamma_pu) > gamma_pu/theta - 1`` or the PU sits on ``theta``.  Where
    SU-first and tolerant overlap (zero-measure ties such as ``gamma_pu =
    theta``, ``gamma_su = 0``) the draw is tolerant, so the cells refine
    rate splitting's cases.
    """
    cells = np.full(gamma_pu.shape, REDUCED, dtype=np.int8)
    if theta > 0.0:
        su_first = (gamma_pu <= theta) | (
            gamma_su / (1.0 + gamma_pu) > tolerance_level(gamma_pu, theta)
        )
        cells[su_first] = PREFERRED
    cells[gamma_pu >= theta * (1.0 + gamma_su)] = TOLERANT
    cells[gamma_pu < theta] = BELOW
    return cells


def rsma_case_array(cells: np.ndarray) -> np.ndarray:
    """Rate splitting's case of every cell: below, split band, tolerant."""
    return _RSMA_CASE_OF_CELL[cells]


class CellDraws:
    """Fading draws with their decision cells from :func:`sic_case_array`.

    What several rules read is computed on first use and kept.  Selections
    are index arrays from ``np.flatnonzero``: gathering and scattering by
    index is several times cheaper than by boolean mask.
    """

    def __init__(self, gamma_pu, gamma_su, theta: float, cells: np.ndarray):
        self.gamma_pu = gamma_pu
        self.gamma_su = gamma_su
        self.theta = theta
        self.cells = cells

    @cached_property
    def band(self) -> np.ndarray:
        """Indices of rate splitting's split band: the reduced and preferred cells."""
        return np.flatnonzero(rsma_case_array(self.cells) == 1)

    @cached_property
    def band_scale(self) -> np.ndarray:
        """``(gamma_pu/theta - 1)/gamma_su`` on the band: the pure-SIC power
        scale, and one minus rate splitting's early fraction ``alpha``."""
        return tolerance_level(self.gamma_pu[self.band], self.theta) / self.gamma_su[self.band]

    @cached_property
    def qos_admitted(self) -> np.ndarray:
        """Where ``bench-qos`` lets the SU transmit: the PU strictly clears
        ``theta`` under full interference, so the tolerant cell less its edge."""
        return self.gamma_pu > self.theta * (1.0 + self.gamma_su)

    @cached_property
    def interference_limited(self) -> np.ndarray:
        """SU decoded first at full power: ``log2(1 + gamma_su/(1 + gamma_pu))``."""
        return np.log2(1.0 + self.gamma_su / (1.0 + self.gamma_pu))

    @cached_property
    def clean(self) -> np.ndarray:
        """SU decoded after the PU at full power: ``log2(1 + gamma_su)``."""
        return np.log2(1.0 + self.gamma_su)

    def full_power(self) -> np.ndarray:
        """A fresh array of the full-power SU rate: clean where tolerant."""
        return np.where(self.cells == TOLERANT, self.clean, self.interference_limited)


# -------------------------------------------------------------- the rules


def _split_powers(draws: CellDraws):
    """Rate splitting's early fraction ``alpha`` and late-part SNR, on the band."""
    alpha = 1.0 - draws.band_scale
    return alpha, (1.0 - alpha) * draws.gamma_su[draws.band]


def rsma_rate_arrays(draws: CellDraws) -> np.ndarray:
    """SU rates under rate splitting: early part, then PU, then late part.

    In the band the early part sees the PU and the late part as
    interference.  Outside it ``alpha`` is 1 (below) or 0 (tolerant), where
    the two parts reduce exactly to the full-power rates.
    """
    rates = draws.full_power()
    alpha, late_power = _split_powers(draws)
    early = alpha * draws.gamma_su[draws.band] / (draws.gamma_pu[draws.band] + late_power + 1.0)
    rates[draws.band] = np.log2(1.0 + early) + np.log2(1.0 + late_power)
    return rates


def sic_rate_arrays(draws: CellDraws) -> np.ndarray:
    """SU rates under pure SIC: ``log2(gamma_pu/theta)`` when backed off
    (``= log2(1 + c*gamma_su)``), else the full-power rate of its order."""
    rates = draws.full_power()
    reduced = np.flatnonzero(draws.cells == REDUCED)
    rates[reduced] = np.log2(draws.gamma_pu[reduced] / draws.theta)
    return rates


def primary_rate_arrays(draws: CellDraws) -> tuple[np.ndarray, np.ndarray]:
    """``(rate splitting, pure SIC)`` PU rates: clean when the SU goes first,
    under full interference when tolerant, and on ``theta`` when backed off."""
    gamma_pu, gamma_su = draws.gamma_pu, draws.gamma_su
    tolerant = np.flatnonzero(draws.cells == TOLERANT)
    rates = np.log2(1.0 + gamma_pu)
    rates[tolerant] = np.log2(1.0 + gamma_pu[tolerant] / (1.0 + gamma_su[tolerant]))
    splitting, pure = rates, rates.copy()
    _, late_power = _split_powers(draws)
    splitting[draws.band] = np.log2(1.0 + gamma_pu[draws.band] / (late_power + 1.0))
    pure[np.flatnonzero(draws.cells == REDUCED)] = math.log2(1.0 + draws.theta)
    return splitting, pure


def sic_power_factor_array(draws: CellDraws) -> np.ndarray:
    """The pure-SIC control-law power scale (the energy diagnostic).

    In the split band it solves ``gamma_pu / (1 + c*gamma_su) = theta``,
    the secondary-first cell included; elsewhere the SU keeps full power.
    """
    scale = np.ones(draws.gamma_pu.shape)
    scale[draws.band] = draws.band_scale
    return scale


def csi_rate_array(draws: CellDraws) -> np.ndarray:
    """SU rates of ``bench-csi``: always decoded first, under full PU interference.

    This is the shared ``draws.interference_limited`` array, not a copy.
    """
    return draws.interference_limited


def qos_rate_array(draws: CellDraws) -> np.ndarray:
    """SU rates of ``bench-qos``: the clean rate where admitted, else silent."""
    return np.where(draws.qos_admitted, draws.clean, 0.0)
