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
and preferred cells together), and ``bench-qos`` admits the tolerant
cell off its edge.  :func:`sic_case_array` classifies a batch of fading
draws ``(gamma_pu, gamma_su)`` once, every rule builds its rates from
the cells, and the oracle's regions slice the same cells with
:func:`tolerance_level` and, measured from ``theta`` along the primary
SNR, the switch curve :func:`switch_offset`.  The classifier and the
rules write into the buffers of a :class:`Workspace`, which Monte Carlo
workers reuse from chunk to chunk, so a chunk makes no array of its own
size.  That is the rules' one mode, and every caller runs them in Monte
Carlo's order.  No step stores through a data-dependent mask: the cells are
integer arithmetic on the classifier's masks, and the rules gather and
scatter by index, taking each log only on the draws that read it.
Averaging over fading lives in :mod:`crul.montecarlo`,
:mod:`crul.analytic` and :mod:`crul.oracle`.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "ProtocolKind",
    "BELOW",
    "REDUCED",
    "PREFERRED",
    "TOLERANT",
    "tolerance_level",
    "switch_offset",
    "Workspace",
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


# ------------------------------------------------------------ boundaries


def tolerance_level(gamma_pu, theta: float, out=None):
    """Most SU SNR the PU tolerates at full power: ``gamma_pu/theta - 1``.

    Scalars or arrays, ``theta > 0``; ``out`` is the ufuncs' ``out``.
    """
    return np.subtract(np.divide(gamma_pu, theta, out=out), 1.0, out=out)


def switch_offset(gamma_su, theta: float):
    """The switch curve's offset above ``theta`` at SU SNR ``gamma_su``: at
    PU SNR ``theta + d`` decoding the SU first (``log2(1 + y/(1+x))``) stops
    beating backing its power off (``log2(x/theta)``), the root ``d >= 0``
    of ``d*(1 + theta + d) = theta*gamma_su``, written without the
    quadratic formula's cancellation.  Scalars or arrays, ``theta > 0`` and
    ``gamma_su >= 0``.
    """
    if theta <= 0.0:
        raise ValueError(f"threshold must be > 0, got {theta}")
    # One reduction: np.any would cost more than the curve on a scalar.
    if np.minimum.reduce(gamma_su, axis=None, initial=0.0) < 0.0:
        raise ValueError("secondary SNR must be >= 0")
    product = theta * gamma_su
    return 2.0 * product / (1.0 + theta + np.sqrt((1.0 + theta) ** 2 + 4.0 * product))


# ------------------------------------------------------------ workspace


#: The named per-draw buffers of a workspace, by dtype: the two SNR draws,
#: the rates, where the classifier's ratio becomes each family's rates in
#: turn, and scratch; the cells, ``bench-qos``'s admission mask and two
#: masks of scratch.  Scratch lives only inside one step of a rule.
_BUFFERS = {
    np.float64: ("gamma_pu", "gamma_su", "rates", "scratch"),
    np.int8: ("cells",),
    np.bool_: ("admitted", "b0", "b1"),
}


class Workspace:
    """Per-draw buffers that one Monte Carlo worker keeps from pass to pass.

    Each is its own array for ``capacity`` draws (a worker's hold a chunk),
    under numpy's 4 MiB huge-page threshold at 1e5 draws: one 6.4 MB block
    of every float row crossed it, for 12% more peak RSS.  The classifier
    and :class:`CellDraws` keep every per-draw array in them, so a used
    workspace makes no array of a chunk's size and has no pages to fault
    in again for the next; what is left belongs to the last draws
    classified into it.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._buffers = {
            name: np.empty(capacity, dtype) for dtype, names in _BUFFERS.items() for name in names
        }

    def buffer(self, name: str, size: int) -> np.ndarray:
        if size > self.capacity:
            raise ValueError(f"a workspace for {self.capacity} draws cannot take {size}")
        return self._buffers[name][:size]


# --------------------------------------------------------------- the cells


def sic_case_array(gamma_pu, gamma_su, theta: float, workspace: Workspace) -> np.ndarray:
    """Decision cell of every draw of a 1-D batch (the pure-SIC case index), as ``int8``.

    Below is ``gamma_pu < theta``, tolerant ``gamma_pu >= theta*(1 +
    gamma_su)``.  Between them the SU goes first where ``gamma_su/(1 +
    gamma_pu) > gamma_pu/theta - 1`` or the PU sits on ``theta``.  Where
    SU-first and tolerant overlap (zero-measure ties such as ``gamma_pu =
    theta``, ``gamma_su = 0``) the draw is tolerant, so the cells refine
    rate splitting's cases.  The cells are ``int8`` arithmetic on three
    masks, with no masked store: ``1 + preferred``, plus and OR tolerant
    (1 and 2 both become 3), times ``gamma_pu >= theta``.  The cells, the
    ratio ``gamma_su/(1 + gamma_pu)`` that :attr:`CellDraws.interference_limited`
    takes the log of, and ``bench-qos``'s strict admission ``gamma_pu >
    theta*(1 + gamma_su)`` off the same edge are left in ``workspace``.
    """
    size = gamma_pu.size
    cells, ratio = workspace.buffer("cells", size), workspace.buffer("rates", size)
    mask, other = workspace.buffer("b0", size), workspace.buffer("b1", size)
    scratch = workspace.buffer("scratch", size)
    np.divide(gamma_su, np.add(1.0, gamma_pu, out=ratio), out=ratio)
    if theta > 0.0:
        np.greater(ratio, tolerance_level(gamma_pu, theta, out=scratch), out=mask)
        np.logical_or(mask, np.less_equal(gamma_pu, theta, out=other), out=mask)
    else:
        mask.fill(False)
    np.add(mask.view(np.int8), REDUCED, out=cells)
    edge = np.multiply(np.add(1.0, gamma_su, out=scratch), theta, out=scratch)
    np.greater(gamma_pu, edge, out=workspace.buffer("admitted", size))
    tolerant = np.greater_equal(gamma_pu, edge, out=mask).view(np.int8)
    np.bitwise_or(np.add(cells, tolerant, out=cells), tolerant, out=cells)
    at_threshold = np.greater_equal(gamma_pu, theta, out=other).view(np.int8)
    return np.multiply(cells, at_threshold, out=cells)


def rsma_case_array(cells: np.ndarray, out=None) -> np.ndarray:
    """Rate splitting's case of every cell, ``(cell + 1) >> 1``: below, split
    band, tolerant (cells 0, 1 and 2, 3 give cases 0, 1, 2), into ``out``.

    This is the one definition of the split band, case 1, which
    :attr:`CellDraws.band` selects."""
    cases = np.add(cells, 1, out=out)
    return np.right_shift(cases, 1, out=cases)


class CellDraws:
    """A standard draw ``standard``, ``(logs, (lambda_pu, lambda_su))``,
    scaled to the SNRs ``gamma_pu`` and ``gamma_su``, with what
    :func:`sic_case_array` left of them in ``workspace``.

    What several rules read is computed on first use, kept in the
    workspace's buffers until it classifies its next draws, and held in
    plain attributes: ``cached_property`` on Python 3.10 and 3.11 takes
    one lock per class, which Monte Carlo workers would wait on.
    Selections are index arrays from ``np.flatnonzero``: gathering and
    scattering by index is several times cheaper than by boolean mask,
    and a log is taken only on the draws that read it.  The rules run in
    ``montecarlo._KERNEL_ORDER``, each over the last in the rates buffer.
    """

    def __init__(self, gamma_pu, gamma_su, theta: float, cells, workspace: Workspace, standard):
        self.gamma_pu = gamma_pu
        self.gamma_su = gamma_su
        self.theta = theta
        self.cells = cells
        self.workspace = workspace
        self.standard = standard
        self._band = self._band_scale = self._interference_limited = self._full_power = None

    def buffer(self, name: str, size: int | None = None) -> np.ndarray:
        """The workspace's named buffer, one entry per draw unless ``size`` says."""
        return self.workspace.buffer(name, self.cells.size if size is None else size)

    def gather(self, values: np.ndarray, name: str, index: np.ndarray) -> np.ndarray:
        """``values[index]`` into the named buffer."""
        # In "raise" mode take() fills a copy before ``out``; these indices
        # are always in range, so "clip" never clips.
        return np.take(values, index, out=self.buffer(name, index.size), mode="clip")

    def cell(self, code: int) -> np.ndarray:
        """Indices of the draws in one cell."""
        return np.flatnonzero(np.equal(self.cells, code, out=self.buffer("b0")))

    @property
    def band(self) -> np.ndarray:
        """Indices of rate splitting's split band, its case 1 by
        :func:`rsma_case_array`: the reduced and preferred cells."""
        if self._band is None:
            cases = rsma_case_array(self.cells, self.buffer("b1").view(np.int8))
            self._band = np.flatnonzero(np.equal(cases, 1, out=self.buffer("b0")))
        return self._band

    @property
    def tolerant(self) -> np.ndarray:
        """Indices of the tolerant cell, where the SU is decoded clean."""
        return self.cell(TOLERANT)

    def snr(self, link: int, index: np.ndarray, name: str) -> np.ndarray:
        """The primary's (``link`` 0) or secondary's SNRs at ``index``, into
        the named buffer, rescaled from the standard draw as
        ``channel.scale_snrs`` scaled it, so after the band's scale has
        written over the SNR buffers, which only pure SIC reads, too."""
        logs, rates = self.standard
        values = self.gather(logs[link], name, index)
        return np.divide(values, -rates[link], out=values)

    def band_scale(self) -> tuple[np.ndarray, np.ndarray]:
        """The band's pure-SIC power scale ``(gamma_pu/theta - 1)/gamma_su``,
        one minus rate splitting's early fraction ``alpha``, and its
        ``gamma_su``, in the SNR buffers.  Made once and kept until rate
        splitting's split writes over them, which drops them."""
        if self._band_scale is None:
            scale = self.snr(0, self.band, "gamma_pu")
            tolerance_level(scale, self.theta, out=scale)
            band_su = self.snr(1, self.band, "gamma_su")
            self._band_scale = np.divide(scale, band_su, out=scale), band_su
        return self._band_scale

    @property
    def qos_admitted(self) -> np.ndarray:
        """Where ``bench-qos`` lets the SU transmit: the PU strictly clears
        ``theta`` under full interference, so the tolerant cell less its edge."""
        return self.buffer("admitted")

    @property
    def interference_limited(self) -> np.ndarray:
        """SU decoded first at full power: ``log2(1 + gamma_su/(1 + gamma_pu))``,
        the log taken of the classifier's ratio in place."""
        if self._interference_limited is None:
            ratio = self.buffer("rates")
            np.add(1.0, ratio, out=ratio)
            self._interference_limited = np.log2(ratio, out=ratio)
        return self._interference_limited

    def full_power(self) -> np.ndarray:
        """The full-power SU rate, clean where tolerant: the clean log
        scattered over the interference-limited log in place, once.  Later
        calls return the rates buffer as the rules since have left it."""
        rates = self.interference_limited
        if not self._full_power:
            tolerant = self.tolerant
            clean = self.snr(1, tolerant, "scratch")
            rates[tolerant] = np.log2(np.add(1.0, clean, out=clean), out=clean)
            self._full_power = True
        return rates


# -------------------------------------------------------------- the rules
#
# Each rule writes its rates where the kernel order puts them.


def _split_powers(draws: CellDraws):
    """Rate splitting's early fraction ``alpha``, late-part SNR and SU SNR,
    on the band, over the band scale and in scratch."""
    scale, band_su = draws.band_scale()
    draws._band_scale = None  # written over below
    alpha = np.subtract(1.0, scale, out=scale)
    late_power = np.subtract(1.0, alpha, out=draws.buffer("scratch", scale.size))
    return alpha, np.multiply(late_power, band_su, out=late_power), band_su


def rsma_rate_arrays(draws: CellDraws) -> np.ndarray:
    """SU rates under rate splitting: early part, then PU, then late part.

    In the band the early part sees the PU and the late part as
    interference.  Outside it ``alpha`` is 1 (below) or 0 (tolerant), where
    the two parts reduce exactly to the full-power rates, so the band is
    written over :meth:`CellDraws.full_power`'s rates buffer: the full-power
    rates, or pure SIC's, which differ from them only in the band.
    """
    rates = draws.full_power()
    alpha, late_power, band_su = _split_powers(draws)
    early = np.multiply(alpha, band_su, out=alpha)
    room = draws.snr(0, draws.band, "gamma_su")  # over band_su, now spent
    np.add(np.add(room, late_power, out=room), 1.0, out=room)
    np.divide(early, room, out=early)
    np.log2(np.add(1.0, early, out=early), out=early)
    np.log2(np.add(1.0, late_power, out=late_power), out=late_power)
    rates[draws.band] = np.add(early, late_power, out=early)
    return rates


def sic_rate_arrays(draws: CellDraws) -> np.ndarray:
    """SU rates under pure SIC: ``log2(gamma_pu/theta)`` when backed off
    (``= log2(1 + c*gamma_su)``), else the full-power rate of its order."""
    rates = draws.full_power()
    reduced = draws.cell(REDUCED)
    backed_off = draws.gather(draws.gamma_pu, "scratch", reduced)
    np.divide(backed_off, draws.theta, out=backed_off)
    rates[reduced] = np.log2(backed_off, out=backed_off)
    return rates


def primary_rate_arrays(draws: CellDraws) -> tuple[np.ndarray, np.ndarray]:
    """``(rate splitting, pure SIC)`` PU rates: clean when the SU goes first,
    under full interference when tolerant, and on ``theta`` when backed off."""
    gamma_pu, gamma_su = draws.gamma_pu, draws.gamma_su
    tolerant = draws.tolerant
    rates = np.log2(1.0 + gamma_pu)
    rates[tolerant] = np.log2(1.0 + gamma_pu[tolerant] / (1.0 + gamma_su[tolerant]))
    splitting, pure = rates, rates.copy()
    band_pu = gamma_pu[draws.band]  # before the split writes over it
    _, late_power, _ = _split_powers(draws)
    splitting[draws.band] = np.log2(1.0 + band_pu / (late_power + 1.0))
    pure[draws.cell(REDUCED)] = math.log2(1.0 + draws.theta)
    return splitting, pure


def sic_power_factor_array(draws: CellDraws) -> np.ndarray:
    """The pure-SIC control-law power scale (the energy diagnostic), in scratch.

    In the split band it solves ``gamma_pu / (1 + c*gamma_su) = theta``,
    the secondary-first cell included; elsewhere the SU keeps full power.
    """
    factor = draws.buffer("scratch")
    factor.fill(1.0)
    factor[draws.band] = draws.band_scale()[0]
    return factor


def csi_rate_array(draws: CellDraws) -> np.ndarray:
    """SU rates of ``bench-csi``: always decoded first, under full PU interference.

    This is the shared ``draws.interference_limited`` array, not a copy.
    """
    return draws.interference_limited


def qos_rate_array(draws: CellDraws) -> np.ndarray:
    """SU rates of ``bench-qos``, in scratch: the clean rate where admitted,
    else silent, as the full-power rates times the admission.  Admission
    lies inside the tolerant cell, and every full-power rate is finite and
    at least +0, so the product is +0 off it."""
    return np.multiply(draws.full_power(), draws.qos_admitted, out=draws.buffer("scratch"))
