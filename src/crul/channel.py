"""Rayleigh-fading uplink geometry and per-realization SNR sampling.

Two transmitters (a licensed primary user and an unlicensed secondary
user) share one receiver.  Each link is summarized by its mean received
SNR: a reference transmit SNR in dB, shrunk by a power-law path loss in
the normalized distance.  Under Rayleigh fading the instantaneous
received SNR of link ``i`` is then exponential with rate

    lambda_i = 1 / (mean_snr_linear_i * loss_i)

which is the single parameter every closed form downstream consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkBudget",
    "ScenarioConfig",
    "db_to_linear",
    "path_loss",
    "qos_threshold",
    "exponential_from_uniform",
    "sample_snrs",
]


def db_to_linear(value_db: float) -> float:
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (value_db / 10.0)


def path_loss(distance_ratio: float, exponent: float) -> float:
    """Power-law path loss ``(d/d0)**(-exponent)`` for ``d/d0 > 0``."""
    if not distance_ratio > 0.0:
        raise ValueError(f"distance ratio must be > 0, got {distance_ratio}")
    if exponent < 0.0:
        raise ValueError(f"path-loss exponent must be >= 0, got {exponent}")
    return float(distance_ratio) ** -float(exponent)


def qos_threshold(rate_over_bandwidth: float) -> float:
    """SINR the primary user needs to sustain a spectral efficiency.

    Inverts ``log2(1 + theta) = R/B``: a target of ``R/B`` bit/s/Hz is met
    exactly at SINR ``2**(R/B) - 1``.  Zero is allowed (no protection).
    """
    if rate_over_bandwidth < 0.0:
        raise ValueError(f"target spectral efficiency must be >= 0, got {rate_over_bandwidth}")
    return 2.0**rate_over_bandwidth - 1.0


@dataclass(frozen=True)
class LinkBudget:
    """One transmitter's average link: reference SNR plus distance shrinkage."""

    mean_snr_db: float
    distance_ratio: float = 1.0
    path_loss_exponent: float = 2.0

    def __post_init__(self):
        path_loss(self.distance_ratio, self.path_loss_exponent)  # validates

    @property
    def loss(self) -> float:
        return path_loss(self.distance_ratio, self.path_loss_exponent)

    @property
    def mean_snr(self) -> float:
        """Average received SNR (linear), i.e. the exponential mean."""
        return db_to_linear(self.mean_snr_db) * self.loss

    @property
    def rate_parameter(self) -> float:
        return 1.0 / self.mean_snr


@dataclass(frozen=True)
class ScenarioConfig:
    """Full two-user scenario: both links plus the primary's rate target.

    ``rate_threshold`` is the primary user's target in bit/s/Hz (so the
    protection SINR is ``2**rate_threshold - 1``).  Every rate computed
    from a scenario is per unit bandwidth, a spectral efficiency.
    """

    primary: LinkBudget
    secondary: LinkBudget
    rate_threshold: float = 2.5

    def __post_init__(self):
        qos_threshold(self.rate_threshold)  # validates

    @classmethod
    def from_snr_db(
        cls,
        primary_snr_db: float,
        secondary_snr_db: float,
        *,
        primary_distance: float = 1.0,
        secondary_distance: float = 2.0,
        path_loss_exponent: float = 2.0,
        rate_threshold: float = 2.5,
    ) -> "ScenarioConfig":
        """The common construction: shared exponent, per-link SNR/distance."""
        return cls(
            primary=LinkBudget(primary_snr_db, primary_distance, path_loss_exponent),
            secondary=LinkBudget(secondary_snr_db, secondary_distance, path_loss_exponent),
            rate_threshold=rate_threshold,
        )

    @property
    def lambda_pu(self) -> float:
        return self.primary.rate_parameter

    @property
    def lambda_su(self) -> float:
        return self.secondary.rate_parameter

    @property
    def theta(self) -> float:
        """Protection SINR threshold of the primary user."""
        return qos_threshold(self.rate_threshold)

    def with_secondary_snr_scaled(self, factor: float) -> "ScenarioConfig":
        """Same scenario with the secondary mean SNR multiplied by ``factor``."""
        if not factor > 0.0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        scaled = LinkBudget(
            self.secondary.mean_snr_db + 10.0 * math.log10(factor),
            self.secondary.distance_ratio,
            self.secondary.path_loss_exponent,
        )
        return ScenarioConfig(self.primary, scaled, self.rate_threshold)


def exponential_from_uniform(u, rate: float, out=None):
    """Map uniform draws on ``(0, 1]`` to Exp(rate) via the inverse CDF.

    ``u = 1`` maps to 0 and ``u -> 0`` to the tail, so feeding
    ``1 - random()`` (which lives on ``(0, 1]``) can never produce an
    infinite SNR.  Accepts scalars or arrays; ``out`` is the ufuncs'
    ``out`` and may be ``u`` itself.
    """
    if not rate > 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    u_arr = np.asarray(u, dtype=float)
    # A min and a max scan the draws without building a mask, and reject NaN.
    if u_arr.size and not (u_arr.min() > 0.0 and u_arr.max() <= 1.0):
        raise ValueError("uniform input must lie in (0, 1]")
    result = np.divide(np.negative(np.log(u_arr, out=out), out=out), rate, out=out)
    return float(result) if np.isscalar(u) or u_arr.ndim == 0 else result


def sample_snrs(scenario: ScenarioConfig, rng: np.random.Generator, count: int, out):
    """Draw ``count`` i.i.d. SNR pairs; primary block first, then secondary.

    The fixed draw order (one primary array, then one secondary array) is
    what makes chunked parallel estimation reproducible: any consumer of
    the same generator state sees identical pairs.  ``out``, a pair of
    ``count``-long float arrays, receives the draws and is returned.
    """
    gamma_pu, gamma_su = out
    for draws, rate in ((gamma_pu, scenario.lambda_pu), (gamma_su, scenario.lambda_su)):
        rng.random(out=draws)
        np.subtract(1.0, draws, out=draws)
        exponential_from_uniform(draws, rate, out=draws)
    return gamma_pu, gamma_su
