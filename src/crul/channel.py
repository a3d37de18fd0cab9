"""Rayleigh-fading uplink scenario and per-realization SNR sampling.

Two transmitters (a licensed primary user and an unlicensed secondary
user) share one receiver.  Each link is summarized by its mean received
SNR: a reference transmit SNR in dB, shrunk by a power-law path loss in
the normalized distance.  Under Rayleigh fading the instantaneous
received SNR of link ``i`` is then exponential with rate

    lambda_i = 1 / (mean_snr_linear_i * loss_i)

and the primary's rate target ``R`` sets its protection SINR
``theta = 2**R - 1``.  Every ergodic rate depends on the scenario only
through these three numbers, so :class:`ScenarioConfig` is that triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ScenarioConfig",
    "db_to_linear",
    "path_loss",
    "qos_threshold",
    "sample_snrs",
    "scale_snrs",
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
class ScenarioConfig:
    """A two-user scenario: both SNRs' exponential rates and the primary's
    protection SINR ``theta``.

    Each value is a positive finite number, except that ``theta`` may be 0
    (a primary with no rate target).  Every rate computed from a scenario
    is per unit bandwidth, a spectral efficiency.
    """

    lambda_pu: float
    lambda_su: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("lambda_pu", "lambda_su", "theta"):
            value = getattr(self, name)
            if name == "theta" and value == 0.0:
                continue  # a primary with no rate target: only the clear channel
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")

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
        """The scenario of two links with a shared path-loss exponent and
        the primary's target ``rate_threshold`` in bit/s/Hz."""
        u = path_loss_exponent
        return cls(
            1.0 / (db_to_linear(primary_snr_db) * path_loss(primary_distance, u)),
            1.0 / (db_to_linear(secondary_snr_db) * path_loss(secondary_distance, u)),
            qos_threshold(rate_threshold),
        )

    def with_secondary_snr_scaled(self, factor: float) -> "ScenarioConfig":
        """Same scenario with the secondary mean SNR multiplied by ``factor``."""
        if not factor > 0.0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        return replace(self, lambda_su=self.lambda_su / factor)


def sample_snrs(rng: np.random.Generator, count: int, logs) -> None:
    """Draw ``count`` standard draws of each link into ``logs``, a pair of
    ``count``-long float arrays; primary block first, then secondary.

    Each block is ``log(1 - u)`` of ``count`` uniforms ``u``: ``1 -
    random()`` lies in ``(0, 1]``, so a draw is finite and at most 0, and
    :func:`scale_snrs` makes it an SNR at any scenario.  The fixed draw
    order (one primary array, then one secondary array) is what makes
    chunked parallel estimation reproducible: any consumer of the same
    generator state sees identical pairs.
    """
    for block in logs:
        rng.random(out=block)
        np.subtract(1.0, block, out=block)
        np.log(block, out=block)


def scale_snrs(scenario: ScenarioConfig, logs, out):
    """The SNR pairs of a standard draw of :func:`sample_snrs` at
    ``scenario``, into ``out``: each block of ``logs`` divided by minus its
    link's rate, the exponential's inverse CDF.  Returns ``out``."""
    rates = (scenario.lambda_pu, scenario.lambda_su)
    for block, draws, rate in zip(logs, out, rates):
        # -log(1 - u)/rate, with the sign on the divisor: IEEE division is
        # symmetric in sign, so the bits are the same in one pass fewer.
        np.divide(block, -rate, out=draws)
    return out
