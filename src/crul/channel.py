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
    "exponential_from_uniform",
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


def exponential_from_uniform(u, rate: float, out=None, logs=None):
    """Map uniform draws on ``(0, 1]`` to Exp(rate) via the inverse CDF.

    ``u = 1`` maps to 0 and ``u -> 0`` to the tail, so feeding
    ``1 - random()`` (which lives on ``(0, 1]``) can never produce an
    infinite SNR.  Accepts scalars or arrays; ``out`` is the ufuncs'
    ``out`` and may be ``u`` itself.  ``logs``, if given, receives
    ``log(u)`` on the way, the standard draw that :func:`scale_snrs` divides
    by minus a rate, and may be ``u`` itself.
    """
    if not rate > 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    u_arr = np.asarray(u, dtype=float)
    # A min and a max scan the draws without building a mask, and reject NaN.
    if u_arr.size and not (u_arr.min() > 0.0 and u_arr.max() <= 1.0):
        raise ValueError("uniform input must lie in (0, 1]")
    # -log(u)/rate, with the sign on the divisor: IEEE division is symmetric
    # in sign, so the bits are the same and the array takes one pass fewer.
    result = np.divide(np.log(u_arr, out=out if logs is None else logs), -rate, out=out)
    return float(result) if np.isscalar(u) or u_arr.ndim == 0 else result


def sample_snrs(scenario: ScenarioConfig, rng: np.random.Generator, count: int, out, logs):
    """Draw ``count`` i.i.d. SNR pairs; primary block first, then secondary.

    The fixed draw order (one primary array, then one secondary array) is
    what makes chunked parallel estimation reproducible: any consumer of
    the same generator state sees identical pairs.  ``logs``, a pair of
    ``count``-long float arrays, keeps the standard draw, ``log(1 - u)`` of
    each block, from which :func:`scale_snrs` makes the same pairs at any
    other scenario.  ``out``, another such pair, receives the draws and is
    returned.
    """
    rates = (scenario.lambda_pu, scenario.lambda_su)
    for block, draws, rate in zip(logs, out, rates):
        rng.random(out=block)
        np.subtract(1.0, block, out=block)
        exponential_from_uniform(block, rate, out=draws, logs=block)
    return out


def scale_snrs(scenario: ScenarioConfig, logs, out):
    """The SNR pairs of a standard draw that :func:`sample_snrs` kept in
    ``logs``, at ``scenario``, into ``out``: each block divided by minus its
    link's rate, the divide :func:`exponential_from_uniform` makes, so the
    bits are those a new draw gives.  Returns ``out``."""
    rates = (scenario.lambda_pu, scenario.lambda_su)
    for block, draws, rate in zip(logs, out, rates):
        np.divide(block, -rate, out=draws)
    return out
