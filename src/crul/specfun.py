"""Special-function kernels: Gauss-Laguerre quadrature and the exponential integral.

Both are deliberately hand-rolled rather than taken from scipy:

* The quadrature rules carry *log-domain* weights.  Beyond order ~180 the
  linear weights underflow double precision, yet the products
  ``weight * exp(node)`` needed for integration on ``[0, inf)`` stay
  perfectly representable.  Library rules hand back the underflowed
  linear weights and the information is gone.
* The closed-form rate expressions multiply huge exponentials into tiny
  ``Ei`` values.  :func:`log_e1` exposes the exponential integral on a log
  scale so those products can be formed without overflow.

The ``Ei`` series sum and the ``E1`` continued fraction take scalars or
arrays in one loop: a scalar stops at its own tolerance, and an array
element stops at the same step, so the reduced-power kernel evaluates all
nodes of a rule in one pass with the scalar's digits.

The scipy equivalents are still used in the test-suite as an independent
check of these routines, never as the implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EULER_GAMMA = 0.57721566490153286060651209008240243

MAX_ORDER = 256

_NEWTON_REL_TOL = 1e-14
_NEWTON_MAX_ITER = 100
# Rescale threshold for the three-term recurrence.  Laguerre polynomial
# magnitudes reach ~exp(node/2); for order 256 the largest node is ~1050,
# far past double range, so the recurrence tracks an explicit log scale.
_RESCALE_AT = 1e100

# Series/continued-fraction switch for E1.  The alternating series loses
# roughly exp(2x)/sqrt(2 pi x) * eps of relative accuracy to cancellation;
# at x = 4 that is ~1e-13, at x = 5 it already fails a 1e-12 budget.
E1_SERIES_MAX = 4.0

_CF_MAX_ITER = 400
_SERIES_MAX_ITER = 500


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A Gauss-Laguerre rule for integrals against ``exp(-x)`` on ``[0, inf)``.

    Rules compare and hash by identity, so a cache can key on the rule.

    Attributes
    ----------
    order:
        Number of nodes.
    nodes:
        Abscissas, strictly ascending.
    log_weights:
        Logs of the weights, finite for every supported order, where the
        linear weights underflow to 0.0.
    """

    order: int
    nodes: np.ndarray
    log_weights: np.ndarray

    @property
    def integration_weights(self) -> np.ndarray:
        """Weights for plain integrals: ``sum(iw * f(nodes)) ~ int_0^inf f``.

        Computed as ``exp(node + log_weight)`` so the exponential weighting
        is undone without ever forming the underflowing linear weight.
        """
        return np.exp(self.nodes + self.log_weights)


def _laguerre_pair_scaled(order: int, x: float) -> tuple[float, float, float]:
    """Return ``(L_order(x), L_{order-1}(x))`` up to a common scale.

    The third element is ``log`` of that scale, i.e. the true values are
    ``returned * exp(log_scale)``.  Ratios of the pair (all Newton needs)
    are exact; the scale matters only for the weight computation.
    """
    current, previous = 1.0, 0.0
    log_scale = 0.0
    for k in range(1, order + 1):
        current, previous = ((2 * k - 1 - x) * current - (k - 1) * previous) / k, current
        magnitude = abs(current)
        if magnitude > _RESCALE_AT:
            current /= magnitude
            previous /= magnitude
            log_scale += math.log(magnitude)
    return current, previous, log_scale


@lru_cache(maxsize=None)
def gauss_laguerre(order: int) -> QuadratureRule:
    """Build the Gauss-Laguerre rule of the given order (1..256).

    Nodes are found by Newton iteration on the three-term recurrence,
    walking outward from the smallest root with spacing extrapolated from
    the previous two.  Each node must converge to ``1e-14`` relative in
    at most 100 iterations or the build fails loudly.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")

    nodes = np.empty(order)
    log_weights = np.empty(order)

    z = 0.0
    for i in range(order):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * order)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * order)
        else:
            gap = i - 1
            z += (1.0 + 2.55 * gap) / (1.9 * gap) * (z - nodes[i - 2])

        previous_step = math.inf
        for _ in range(_NEWTON_MAX_ITER):
            value, lower, _ = _laguerre_pair_scaled(order, z)
            derivative = order * (value - lower) / z
            step = value / derivative
            z -= step
            if abs(step) <= _NEWTON_REL_TOL * z:
                break
            # Recurrence rounding noise (~order * eps relative) puts a floor
            # under the achievable step size; past it Newton enters a tiny
            # limit cycle.  Once the step is already a few hundred ulps and
            # has stopped contracting, the node is converged in doubles.
            if abs(step) >= previous_step and previous_step <= 1e-11 * z:
                break
            previous_step = abs(step)
        else:
            raise ConvergenceError(
                f"Gauss-Laguerre node {i} of order {order} did not converge"
            )

        nodes[i] = z
        value, lower, log_scale = _laguerre_pair_scaled(order, z)
        # One extra recurrence step gives L_{order+1} at the root, which
        # the classical weight formula w = z / ((n+1) L_{n+1}(z))^2 needs.
        above = ((2 * order + 1 - z) * value - order * lower) / (order + 1)
        log_weights[i] = math.log(z) - 2.0 * (
            math.log((order + 1) * abs(above)) + log_scale
        )

    for array in (nodes, log_weights):
        array.flags.writeable = False
    return QuadratureRule(order=order, nodes=nodes, log_weights=log_weights)


def ei_series_sum(x):
    """``S(x) = sum_{k>=1} x^k/(k k!)``, so that ``Ei(x) = gamma + log|x| +
    S(x)``; for ``|x| <= 4``.  Scalars or arrays.

    Differences of ``Ei`` at nearby small arguments are better formed from
    ``S``, where the logs cancel analytically rather than in rounding.

    Each element stops once its term falls to ``1e-18`` of its sum.  An
    array runs until its last element stops; the terms an element adds
    after its own stop are below half an ulp of its sum and leave it
    unchanged, so every element equals the scalar result bit for bit.
    """
    total = 0.0
    power = 1.0
    for k in range(1, _SERIES_MAX_ITER):
        power *= x / k
        term = power / k
        total += term
        # |term| <= 1e-18 |total|, squared: two products cost less than
        # two abs calls, and within the series' range neither overflows.
        converged = term * term <= 1e-36 * (total * total)
        if converged is False:
            continue
        if converged is True or converged.all():
            return total
    raise ConvergenceError(f"Ei series did not converge at x = {x}")


def _ei_series(x: float) -> float:
    """Power series ``Ei(x) = gamma + log(-x) + S(x)``, ``-4 <= x < 0``."""
    return EULER_GAMMA + math.log(-x) + ei_series_sum(x)


def e1_cf_factor(x):
    """Modified-Lentz continued fraction ``K`` with ``E1(x) = exp(-x) K``,
    ``x > 4``.  Scalars or arrays.

    It stops at the first step factor of exactly one.  An array element
    stops there too: its later factors are masked to one, so every
    element equals the scalar result bit for bit.
    """
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    stopped = False
    for k in range(1, _CF_MAX_ITER):
        a = -float(k * k)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        # A factor within 1e-16 of one is exactly one: the doubles next to
        # one are 1.1e-16 below and 2.2e-16 above.
        converged = delta == 1.0
        if converged is False:
            h *= delta
            continue
        if converged is True:
            return h
        stopped = stopped | converged
        h = h * np.where(stopped, 1.0, delta)
        if stopped.all():
            return h
    raise ConvergenceError(f"E1 continued fraction did not converge at x = {x}")


def expint_ei(x: float) -> float:
    """The exponential integral ``Ei(x)`` for real negative ``x``, the
    only arguments the rate formulas take.

    Uses the power series up to ``|x| = 4`` and a modified-Lentz continued
    fraction for ``E1(-x) = -Ei(x)`` beyond it.
    """
    x = float(x)
    if math.isnan(x):
        return math.nan
    if not x < 0.0:
        raise ValueError(f"expint_ei requires x < 0, got {x}")
    magnitude = -x
    if magnitude <= E1_SERIES_MAX:
        return _ei_series(x)
    if magnitude > 745.0:
        # exp(-x) underflows; the true value is below 1e-324 anyway.
        return -0.0
    return -math.exp(-magnitude) * e1_cf_factor(magnitude)


def log_e1(x: float) -> float:
    """``log(E1(x))`` for ``x > 0`` without underflow.

    ``E1(x) = -Ei(-x)`` decays like ``exp(-x)/x`` and underflows past
    ``x ~ 745``, but products such as ``exp(a) * Ei(-x)`` with ``a ~ x``
    are perfectly finite.  Forming them as ``-exp(a + log_e1(x))`` keeps
    the closed forms usable at extreme rate parameters.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_e1 requires x > 0, got {x}")
    if x <= E1_SERIES_MAX:
        return math.log(-_ei_series(-x))
    return -x + math.log(e1_cf_factor(x))
