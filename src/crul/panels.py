"""Gauss-Kronrod panel integration against exponential densities.

Every numerical route that integrates, rather than evaluates a closed
form, goes through this module: the oracle's region integrals
(:mod:`crul.oracle`) and the adaptive kernel routes of
:mod:`crul.analytic`.  It uses no Gauss-Laguerre rules and no
exponential-integral identities, so agreement between those two modules
stays evidence rather than tautology.

The estimands are integrals against ``rate * exp(-rate * t)`` on a
half-line.  With rates as small as 1e-8 the mass sits in a sliver of an
enormous interval, so each axis is cut into panels, each three times
wider than the one before, and truncated where the neglected relative
mass falls below ``exp(-24)`` times the tolerance (about 4e-20 at
:data:`REL_TOL`).  The first panel is an eighth of the decay length
``1/rate``, but never wider than 16: the integrands vary on the scale of
the ``1 +`` in their logs and of the threshold, whatever the decay
length, and bisection would pay one round per halving to reach it.
Each panel carries the 21-point Gauss-Kronrod rule and, as in QUADPACK
(Piessens et al., 1983), ``|K21 - G10|`` -- the distance to the embedded
10-point Gauss rule -- as its error estimate.
Panels are evaluated in numpy array passes of at most 512 panels, so each
pass's temporaries stay in L2 and under the allocator's mmap threshold,
and only the panels of the integrals that miss their budget are bisected.

Integrands take arrays and return an array broadcastable to their shape.
A miss that bisection cannot repair raises :class:`QuadratureError`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "REL_TOL",
    "NODES",
    "KRONROD_WEIGHTS",
    "GAUSS_WEIGHTS",
    "tail_horizon",
    "geometric_edges",
    "panel_integral",
    "exponential_expectation",
]


class QuadratureError(ArithmeticError):
    """The error estimate of an integral exceeds its budget."""


#: The relative tolerance every integral of the package is held to.
REL_TOL = 1e-9


# Positive Kronrod abscissas, descending; the odd entries are the 10-point
# Gauss nodes.  Weights of the Kronrod rule, then of the Gauss rule at
# _XGK[1], _XGK[3], ... (QUADPACK's qk21 constants).
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525452801,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

#: The 21 Kronrod nodes on [-1, 1], ascending.
NODES = np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
#: Kronrod weights at ``NODES``.
KRONROD_WEIGHTS = np.array(list(_WGK[:-1]) + list(reversed(_WGK)))
#: Gauss weights at ``NODES``: zero at the ten Kronrod-only nodes.
GAUSS_WEIGHTS = np.array(
    [_WG[i // 2] if i % 2 else 0.0 for i in range(10)]
    + [0.0]
    + [_WG[(19 - i) // 2] if i % 2 else 0.0 for i in range(11, 21)]
)
_RULES = np.stack((KRONROD_WEIGHTS, GAUSS_WEIGHTS), axis=1)
for _array in (NODES, KRONROD_WEIGHTS, GAUSS_WEIGHTS, _RULES):
    _array.flags.writeable = False

# Tail horizon in units of the decay length 1/rate, on top of
# |ln(rel_tol)|: at REL_TOL the horizon is 44.7 decay lengths and the
# neglected mass exp(-44.7) ~ 4e-20, four orders below a double's
# resolution.  A horizon of 65.7 would add a whole last panel, [45.5,
# 65.7], for about 2e-20 of the mass.
_TAIL_HORIZON = 24.0
_FIRST_PANEL_FRACTION = 0.125
# Each panel is this many times wider than the one before, so uncapped
# edges fall at 0.125, 0.5, 1.625, 5, 15.125 and 45.5 decay lengths.
# Tripling takes about half the panels of doubling for the same
# tolerance; a factor of 4 doubles the bisection rounds and saves no time.
_PANEL_GROWTH = 3.0
# Widest first panel, in SNR units (see the module docstring).
_FIRST_PANEL_MAX = 16.0
# An integral stops refining once its summed |K21 - G10| is within its
# relative target (no absolute floor: a region whose mass the first nodes
# barely touch must still be resolved) or once a bisection round would
# take it past _MAX_PANELS panels; then the caller's budget decides.
_MAX_PANELS = 200
# Budgets checked after refinement: per inner slice and per integral.
_INNER_BUDGET = 20.0
_OUTER_BUDGET = 10.0
_BUDGET_FLOOR = 1e-12
# Panels whose nodes and integrand _kronrod evaluates per numpy pass.  A
# block's temporaries, 512 x 21 floats (86 kB), stay in L2 and under the
# allocator's mmap threshold (128 kB), so each pass reuses warm memory
# where a whole batch would map, and page-fault, fresh arrays.  Only the
# elementwise work is blocked: BLAS picks its kernels by row count, so the
# K21/G10 matmul stays one product over all panels to keep its last bits.
# Blocked too, the outer integrand of a two-dimensional integral takes at
# most 512 x 21 inner slices a call, and a bisection round 200 x 21.
_BLOCK = 512


def tail_horizon(rel_tol: float) -> float:
    """Truncation point in decay lengths for a relative tolerance."""
    return _TAIL_HORIZON + abs(math.log(rel_tol))


def geometric_edges(lower: float, upper: float, scale: float) -> np.ndarray:
    """Edges of geometrically growing panels from ``lower`` to ``upper``.

    The first panel is an eighth of ``scale``, at most ``_FIRST_PANEL_MAX``
    wide; each next one is ``_PANEL_GROWTH`` times wider, and the last is
    cut at ``upper``.
    """
    width = scale * _FIRST_PANEL_FRACTION
    # A zero first panel would never grow, and the loop below never end.
    if not 0.0 < width < math.inf:
        raise ValueError(f"panel scale must be finite and > 0, got {scale}")
    width = min(width, _FIRST_PANEL_MAX)
    edges = [lower]
    position = lower
    while position + width < upper:
        position += width
        edges.append(position)
        width *= _PANEL_GROWTH
    edges.append(upper)
    return np.array(edges)


def _kronrod(f, rows, a, b):
    """K21 value and ``|K21 - G10|`` of each panel ``[a, b]`` of row ``rows``.

    The nodes and the integrand are evaluated ``_BLOCK`` panels at a time
    into one array, and the rules are applied to that whole array.
    """
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = np.empty((a.size, NODES.size))
    for start in range(0, a.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        values[block] = f(rows[block], centre[block, None] + half[block, None] * NODES)
    sums = values @ _RULES
    kronrod = half * sums[:, 0]
    return kronrod, np.abs(kronrod - half * sums[:, 1])


def _integrate_rows(f, rows, a, b, n_rows: int, rel: float):
    """Sum of K21 over the panels of each of ``n_rows`` integrals.

    Panel ``i`` covers ``[a[i], b[i]]`` of integral ``rows[i]``;
    ``f(rows, nodes)`` evaluates each panel's integrand at its nodes.  An
    integral whose summed error misses ``rel * |value|`` has every panel
    above its mean share of that target bisected, and only those panels
    are evaluated again, until every integral meets its target or would
    pass ``_MAX_PANELS`` panels in the next round: no integral ever holds
    more than ``_MAX_PANELS``.  Returns the value and the summed error
    estimate of each integral.
    """
    value, error = _kronrod(f, rows, a, b)
    while True:
        total = np.bincount(rows, value, n_rows)
        summed = np.bincount(rows, error, n_rows)
        target = rel * np.abs(total)
        missing = summed > target
        if not missing.any():
            return total, summed
        count = np.bincount(rows, minlength=n_rows)
        share = target / np.maximum(count, 1)
        split = missing[rows] & (error > share[rows])
        split &= (count + np.bincount(rows, split, n_rows) <= _MAX_PANELS)[rows]
        if not split.any():
            return total, summed
        middle = 0.5 * (a[split] + b[split])
        new_rows = np.concatenate((rows[split], rows[split]))
        new_a = np.concatenate((a[split], middle))
        new_b = np.concatenate((middle, b[split]))
        new_value, new_error = _kronrod(f, new_rows, new_a, new_b)
        keep = ~split
        rows = np.concatenate((rows[keep], new_rows))
        a = np.concatenate((a[keep], new_a))
        b = np.concatenate((b[keep], new_b))
        value = np.concatenate((value[keep], new_value))
        error = np.concatenate((error[keep], new_error))


def _checked(value: float, error: float, rel_tol: float) -> float:
    if not error <= _OUTER_BUDGET * rel_tol * abs(value) + _BUDGET_FLOOR:
        raise QuadratureError(
            f"quadrature error {error:.3e} exceeds budget for value {value:.6e}"
        )
    return value


def panel_integral(
    f: Callable[[np.ndarray], np.ndarray],
    scale: float,
    rel_tol: float,
) -> float:
    """``int f`` over ``[0, horizon * scale]`` on geometric panels.

    ``scale`` is the decay length of ``f``.  Raises
    :class:`QuadratureError` when the summed error estimate exceeds
    ``10 * rel_tol * |value| + 1e-12``.
    """
    edges = geometric_edges(0.0, tail_horizon(rel_tol) * scale, scale)
    rows = np.zeros(edges.size - 1, dtype=np.intp)
    value, error = _integrate_rows(
        lambda _, nodes: f(nodes), rows, edges[:-1], edges[1:], 1, rel_tol / 2.0
    )
    return _checked(float(value[0]), float(error[0]), rel_tol)


def exponential_expectation(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rate_x: float,
    rate_y: float,
    rel_tol: float,
    x_lower: float = 0.0,
    x_upper: float = math.inf,
    y_lower: Callable[[np.ndarray], np.ndarray] | None = None,
    y_upper: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """``E[integrand(x, y)]`` over a sliced region, for independent exponentials.

    ``x`` and ``y`` have rates ``rate_x`` and ``rate_y``; the region is
    ``x_lower <= x < x_upper`` and ``max(0, y_lower(x)) <= y < y_upper(x)``
    (``None`` meaning 0 and infinity).  Both axes are cut into geometric
    panels; the inner ones start at each slice's lower bound and stop at
    its upper bound or the tail horizon, whichever comes first, and the
    slices at all the outer nodes of a pass are integrated together.
    Raises :class:`QuadratureError` when a slice misses ``20 * rel_tol *
    |v| + 1e-12`` or the whole misses ``10 * rel_tol * |total| + 1e-12``.
    """
    horizon = tail_horizon(rel_tol)
    x_high = min(x_upper, x_lower + horizon / rate_x)
    if not x_high > x_lower:
        return 0.0
    offsets = geometric_edges(0.0, horizon / rate_y, 1.0 / rate_y)
    span = offsets[-1]

    def outer(_, nodes: np.ndarray) -> np.ndarray:
        xs = nodes.ravel()
        low = np.zeros_like(xs) if y_lower is None else np.maximum(0.0, y_lower(xs))
        high = low + span
        if y_upper is not None:
            high = np.minimum(high, y_upper(xs))
        a = np.minimum(low[:, None] + offsets[:-1], high[:, None])
        b = np.minimum(low[:, None] + offsets[1:], high[:, None])
        live = b > a
        rows = np.nonzero(live)[0]
        value, error = _integrate_rows(
            lambda r, y: integrand(xs[r, None], y) * (rate_y * np.exp(-rate_y * y)),
            rows,
            a[live],
            b[live],
            xs.size,
            rel_tol / 5.0,
        )
        missed = ~(error <= _INNER_BUDGET * rel_tol * np.abs(value) + _BUDGET_FLOOR)
        if missed.any():
            i = int(np.argmax(missed))
            raise QuadratureError(
                f"inner quadrature error {error[i]:.3e} at x={xs[i]:.5g} "
                f"for value {value[i]:.6e}"
            )
        return value.reshape(nodes.shape) * (rate_x * np.exp(-rate_x * nodes))

    # The outer panels start from the shorter of the two decay lengths, or
    # from geometric_edges' cap where both are long.  The inner one serves
    # the regions whose slice bound moves with the outer SNR, so a slice's
    # mass levels off on the inner axis's scale: the clear channel, whose
    # slices fill up within theta/rate_y of theta (on the outer rate alone
    # its term is 3e-11 off at a -100 dB secondary), and the band and its
    # cells, theta*y wide, at a weak primary.  Regions with fixed slice
    # bounds (below the threshold, the whole quadrant) only pay for it in
    # panels, most at a weak secondary.
    edges = geometric_edges(x_lower, x_high, min(1.0 / rate_x, 1.0 / rate_y))
    rows = np.zeros(edges.size - 1, dtype=np.intp)
    total, error = _integrate_rows(outer, rows, edges[:-1], edges[1:], 1, rel_tol / 2.0)
    return _checked(float(total[0]), float(error[0]), rel_tol)
