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
arrays in one loop with no per-element masks: the series tests its stop
every eighth term, and the fraction runs backward from a depth fixed by
its smallest argument.  So pure SIC's preferred cell takes
``exp(a) E1(a)`` at all nodes of its panels in one pass.

scipy is not a runtime dependency: the tests use its equivalents only as
an independent check of these routines.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EULER_GAMMA = 0.57721566490153286060651209008240243

MAX_ORDER = 256

_NEWTON_REL_TOL = 1e-14
_NEWTON_MAX_ITER = 100

# Series/continued-fraction switch for E1.  The alternating series loses
# roughly exp(2x)/sqrt(2 pi x) * eps of relative accuracy to cancellation;
# at x = 4 that is ~1e-13, at x = 5 it already fails a 1e-12 budget.
E1_SERIES_MAX = 4.0

#: Depths of the backward E1 continued fraction: ``_CF_DEPTHS[i]`` below
#: ``_CF_BOUNDS[i]``, the last one past them all.  Each truncates within
#: 0.31 ulp of 40-digit mpmath values over its range (one ulp takes depth
#: 29 just above 4, 20 at 6, 14 at 10, 7 at 30 and 4 at 100).
_CF_BOUNDS = (6.0, 10.0, 30.0, 100.0)
_CF_DEPTHS = (30, 22, 16, 10, 6)

_SERIES_MAX_ITER = 500


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A Gauss-Laguerre rule for integrals against ``exp(-x)`` on ``[0, inf)``.

    Rules compare and hash by identity: a generated ``__eq__`` would
    compare the node arrays.

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


def _laguerre_pair(x: float, order: int) -> tuple[float, float]:
    """Return ``(L_n(x), L_{n-1}(x))`` for ``n = order``, by the three-term
    recurrence one step per ``k``.

    No rescaling is needed: for ``x >= 0``, ``|L_k(x)| <= exp(x / 2)``
    (Szego, eq. 7.21.3), and every node of order ``n`` lies below about
    ``4n + 2``, so at :data:`MAX_ORDER` the recurrence stays below
    ``exp(513) ~ 1e223``.
    """
    current, previous = 1.0, 0.0
    for k in range(1, order + 1):
        current, previous = ((2 * k - 1 - x) * current - (k - 1) * previous) / k, current
    return current, previous


def _newton_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and log-weights of the order-``order`` rule, by Newton.

    Nodes are found by Newton iteration on the three-term recurrence,
    walking outward from the smallest root with spacing extrapolated from
    the previous two.  Each node must converge to ``1e-14`` relative in
    at most 100 iterations or the build fails loudly.  All arithmetic is
    on Python floats, which cost less per operation than numpy scalars.
    """
    nodes: list[float] = []
    log_weights: list[float] = []

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
            value, lower = _laguerre_pair(z, order)
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

        nodes.append(z)
        value, lower = _laguerre_pair(z, order)
        # One extra recurrence step gives L_{order+1} at the root, which
        # the classical weight formula w = z / ((n+1) L_{n+1}(z))^2 needs.
        above = ((2 * order + 1 - z) * value - order * lower) / (order + 1)
        log_weights.append(math.log(z) - 2.0 * math.log((order + 1) * abs(above)))
    return np.array(nodes), np.array(log_weights)


@lru_cache(maxsize=None)
def gauss_laguerre(order: int) -> QuadratureRule:
    """The Gauss-Laguerre rule of the given order (1..256).

    The default order is read from :data:`_STORED_RULES`, the exact
    output of :func:`_newton_rule`; every other order is built by it.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")

    if order in _STORED_RULES:
        nodes, log_weights = (np.array(values) for values in _STORED_RULES[order])
    else:
        nodes, log_weights = _newton_rule(order)
    for array in (nodes, log_weights):
        array.flags.writeable = False
    return QuadratureRule(order=order, nodes=nodes, log_weights=log_weights)


def ei_series_sum(x):
    """``S(x) = sum_{k>=1} x^k/(k k!)``, so that ``Ei(x) = gamma + log|x| +
    S(x)``; for ``|x| <= 4``.  Scalars or arrays.

    Differences of ``Ei`` at nearby small arguments are better formed from
    ``S``, where the logs cancel analytically rather than in rounding.

    It tests its stop every eighth term, and stops once that term is within
    ``1e-18`` of its sum, an array once every element's is.  The terms an
    element adds after its first term within that bound are below half an
    ulp of its sum and leave it unchanged, so every element equals the
    scalar result, and both the sum stopped at that first term, bit for bit.
    """
    total = 0.0
    power = 1.0
    for k in range(1, _SERIES_MAX_ITER):
        power *= x / k
        term = power / k
        total += term
        if k % 8:
            continue
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
    """The continued fraction ``K = 1/(x+1 - 1/(x+3 - 4/(x+5 - ...)))`` with
    ``E1(x) = exp(-x) K``, ``x > 4``.  Scalars or arrays.

    It is evaluated backward, from the tail up, at the depth
    :data:`_CF_DEPTHS` sets for each argument.  An array takes each step
    for all its elements at once, from the depth of its smallest, and the
    elements past each bound start over at that bound's depth, so each
    element has its scalar's bits.  A non-finite result raises.
    """
    scalar = isinstance(x, float)
    # ``initial`` lets through an empty array: every argument may be a series one.
    smallest = x if scalar else np.min(x, initial=math.inf)
    level = bisect.bisect(_CF_BOUNDS, smallest)
    depth = _CF_DEPTHS[level]
    starts = {} if scalar else dict(zip(_CF_DEPTHS[level + 1:], _CF_BOUNDS[level:]))
    t = x + (2 * depth + 1)
    for k in range(depth, 0, -1):
        if k in starts:
            t = np.where(x >= starts[k], x + (2 * k + 1), t)
        t = (x + (2 * k - 1)) - k * k / t
    value = 1.0 / t
    if not (math.isfinite(value) if scalar else np.isfinite(value).all()):
        raise ConvergenceError(f"E1 continued fraction is not finite at x = {x}")
    return value


def expint_ei(x: float) -> float:
    """The exponential integral ``Ei(x)`` for real negative ``x``, the
    only arguments the rate formulas take.

    Uses the power series up to ``|x| = 4`` and the backward continued
    fraction :func:`e1_cf_factor` for ``E1(-x) = -Ei(x)`` beyond it.
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


# The default rule's nodes and log-weights, keyed by order, exactly as
# ``_newton_rule`` builds them.  Generated by scripts/laguerre_constants.py;
# tests/test_specfun.py holds them to the Newton build byte for byte.
_STORED_RULES = {
    100: (
        (
            0.014386146995418786, 0.07580361202335904, 0.1863141020571847,
            0.3459691809914289, 0.554810937580914, 0.8128912841156708,
            1.1202738350075423, 1.477034329923826, 1.8832608263423951,
            2.339053849646034, 2.8445265427553568, 3.399804827445709,
            4.005027581758654, 4.660346835568909, 5.3659279855851185,
            6.1219500308040224, 6.928605829376172, 7.78610237786252,
            8.694661113922168, 9.65451824355508, 10.665925094121672,
            11.729148494472225, 12.844471183641032, 14.012192249694277,
            15.232627600466696, 16.506110468081985, 17.83299194932639,
            19.213641584136063, 20.648447974668347, 22.137819447656703,
            23.68218476300238, 25.281993871834036, 26.937718727574264,
            28.64985415389129, 30.418918773790942, 32.24545600452066,
            34.130035123421514, 36.07325241037997, 38.075732373107094,
            40.138129062115546, 42.2611274829848, 44.44544511431181,
            46.69183354065154, 49.001080210772436, 51.374010332703996,
            53.81148891835566, 56.314422991961706, 58.88376397828209,
            61.520510288396146, 64.22571012310156, 67.00046451641931,
            69.84593064455838, 72.76332542897458, 75.75392946593993,
            78.81909131941147, 81.96023221906012, 85.1788512112189,
            88.47653081739462, 91.85494326304931, 95.31585734883173,
            98.86114604761353, 102.49279492391656, 106.21291148804681,
            110.02373561603092, 113.92765118897162, 117.92719913257322,
            122.02509207044162, 126.2242308447504, 130.5277232067994,
            134.9389050402274, 139.46136455424016, 144.09896997721273,
            148.85590139775826, 153.73668754797302, 158.7462485117131,
            163.88994558258725, 169.17363981000304, 174.60376118237662,
            180.1873909402457, 185.93236023966696, 191.84736937224832,
            197.94213310214326, 204.2275595670305, 210.71597286157694,
            217.4213932720015, 224.3598947888746, 231.5500680251725,
            239.01362975131494, 246.7762409672485, 254.86862925704742,
            263.3281684691579, 272.20117002409256, 281.54632828389737,
            291.4401336163771, 301.9858552516392, 313.3295340040755,
            325.6912634370265, 339.4351019234496, 355.2613118885341,
            374.9841128343427,
        ),
        (
            -3.313389660037459, -2.5297775022303064, -2.1882292270019073,
            -2.0374814074384524, -2.0095921005138857, -2.07619010708148,
            -2.2227198278570564, -2.4407369897840527, -2.72492667129651,
            -3.071746877318211, -3.4787381912944877, -3.944141934128465,
            -4.466674927241749, -5.045389640082117, -5.6795836455103,
            -6.36873893000679, -7.1124800134706785, -7.9105443287573625,
            -8.762760830167291, -9.669034269562776, -10.629333466439945,
            -11.64368245110722, -12.71215371385411, -13.834863024864642,
            -15.011965444937683, -16.243652253173718, -17.53014859156721,
            -18.871711678608364, -20.26862948144282, -21.721219763409515,
            -23.229829443912973, -24.794834222651474, -26.416638431645417,
            -28.09567508728634, -29.83240612147145, -31.627322776295713,
            -33.480946151133544, -35.39382789450665, -37.36655103612714,
            -39.3997309570638, -41.494016498236256, -43.6500912094838,
            -45.86867474336069, -48.15052439964279, -50.49643682834222,
            -52.90724990087091, -55.38384476091119, -57.927148068590526,
            -60.53813445376209, -63.217829196611184, -65.96731115649251,
            -68.78771597291541, -71.68023956599725, -74.64614196758298,
            -77.68675151866675, -80.80346947386616, -83.99777505961464,
            -87.27123103961613, -90.62548984913556, -94.06230036911491,
            -97.58351542218874, -101.19110008578468, -104.88714093306058,
            -108.67385633100292, -112.55360794726715, -116.52891364414113,
            -120.60246197044722, -124.77712850165662, -129.0559943267604,
            -133.4423670398364, -137.93980466778228, -142.55214305732224,
            -147.28352735937435, -152.13844839421816, -157.12178486608667,
            -162.23885263374186, -167.49546255206582, -172.8979888035161,
            -178.45345017247442, -184.1696074301608, -190.05508096564384,
            -196.119494126836, -202.373649585255, -208.82974865598666,
            -215.50166727417616, -222.40530786570534, -229.55905465901807,
            -236.98437276443372, -244.70661155138876, -252.75610581746577,
            -261.1697240072376, -269.99311113989086, -279.2840566109293,
            -289.11777639933786, -299.595660687633, -310.86080767732506,
            -323.1283057423083, -336.75260333103176, -352.4114878775774,
            -371.84118750036663,
        ),
    ),
}
