"""Every per-case term against its leading order at a weak secondary.

As the secondary's rate ``lambda_su`` grows, each term tends to a product
of elementary factors (Watson's lemma; Olver, *Asymptotics and Special
Functions*, 1974, ch. 3).  With ``f = lambda_pu exp(-lambda_pu theta)``
and ``L = ln 2``:

* ``band ~ f theta (theta + 2) / ((1 + theta) lambda_su**2 L)``;
* ``preferred ~ 2 f theta / ((1 + theta)**2 lambda_su**2 L)``;
* ``reduced ~ f theta (1 - (1 + theta)**-2) / (lambda_su**2 L)``;
* ``clear ~ exp(-lambda_pu theta) / (lambda_su L)``;
* ``below ~ lambda_pu exp(lambda_pu) (E1(lambda_pu) - E1(lambda_pu (1 +
  theta))) / (lambda_su L)``;
* ``full ~ lambda_pu exp(lambda_pu) E1(lambda_pu) / (lambda_su L)``.

The next order is smaller by ``(1 + theta)(1 + lambda_pu theta) /
lambda_su``, so each term must lie within ``C`` times that of its leading
order, relative.  Over primaries of -20 to 80 dB, secondaries of -90 to
-100 dB and rate targets of 0.5 to 6 bit/s/Hz the largest ratio measured
was 1.79 (``reduced``, at (-20, -90) dB and 0.5 bit/s/Hz), for the
oracle's terms and the derived routes alike; ``C`` is 4.  Where the
leading order underflows (a strong primary with a high target), the term
must be as small.  E1 comes from ``specfun.expint_ei``, which release
check 2 holds to 1e-12.

``below``'s derived route is left out: its fixed Gauss-Laguerre rule
cannot resolve a ratio density whose scale is ``1/lambda_su``, and it
reads 0 at these secondaries, billions of times the bound past its
leading order.
"""

import math
from datetime import timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from crul import analytic, oracle
from crul.channel import ScenarioConfig
from crul.specfun import expint_ei

_LN2 = math.log(2.0)
#: The bound's constant: twice the largest ratio measured.
C = 4.0
#: Below this the leading order has underflowed, or nearly.
UNDERFLOW = 1e-290


def _scaled_e1_difference(low: float, high: float) -> float:
    """``exp(low) (E1(low) - E1(high))`` for ``0 < low <= high``."""
    return math.exp(low) * (expint_ei(-high) - expint_ei(-low))


def leading_order(name: str, scenario: ScenarioConfig) -> float:
    lam_p, lam_s, theta = scenario.lambda_pu, scenario.lambda_su, scenario.theta
    f = lam_p * math.exp(-lam_p * theta)
    if name == "band":
        return f * theta * (theta + 2.0) / ((1.0 + theta) * lam_s**2 * _LN2)
    if name == "preferred":
        return 2.0 * f * theta / ((1.0 + theta) ** 2 * lam_s**2 * _LN2)
    if name == "reduced":
        return f * theta * (1.0 - (1.0 + theta) ** -2) / (lam_s**2 * _LN2)
    if name == "clear":
        return math.exp(-lam_p * theta) / (lam_s * _LN2)
    if name == "below":
        return lam_p * _scaled_e1_difference(lam_p, lam_p * (1.0 + theta)) / (lam_s * _LN2)
    assert name == "full"
    return -lam_p * math.exp(lam_p) * expint_ei(-lam_p) / (lam_s * _LN2)


DERIVED = {
    "band": analytic.split_band_term,
    "reduced": analytic.reduced_power_term,
    "preferred": analytic.preferred_order_term,
    "clear": analytic.clear_channel_term,
}
#: Each term's routes: the oracle's region integral, and the derived
#: closed form where it has one that resolves these secondaries.
ROUTES = [(name, "oracle") for name in ("below", "band", "reduced", "preferred", "clear", "full")]
ROUTES += [(name, "derived") for name in DERIVED]


@pytest.mark.parametrize("name,route", ROUTES)
@settings(max_examples=25, deadline=timedelta(seconds=2))
@given(
    primary_db=st.floats(-20.0, 80.0),
    secondary_db=st.floats(-100.0, -90.0),
    rate_threshold=st.floats(0.5, 6.0),
)
@example(primary_db=-20.0, secondary_db=-90.0, rate_threshold=0.5)
@example(primary_db=80.0, secondary_db=-100.0, rate_threshold=0.5)
@example(primary_db=-20.0, secondary_db=-100.0, rate_threshold=6.0)
def test_each_term_is_its_leading_order(name, route, primary_db, secondary_db, rate_threshold):
    scenario = ScenarioConfig.from_snr_db(primary_db, secondary_db, rate_threshold=rate_threshold)
    value = oracle._case_term(name, scenario) if route == "oracle" else DERIVED[name](scenario)
    expected = leading_order(name, scenario)
    if expected < UNDERFLOW:
        assert 0.0 <= value < UNDERFLOW
        return
    theta = scenario.theta
    bound = C * (1.0 + theta) * (1.0 + scenario.lambda_pu * theta) / scenario.lambda_su
    assert abs(value - expected) <= bound * expected, (value, expected, bound)
