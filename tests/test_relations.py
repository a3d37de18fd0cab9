"""Relations the model must obey, checked over drawn scenarios.

Each relation follows from the model's structure, so it needs no
tabulated reference and can judge every route, the oracle included,
anywhere in the documented domain.
"""

import math
from datetime import timedelta

import pytest
import scipy.special
from hypothesis import assume, given, settings, strategies as st

from crul import crosscheck, oracle
from crul.channel import ScenarioConfig
from crul.panels import REL_TOL
from crul.protocols import ProtocolKind

#: The rows that reduce to the clean channel when the primary sets no rate
#: target: rate splitting and both SIC variants never cut the secondary's
#: power, and the QoS gate admits every draw.
CLEAN_ROWS = [(protocol, method) for protocol in crosscheck.ANALYTIC_PROTOCOLS
              for method in ("analytic", "oracle")] + [(ProtocolKind.BENCH_QOS, "oracle")]


@settings(max_examples=40, deadline=timedelta(seconds=1))
@given(
    primary_db=st.floats(-100.0, 100.0),
    secondary_db=st.floats(-100.0, 100.0),
    dist_su=st.floats(0.1, 5.0),
    u=st.floats(1.5, 5.0),
)
def test_rows_without_a_rate_target_are_the_clean_channel_rate(
    primary_db, secondary_db, dist_su, u
):
    # With theta = 0 every row is E[log2(1 + gamma_su)] = e^lam E1(lam) / ln 2.
    # Past lam = 700, where e^lam nears overflow, e^lam E1(lam) is taken
    # from its asymptotic series, whose relative error is below 720/lam**6,
    # 6.1e-15 at 700.
    config = ScenarioConfig.from_snr_db(
        primary_db, secondary_db, secondary_distance=dist_su, path_loss_exponent=u,
        rate_threshold=0.0,
    )
    lam = config.lambda_su
    if lam <= 700.0:
        scaled_e1 = math.exp(lam) * scipy.special.exp1(lam)
    else:
        scaled_e1 = sum((-1) ** k * math.factorial(k) / lam**k for k in range(6)) / lam
    expected = scaled_e1 / math.log(2.0)
    for protocol, method in CLEAN_ROWS:
        value = crosscheck.evaluate(protocol, config, method).value
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (protocol, method)


@settings(max_examples=40, deadline=timedelta(seconds=5))
@given(
    primary_db=st.floats(-100.0, 100.0),
    secondary_db=st.floats(-100.0, 100.0),
    rate_th=st.floats(0.0, 40.0),
    dist_su=st.floats(0.1, 5.0),
    u=st.floats(1.5, 5.0),
)
def test_oracle_rows_are_ordered_by_what_each_protocol_may_do(
    primary_db, secondary_db, rate_th, dist_su, u
):
    # Draw by draw, rate splitting gets at least pure SIC's rate, and pure
    # SIC at least the interference-limited rate of bench-csi and the clean
    # rate wherever bench-qos admits the secondary.  So the ordering, and
    # with it the ergodic gap release check 4 takes at one point, holds at
    # every point of the domain.
    config = ScenarioConfig.from_snr_db(
        primary_db, secondary_db, secondary_distance=dist_su, path_loss_exponent=u,
        rate_threshold=rate_th,
    )
    # A weaker secondary holds too, but its band integrals take seconds.
    assume(config.lambda_su <= 1e7)
    rsma, sic, csi, qos = (
        crosscheck.evaluate(protocol, config, "oracle").value
        for protocol in (ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC, ProtocolKind.BENCH_CSI,
                         ProtocolKind.BENCH_QOS)
    )
    assert rsma >= sic * (1.0 - 1e-9), (rsma, sic)
    assert sic >= max(csi, qos) * (1.0 - 1e-9), (sic, csi, qos)


@settings(max_examples=40, deadline=timedelta(seconds=1))
@given(
    primary_db=st.floats(-100.0, 100.0),
    secondary_db=st.floats(-100.0, 90.0),
    rise_db=st.floats(0.01, 10.0),
    dist_su=st.floats(0.1, 5.0),
    u=st.floats(1.5, 5.0),
)
def test_bench_csi_rises_with_the_secondary_snr(primary_db, secondary_db, rise_db, dist_su, u):
    # Draw by draw, bench-csi's rate log2(1 + y/(1 + x)) rises with the
    # secondary SNR y, and scaling the mean scales every draw of y.
    lower, higher = (
        crosscheck.evaluate(
            ProtocolKind.BENCH_CSI,
            ScenarioConfig.from_snr_db(
                primary_db, db, secondary_distance=dist_su, path_loss_exponent=u
            ),
            "oracle",
        ).value
        for db in (secondary_db, secondary_db + rise_db)
    )
    assert higher >= lower * (1.0 - 2.0 * REL_TOL), (lower, higher)


@pytest.mark.parametrize("primary_db", [20.0, 60.0])
@pytest.mark.parametrize("rate_th", [0.5, 6.0])
def test_weak_secondary_terms_follow_their_power_law(primary_db, rate_th):
    # As the secondary's mean SNR s falls, the terms whose secondary SNR y
    # enters only a log2(1 + ...) of it fall as s, and the band and its
    # cells, whose primary span theta*y shrinks with y too, as s**2.  Ten
    # dB less secondary divides them by 10 and 100.
    terms = [
        {
            name: value
            for protocol in (ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC)
            for name, value in oracle.case_terms(
                protocol,
                ScenarioConfig.from_snr_db(primary_db, secondary_db, rate_threshold=rate_th),
            ).items()
        }
        for secondary_db in (-90.0, -100.0)
    ]
    falls = {"below": 10.0, "clear": 10.0, "band": 100.0, "reduced": 100.0, "preferred": 100.0}
    for name, fall in falls.items():
        assert terms[0][name] / terms[1][name] == pytest.approx(fall, rel=2e-9, abs=0.0), name


@pytest.mark.parametrize("primary_db", [20.0, 60.0])
@pytest.mark.parametrize("rate_th", [0.5, 6.0])
def test_weak_secondary_derived_routes_follow_their_power_law(primary_db, rate_th):
    # The same law for the rows' own closed forms.  The below-threshold sum
    # is left out: its fixed rule reads 0 at these secondaries, and only an
    # exact closed form for that term can be held to the law.
    falls = {"clear": 10.0, "band": 100.0, "reduced": 100.0, "preferred": 100.0}
    for name, fall in falls.items():
        derived = crosscheck._ROUTES[name][1]["derived"]
        strong, weak = (
            derived(ScenarioConfig.from_snr_db(primary_db, secondary_db, rate_threshold=rate_th))
            for secondary_db in (-90.0, -100.0)
        )
        assert strong / weak == pytest.approx(fall, rel=2e-9, abs=0.0), name
