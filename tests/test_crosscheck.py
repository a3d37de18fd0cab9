"""Tests for the term-wise route arbitration and the deviation report."""

import json
import math

import pytest

from crul.channel import ScenarioConfig
from crul.crosscheck import (
    ARBITRATION_REL_TOL,
    REPORT_REL_TOL,
    arbitrated_rate,
    deviation_report,
    evaluate,
    relative_deviation,
    term_reports,
)
from crul.oracle import ergodic_rate_oracle, mean_power_factor_oracle
from crul.protocols import ProtocolKind

SCENARIO_20DB = ScenarioConfig.from_snr_db(20.0, 20.0)
SCENARIO_40DB = ScenarioConfig.from_snr_db(40.0, 40.0)


class TestRelativeDeviation:
    def test_ordinary_ratio(self):
        assert relative_deviation(1.1, 1.0) == pytest.approx(0.1)

    def test_tiny_absolute_gap_counts_as_agreement(self):
        assert relative_deviation(1e-15, 0.0) == 0.0

    def test_zero_reference_saturates(self):
        assert relative_deviation(1.0, 0.0) > 1e6


class TestTermReports:
    def test_rsma_terms_and_chosen_routes_at_20db(self):
        reports = {r.term: r for r in term_reports(ProtocolKind.CR_RSMA, SCENARIO_20DB)}
        assert set(reports) == {
            "interference_limited",
            "split_band",
            "clear_channel",
            "combined_tail",
        }
        for report in reports.values():
            assert relative_deviation(report.chosen_value, report.oracle_value) <= (
                ARBITRATION_REL_TOL
            )
        # Every transcription slip shows up as a flagged stated route.
        assert reports["interference_limited"].flagged_routes == ("stated",)
        assert reports["split_band"].flagged_routes == ("stated",)
        assert reports["clear_channel"].flagged_routes == ("stated",)
        assert reports["combined_tail"].flagged_routes == ("stated",)
        assert reports["combined_tail"].in_total is False
        assert all(
            r.in_total for t, r in reports.items() if t != "combined_tail"
        )

    def test_sic_terms_at_20db(self):
        reports = {r.term: r for r in term_reports(ProtocolKind.CR_SIC, SCENARIO_20DB)}
        assert set(reports) == {
            "interference_limited",
            "reduced_power",
            "preferred_order",
            "clear_channel",
        }
        for report in reports.values():
            assert relative_deviation(report.chosen_value, report.oracle_value) <= (
                ARBITRATION_REL_TOL
            )
        # Only the shared first term carries a transcription slip; the
        # others are printed in their derived form or have no stated route.
        assert reports["interference_limited"].flagged_routes == ("stated",)
        assert reports["reduced_power"].flagged_routes == ()
        assert reports["preferred_order"].flagged_routes == ()
        assert reports["clear_channel"].flagged_routes == ()

    def test_quadrature_collapse_falls_back_to_adaptive_route(self):
        # At 40 dB the fixed rule misses the kernel mass entirely for the
        # slowly-decaying terms; arbitration must hand those to the
        # adaptive-integration route, never to a degraded value.
        rsma = {r.term: r for r in term_reports(ProtocolKind.CR_RSMA, SCENARIO_40DB)}
        sic = {r.term: r for r in term_reports(ProtocolKind.CR_SIC, SCENARIO_40DB)}
        assert rsma["interference_limited"].chosen_route == "integral"
        assert sic["reduced_power"].chosen_route == "integral"
        assert sic["preferred_order"].chosen_route == "integral"
        for report in list(rsma.values()) + list(sic.values()):
            assert relative_deviation(report.chosen_value, report.oracle_value) <= (
                ARBITRATION_REL_TOL
            )

    def test_normalized_protocol_reports_scaled_sic_terms(self):
        scale = mean_power_factor_oracle(SCENARIO_20DB)
        boosted = SCENARIO_20DB.with_secondary_snr_scaled(1.0 / scale)
        direct = term_reports(ProtocolKind.CR_SIC, boosted)
        via_norm = term_reports(ProtocolKind.CR_SIC_NORM, SCENARIO_20DB)
        assert [r.term for r in direct] == [r.term for r in via_norm]
        for a, b in zip(direct, via_norm):
            assert b.oracle_value == pytest.approx(a.oracle_value, rel=1e-9)

    def test_benchmarks_have_no_decomposition(self):
        with pytest.raises(ValueError):
            term_reports(ProtocolKind.BENCH_CSI, SCENARIO_20DB)

    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0, 40.0])
    @pytest.mark.parametrize(
        "protocol", [ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC, ProtocolKind.CR_SIC_NORM]
    )
    def test_zero_threshold_reports_only_the_clear_channel(self, protocol, gamma0_db):
        # Without a rate target every draw is in the clear-channel region.
        scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db, rate_threshold=0.0)
        (report,) = term_reports(protocol, scenario)
        assert report.term == "clear_channel"
        assert report.chosen_route != "oracle"  # a closed form carries the term
        reference = ergodic_rate_oracle(protocol, scenario)
        assert relative_deviation(arbitrated_rate(protocol, scenario), reference) <= (
            ARBITRATION_REL_TOL
        )


class TestArbitratedRate:
    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    @pytest.mark.parametrize(
        "protocol",
        [ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC, ProtocolKind.CR_SIC_NORM],
    )
    def test_matches_oracle_across_grid(self, gamma0_db, protocol):
        scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        arbitrated = arbitrated_rate(protocol, scenario)
        reference = ergodic_rate_oracle(protocol, scenario)
        assert relative_deviation(arbitrated, reference) < 1e-3

    def test_total_is_sum_of_chosen_component_terms(self):
        reports = term_reports(ProtocolKind.CR_RSMA, SCENARIO_20DB)
        total = arbitrated_rate(ProtocolKind.CR_RSMA, SCENARIO_20DB)
        assert total == math.fsum(r.chosen_value for r in reports if r.in_total)


class TestEvaluate:
    def test_oracle_method(self):
        result = evaluate(ProtocolKind.CR_RSMA, SCENARIO_20DB, "oracle")
        assert result.value == ergodic_rate_oracle(ProtocolKind.CR_RSMA, SCENARIO_20DB)
        assert result.stderr == 0.0
        assert result.n_samples == 0

    def test_analytic_method(self):
        result = evaluate(ProtocolKind.CR_SIC, SCENARIO_20DB, "analytic")
        assert result.value == arbitrated_rate(ProtocolKind.CR_SIC, SCENARIO_20DB)
        assert result.stderr == 0.0
        assert result.n_samples == 0

    def test_benchmarks_reject_analytic(self):
        for protocol in (ProtocolKind.BENCH_CSI, ProtocolKind.BENCH_QOS):
            with pytest.raises(ValueError):
                evaluate(protocol, SCENARIO_20DB, "analytic")

    def test_unknown_method_rejected(self):
        for method in ("guess", "mc"):
            with pytest.raises(ValueError):
                evaluate(ProtocolKind.CR_RSMA, SCENARIO_20DB, method)


@pytest.fixture(scope="module")
def report():
    return deviation_report({"gamma0_20db": SCENARIO_20DB})


class TestDeviationReport:
    def test_serializes_to_json(self, report):
        text = json.dumps(report)
        assert json.loads(text) == report

    def test_lists_every_term_of_both_protocols(self, report):
        keys = {(e["protocol"], e["term"]) for e in report["entries"]}
        assert ("cr-rsma", "split_band") in keys
        assert ("cr-sic", "preferred_order") in keys
        assert len(report["entries"]) == 8

    def test_flags_the_transcription_slips(self, report):
        flagged = {(f["protocol"], f["term"], f["route"]) for f in report["flagged"]}
        assert ("cr-rsma", "interference_limited", "stated") in flagged
        assert ("cr-rsma", "split_band", "stated") in flagged
        assert ("cr-rsma", "clear_channel", "stated") in flagged
        assert ("cr-rsma", "combined_tail", "stated") in flagged
        assert ("cr-sic", "interference_limited", "stated") in flagged
        for entry in report["flagged"]:
            assert entry["deviation"] > REPORT_REL_TOL

    def test_chosen_routes_never_flagged(self, report):
        for entry in report["entries"]:
            assert entry["chosen_route"] not in entry["flagged_routes"]

    def test_tolerances_recorded(self, report):
        assert report["arbitration_rel_tol"] == ARBITRATION_REL_TOL
        assert report["report_rel_tol"] == REPORT_REL_TOL


class TestRouteIsolation:
    """A route that raises is recorded as NaN with its reason, never chosen."""

    # The as-printed split-band forms multiply exp(lambda_pu * theta)
    # factors that overflow at a 12 bit/s/Hz target and 0 dB.
    SCENARIO = ScenarioConfig.from_snr_db(0.0, 0.0, rate_threshold=12.0)

    def test_raising_route_is_recorded_not_propagated(self):
        reports = {r.term: r for r in term_reports(ProtocolKind.CR_RSMA, self.SCENARIO)}
        for term in ("split_band", "combined_tail"):
            report = reports[term]
            assert math.isnan(report.routes["stated"])
            assert report.route_errors["stated"].startswith("OverflowError")
            assert report.chosen_route == "derived"
            assert "stated" in report.flagged_routes
        assert reports["interference_limited"].route_errors == {}
        rate = arbitrated_rate(ProtocolKind.CR_RSMA, self.SCENARIO)
        oracle = ergodic_rate_oracle(ProtocolKind.CR_RSMA, self.SCENARIO)
        assert relative_deviation(rate, oracle) <= ARBITRATION_REL_TOL

    def test_deviation_report_carries_the_reason(self):
        report = deviation_report({"rate_th_12": self.SCENARIO})
        failed = [e for e in report["entries"] if e["route_errors"]]
        assert {(e["protocol"], e["term"]) for e in failed} == {
            ("cr-rsma", "split_band"),
            ("cr-rsma", "combined_tail"),
        }
        assert all(math.isnan(e["routes"]["stated"]) for e in failed)
        assert all("stated" in e["flagged_routes"] for e in failed)
