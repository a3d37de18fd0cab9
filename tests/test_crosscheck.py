"""Tests for the term-wise route arbitration and the deviation report."""

import json
import math

import pytest

from crul import analytic, cli, crosscheck, validation
from crul.channel import ScenarioConfig
from crul.crosscheck import (
    ANALYTIC_PROTOCOLS,
    ARBITRATION_REL_TOL,
    REPORT_REL_TOL,
    deviation_report,
    evaluate,
    relative_deviation,
    term_reports,
)
from crul.oracle import ergodic_rate_oracle, mean_power_factor_oracle
from crul.protocols import ProtocolKind

SCENARIO_20DB = ScenarioConfig.from_snr_db(20.0, 20.0)
SCENARIO_40DB = ScenarioConfig.from_snr_db(40.0, 40.0)


@pytest.fixture(scope="module")
def report():
    return deviation_report({"gamma0_20db": SCENARIO_20DB})


def _entries(report, protocol: str) -> dict:
    """The deviation report's entries of one protocol, by term."""
    return {e["term"]: e for e in report["entries"] if e["protocol"] == protocol}


class TestRelativeDeviation:
    def test_ordinary_ratio(self):
        assert relative_deviation(1.1, 1.0) == pytest.approx(0.1)

    def test_only_an_exact_match_counts_as_agreement(self):
        # No absolute floor: however small the gap, it is measured against
        # the reference, and a zero reference agrees only with zero.
        assert relative_deviation(1e-15, 0.0) == math.inf
        assert relative_deviation(0.0, 0.0) == 0.0
        assert relative_deviation(0.0, 6.25e-13) == 1.0
        assert relative_deviation(1e-15, 1e-15) == 0.0

    def test_zero_reference_saturates(self):
        assert relative_deviation(1.0, 0.0) > 1e6


class TestTermReports:
    def test_rsma_terms_and_chosen_routes_at_20db(self, report):
        reports = {r.term: r for r in term_reports(ProtocolKind.CR_RSMA, SCENARIO_20DB)}
        assert set(reports) == {"interference_limited", "split_band", "clear_channel"}
        for term in reports.values():
            assert list(term.routes) == ["derived"]
            assert term.in_total
            assert relative_deviation(term.chosen_value, term.oracle_value) <= (
                ARBITRATION_REL_TOL
            )
        entries = _entries(report, "cr-rsma")
        assert set(entries) == {*reports, "combined_tail"}
        for entry in entries.values():
            assert relative_deviation(entry["chosen_value"], entry["oracle"]) <= (
                ARBITRATION_REL_TOL
            )
        # Every transcription slip shows up as a flagged stated route.
        assert entries["interference_limited"]["flagged_routes"] == ["stated"]
        assert entries["split_band"]["flagged_routes"] == ["stated"]
        assert entries["clear_channel"]["flagged_routes"] == ["stated"]
        assert entries["combined_tail"]["flagged_routes"] == ["stated"]
        assert entries["combined_tail"]["counts_toward_total"] is False
        assert all(
            e["counts_toward_total"] for t, e in entries.items() if t != "combined_tail"
        )

    def test_sic_terms_at_20db(self, report):
        reports = {r.term: r for r in term_reports(ProtocolKind.CR_SIC, SCENARIO_20DB)}
        assert set(reports) == {
            "interference_limited",
            "reduced_power",
            "preferred_order",
            "clear_channel",
        }
        for term in reports.values():
            assert list(term.routes) == ["derived"]
            assert relative_deviation(term.chosen_value, term.oracle_value) <= (
                ARBITRATION_REL_TOL
            )
        # Only the shared first term carries a transcription slip; the
        # others are printed in their derived form or have no stated route.
        entries = _entries(report, "cr-sic")
        assert set(entries) == set(reports)
        assert entries["interference_limited"]["flagged_routes"] == ["stated"]
        assert entries["reduced_power"]["flagged_routes"] == []
        assert entries["preferred_order"]["flagged_routes"] == []
        assert entries["clear_channel"]["flagged_routes"] == []
        for term in ("reduced_power", "preferred_order", "clear_channel"):
            assert "stated" not in entries[term]["routes"]

    def test_quadrature_collapse_falls_back_to_the_oracle(self):
        # At 40 dB the unscaled rule misses the below-threshold kernel's
        # mass; arbitration must hand that term to its own oracle value,
        # never to a degraded value.  Pure SIC's two band cells run on a
        # rule scaled to their kernel and keep their derived forms.
        rsma = {r.term: r for r in term_reports(ProtocolKind.CR_RSMA, SCENARIO_40DB)}
        sic = {r.term: r for r in term_reports(ProtocolKind.CR_SIC, SCENARIO_40DB)}
        for report in (rsma["interference_limited"], sic["interference_limited"]):
            assert report.chosen_route == "oracle"
            assert report.chosen_value == report.oracle_value
        for report in (sic["reduced_power"], sic["preferred_order"]):
            assert report.chosen_route == "derived"
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

    def test_zero_derived_term_falls_back_to_a_tiny_oracle(self):
        # A derived term of 0.0 against an oracle of 6.25e-13 is wholly
        # wrong, not within an absolute floor of it.
        for oracle_value, chosen in ((6.25e-13, "oracle"), (0.0, "derived")):
            report = crosscheck._report(
                ProtocolKind.CR_RSMA,
                "interference_limited",
                {"derived": lambda scenario: 0.0},
                oracle_value,
                SCENARIO_20DB,
            )
            assert (report.chosen_route, report.chosen_value) == (chosen, oracle_value)

    def test_benchmarks_have_no_decomposition(self):
        for protocol in (ProtocolKind.BENCH_CSI, ProtocolKind.BENCH_QOS):
            with pytest.raises(ValueError):
                term_reports(protocol, SCENARIO_20DB)

    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0, 40.0])
    @pytest.mark.parametrize(
        "protocol", [ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC, ProtocolKind.CR_SIC_NORM]
    )
    def test_zero_threshold_leaves_only_the_clear_channel(self, protocol, gamma0_db):
        # Without a rate target every draw is in the clear-channel region,
        # so every other term is exactly zero by both routes.
        scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db, rate_threshold=0.0)
        *others, report = term_reports(protocol, scenario)
        assert others
        for other in others:
            assert (other.routes["derived"], other.oracle_value) == (0.0, 0.0), other.term
        assert report.term == "clear_channel"
        assert report.chosen_route != "oracle"  # a closed form carries the term
        reference = ergodic_rate_oracle(protocol, scenario)
        analytic_rate = evaluate(protocol, scenario, "analytic").value
        assert relative_deviation(analytic_rate, reference) <= ARBITRATION_REL_TOL


class TestArbitratedRate:
    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    @pytest.mark.parametrize(
        "protocol",
        [ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC, ProtocolKind.CR_SIC_NORM],
    )
    def test_matches_oracle_across_grid(self, gamma0_db, protocol):
        scenario = ScenarioConfig.from_snr_db(gamma0_db, gamma0_db)
        arbitrated = evaluate(protocol, scenario, "analytic").value
        reference = ergodic_rate_oracle(protocol, scenario)
        assert relative_deviation(arbitrated, reference) < 1e-3


class TestEvaluate:
    def test_oracle_method(self):
        result = evaluate(ProtocolKind.CR_RSMA, SCENARIO_20DB, "oracle")
        assert result.value == ergodic_rate_oracle(ProtocolKind.CR_RSMA, SCENARIO_20DB)
        assert result.stderr == 0.0
        assert result.n_samples == 0

    @pytest.mark.parametrize("protocol", ANALYTIC_PROTOCOLS)
    def test_analytic_method(self, protocol):
        """An analytic row is the sum of the chosen values of its terms."""
        result = evaluate(protocol, SCENARIO_20DB, "analytic")
        reports = term_reports(protocol, SCENARIO_20DB)
        assert all(report.in_total for report in reports)
        assert result.value == math.fsum(report.chosen_value for report in reports)
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

    def test_tabulates_the_kernel_checks_but_never_chooses_them(self, report):
        for entry in report["entries"]:
            assert ("integral" in entry["routes"]) == (entry["term"] == "interference_limited")
            assert entry["chosen_route"] != "integral"
        assert sum(entry["term"] == "interference_limited" for entry in report["entries"]) == 2


class TestOnePath:
    """The analytic rows, the deviation report and release check 5 take
    their terms from one loop, so they agree on every term and total."""

    SCENARIOS = {
        f"gamma0_{db:g}db": ScenarioConfig.from_snr_db(db, db)
        for db in validation._QUICK_ANALYTIC_GRID
    }
    PROTOCOLS = (ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC)

    @pytest.fixture(scope="class")
    def quick_check(self):
        return validation.criterion_analytic_oracle(validation._QUICK_ANALYTIC_GRID)

    def test_report_counts_exactly_the_rows_terms(self, quick_check):
        _, report = quick_check
        counted = [
            (e["config"], e["protocol"], e["term"], e["chosen_route"], e["chosen_value"],
             e["oracle"])
            for e in report["entries"]
            if e["counts_toward_total"]
        ]
        rows = [
            (label, r.protocol, r.term, r.chosen_route, r.chosen_value, r.oracle_value)
            for label, scenario in self.SCENARIOS.items()
            for protocol in self.PROTOCOLS
            for r in term_reports(protocol, scenario)
        ]
        assert counted == rows

    def test_check_5_measures_the_analytic_rows_against_the_oracle_rows(self, quick_check):
        check, _ = quick_check
        worst = max(
            relative_deviation(
                evaluate(protocol, scenario, "analytic").value,
                evaluate(protocol, scenario, "oracle").value,
            )
            for scenario in self.SCENARIOS.values()
            for protocol in self.PROTOCOLS
        )
        assert check.measured == worst


REPORT_ONLY = (
    "below_threshold_term_integral",
    "below_threshold_stated",
    "split_band_stated",
    "clear_channel_stated",
    "merged_tail_stated",
)


@pytest.mark.parametrize("gamma0_pu,gamma0_su", [(40.0, 40.0), (20.0, 20.0), (50.0, 20.0)])
def test_rows_never_run_the_kernel_checks(monkeypatch, gamma0_pu, gamma0_su):
    """At 40 dB the below-threshold term's fixed rule saturates, which used
    to send arbitration to the adaptive kernel integrals; the rows take the
    oracle's term instead.  Nor do rows run a printed form: at 20 dB those miss
    their terms, and at (50, 20) dB the clear-channel one lands within
    tolerance of its term by coincidence."""
    for name in REPORT_ONLY:
        monkeypatch.setattr(
            analytic, name, lambda *args, name=name: pytest.fail(f"the rows ran {name}")
        )
    argv = ["point", "--gamma0-pu", str(gamma0_pu), "--gamma0-su", str(gamma0_su),
            "--method", "analytic"]
    settings = cli.resolve_settings(cli.build_parser().parse_args(argv))
    rows = cli.make_rows(settings, [(gamma0_pu, gamma0_su)])
    assert [row.split(",")[0] for row in rows] == ["cr-rsma", "cr-sic", "cr-sic-norm"]
    scenario = ScenarioConfig.from_snr_db(gamma0_pu, gamma0_su)
    for row, protocol in zip(rows, ANALYTIC_PROTOCOLS):
        oracle = ergodic_rate_oracle(protocol, scenario)
        assert relative_deviation(float(row.split(",")[4]), oracle) <= ARBITRATION_REL_TOL


@pytest.mark.parametrize("gamma0_pu", [50.0, 60.0])
def test_strong_primary_rsma_row_prints_its_oracle(gamma0_pu):
    """At figure 3's strong-primary end the printed clear-channel form's
    stray ``exp(-lambda_pu * theta)`` comes within tolerance of its term;
    the row takes the derived form, which prints the oracle's digits."""
    argv = ["point", "--gamma0-pu", str(gamma0_pu), "--gamma0-su", "20",
            "--protocol", "cr-rsma", "--method", "analytic,oracle"]
    settings = cli.resolve_settings(cli.build_parser().parse_args(argv))
    analytic_row, oracle_row = (
        row.split(",") for row in cli.make_rows(settings, [(gamma0_pu, 20.0)])
    )
    assert (analytic_row[3], oracle_row[3]) == ("analytic", "oracle")
    assert analytic_row[4] == oracle_row[4]


def test_weak_secondary_rsma_row_is_held_to_its_oracle():
    """At (40, -80) dB the derived interference-limited term is 0.0 against
    a true 6.25e-13.  An absolute floor on the deviation once let it through,
    and the analytic row printed 3.60505829e-09 against an oracle row of
    3.60568327e-09, 1.7e-4 apart."""
    argv = ["point", "--gamma0-pu", "40", "--gamma0-su", "-80",
            "--protocol", "cr-rsma", "--method", "analytic,oracle"]
    settings = cli.resolve_settings(cli.build_parser().parse_args(argv))
    analytic_row, oracle_row = (
        row.split(",") for row in cli.make_rows(settings, [(40.0, -80.0)])
    )
    assert (analytic_row[3], oracle_row[3]) == ("analytic", "oracle")
    # Relative to the oracle row alone, not through relative_deviation.
    oracle = float(oracle_row[4])
    assert float(analytic_row[4]) == pytest.approx(oracle, rel=ARBITRATION_REL_TOL, abs=0.0)


class TestRouteIsolation:
    """A route that raises is recorded as NaN with its reason, never chosen."""

    # The as-printed split-band forms multiply exp(lambda_pu * theta)
    # factors that overflow at a 12 bit/s/Hz target and 0 dB.
    SCENARIO = ScenarioConfig.from_snr_db(0.0, 0.0, rate_threshold=12.0)

    @pytest.fixture(scope="class")
    def overflow_report(self):
        return deviation_report({"rate_th_12": self.SCENARIO})

    def test_raising_route_is_recorded_not_propagated(self, overflow_report):
        entries = _entries(overflow_report, "cr-rsma")
        for term in ("split_band", "combined_tail"):
            entry = entries[term]
            assert math.isnan(entry["routes"]["stated"])
            assert entry["route_errors"]["stated"].startswith("OverflowError")
            assert entry["chosen_route"] == "derived"
            assert "stated" in entry["flagged_routes"]
        assert entries["interference_limited"]["route_errors"] == {}
        rate = evaluate(ProtocolKind.CR_RSMA, self.SCENARIO, "analytic").value
        oracle = ergodic_rate_oracle(ProtocolKind.CR_RSMA, self.SCENARIO)
        assert relative_deviation(rate, oracle) <= ARBITRATION_REL_TOL

    def test_raising_closed_form_falls_back_to_the_oracle(self, monkeypatch):
        def overflow(scenario):
            raise OverflowError("math range error")

        monkeypatch.setattr(analytic, "split_band_term", overflow)
        reports = {r.term: r for r in term_reports(ProtocolKind.CR_RSMA, SCENARIO_20DB)}
        band = reports["split_band"]
        assert math.isnan(band.routes["derived"])
        assert band.route_errors == {"derived": "OverflowError: math range error"}
        assert (band.chosen_route, band.chosen_value) == ("oracle", band.oracle_value)
        rate = evaluate(ProtocolKind.CR_RSMA, SCENARIO_20DB, "analytic").value
        oracle = ergodic_rate_oracle(ProtocolKind.CR_RSMA, SCENARIO_20DB)
        assert relative_deviation(rate, oracle) <= ARBITRATION_REL_TOL

    def test_deviation_report_carries_the_reason(self, overflow_report):
        failed = [e for e in overflow_report["entries"] if e["route_errors"]]
        assert {(e["protocol"], e["term"]) for e in failed} == {
            ("cr-rsma", "split_band"),
            ("cr-rsma", "combined_tail"),
        }
        assert all(math.isnan(e["routes"]["stated"]) for e in failed)
        assert all("stated" in e["flagged_routes"] for e in failed)


def _figure_grids():
    """Every ``cr-sic`` and ``cr-sic-norm`` scenario of the two figures."""
    points = [(db, db) for db in range(0, 41, 2)] + [(db, 20) for db in range(0, 61, 2)]
    return [
        (protocol, ScenarioConfig.from_snr_db(pu, su))
        for pu, su in points
        for protocol in (ProtocolKind.CR_SIC, ProtocolKind.CR_SIC_NORM)
    ]


def test_no_band_cell_falls_back_on_the_figure_grids():
    """Pure SIC's reduced-power and preferred-order rows are evidence on
    both figures: each takes its derived form, within 1e-9 of its oracle."""
    misses = []
    for protocol, scenario in _figure_grids():
        for report in term_reports(protocol, scenario):
            if report.term not in ("reduced_power", "preferred_order"):
                continue
            deviation = relative_deviation(report.routes["derived"], report.oracle_value)
            if report.chosen_route != "derived" or not deviation <= 1e-9:
                misses.append((protocol.value, scenario, report.term, deviation))
    assert misses == []


@pytest.mark.parametrize("gamma0_pu,gamma0_su", [(-80.0, 20.0), (20.0, -80.0)])
def test_a_huge_continued_fraction_argument_keeps_every_band_term_derived(
    gamma0_pu, gamma0_su
):
    """With a 30 bit/s/Hz target at a -80 dB link the band and clear-channel
    forms take ``exp(a) E1(a)`` near ``a = 1e17``, where the continued
    fraction's factors all rounded to an ulp off one and it raised: the
    route was recorded as NaN and the row took the oracle's term."""
    scenario = ScenarioConfig.from_snr_db(gamma0_pu, gamma0_su, rate_threshold=30.0)
    for protocol in (ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC):
        for report in term_reports(protocol, scenario):
            if report.term == "interference_limited":
                continue
            assert report.route_errors == {}, report.term
            assert report.chosen_route == "derived", report.term
