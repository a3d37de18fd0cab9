"""Term-wise checks of the closed forms against the oracle.

Every analytic total is a sum of per-case terms.  Each term has one closed
form on the rate path: the re-derived (``derived``) one, compared against
that term's own region integral.  A row takes the closed form where it
lands within tolerance, and the oracle's term where it does not (a
fixed-order rule saturates at strong links).  The tolerance is purely
relative, with no absolute floor: a derived 0.0 against a tiny term (a
weak secondary's) is wholly off.  The region integrals are the per-case
terms that :mod:`crul.oracle` owns and memoises, so the oracle rows and
the arbitration share one integration per term, and the fallback costs
nothing more.  Every route is a callable of the scenario alone.

A term's routes are written once, in one table keyed by the oracle's term
name, and run by one loop, :func:`term_reports`.  An analytic row
(:func:`evaluate`) sums the chosen values of a ``derived``-only run, and
release check 5 compares those rows with the oracle's.  The other routes
are report-only, tabulated by :func:`deviation_report`: the printed
transcriptions (``stated``, slips included, the ``analytic.*_stated``
functions), rate splitting's merged tail (``combined_tail``, the band and
clear-channel terms as its headline groups them), and the adaptive
integration of the below-threshold kernel (``integral``), which checks
that kernel against the oracle where its fixed-rule sum saturates.  The
report shows exactly which written forms disagree with the integrals
they claim to equal, by how much, and what a row used instead.  A route
that raises (an as-printed form overflowing outside the regime it was
stated for, say) is recorded as NaN with the reason, on either path, so
it cannot take the row down with it.  The two benchmarks have oracle
terms but no closed forms yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import analytic
from .channel import ScenarioConfig
from .montecarlo import EstimateResult, estimate  # noqa: F401 - perfbench/spans.py patches estimate
from .oracle import TERMS, case_terms, ergodic_rate_oracle, normalized
# perfbench/spans.py patches these two names here.
from .oracle import mean_power_factor_oracle, restricted_expectation  # noqa: F401
from .protocols import ProtocolKind
from .specfun import ConvergenceError

#: A derived closed form agrees with its term oracle to ~1e-8 unless the
#: below-threshold term's fixed-order rule saturates, missing kernel mass
#: at strong links; past this tolerance the row takes the oracle's term
#: instead.
ARBITRATION_REL_TOL = 1e-4
#: Routes further off than this from the term oracle are flagged in the
#: deviation report.
REPORT_REL_TOL = 1e-2

#: What a numerical route may raise; recorded in its report, not propagated.
_ROUTE_ERRORS = (ArithmeticError, ValueError, ConvergenceError)

#: Protocols with a closed-form decomposition (the benchmarks have none).
ANALYTIC_PROTOCOLS = (ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC, ProtocolKind.CR_SIC_NORM)


def relative_deviation(value: float, reference: float) -> float:
    """|value - reference| over |reference|: 0 where the two are equal, and
    infinite where only the reference is zero, however small the gap."""
    if value == reference:
        return 0.0
    return abs(value - reference) / abs(reference) if reference != 0.0 else math.inf


@dataclass(frozen=True)
class TermReport:
    """All evaluated routes for one term, against its oracle value."""

    protocol: str
    term: str
    oracle_value: float
    routes: dict[str, float]
    chosen_route: str
    chosen_value: float
    #: Report-only rows (alternative groupings) are excluded from totals.
    in_total: bool = True
    #: Why each route that raised has NaN in ``routes``.
    route_errors: dict[str, str] = field(default_factory=dict)

    @property
    def deviations(self) -> dict[str, float]:
        return {
            name: relative_deviation(value, self.oracle_value)
            for name, value in self.routes.items()
        }

    @property
    def flagged_routes(self) -> tuple[str, ...]:
        """Routes off by more than the report tolerance, or that raised."""
        return tuple(
            name for name, dev in self.deviations.items() if not dev <= REPORT_REL_TOL
        )


def _report(protocol, term, routes, oracle_value, scenario, in_total=True) -> TermReport:
    """Evaluate every route, NaN with a reason if it raised; the ``derived``
    one is chosen where it is within tolerance of the oracle, and the
    oracle value where it is not."""
    values, errors = {}, {}
    for name, route in routes.items():
        try:
            values[name] = route(scenario)
        except _ROUTE_ERRORS as exc:
            values[name] = math.nan
            errors[name] = f"{type(exc).__name__}: {exc}"
    chosen_route, chosen_value = "oracle", oracle_value
    if relative_deviation(values["derived"], oracle_value) <= ARBITRATION_REL_TOL:
        chosen_route, chosen_value = "derived", values["derived"]
    return TermReport(
        protocol=protocol.value,
        term=term,
        oracle_value=oracle_value,
        routes=values,
        chosen_route=chosen_route,
        chosen_value=chosen_value,
        in_total=in_total,
        route_errors=errors,
    )


#: Every closed-form route of each oracle term, by the oracle's term name:
#: the term's report name and its routes in report order.  ``derived`` is
#: the row's route (``analytic.*_term``); ``stated`` is the printed
#: transcription (``analytic.*_stated``) and ``integral`` the adaptive
#: integration of the below-threshold kernel, which only
#: :func:`deviation_report` runs.  Routes look up their function when run.
_ROUTES = {
    "below": ("interference_limited", {
        "stated": lambda s: analytic.below_threshold_stated(s),
        "derived": lambda s: analytic.below_threshold_term(s),
        "integral": lambda s: analytic.below_threshold_term_integral(s),
    }),
    "band": ("split_band", {
        "stated": lambda s: analytic.split_band_stated(s),
        "derived": lambda s: analytic.split_band_term(s),
    }),
    "reduced": ("reduced_power", {
        "derived": lambda s: analytic.reduced_power_term(s),
    }),
    "preferred": ("preferred_order", {
        "derived": lambda s: analytic.preferred_order_term(s),
    }),
    "clear": ("clear_channel", {
        "stated": lambda s: analytic.clear_channel_stated(s),
        "derived": lambda s: analytic.clear_channel_term(s),
    }),
}
#: The band and clear-channel terms as the rate-splitting headline groups
#: them behind one exponential factor; report-only, since those two terms
#: already cover the total.
_COMBINED_TAIL = {
    "stated": lambda s: analytic.merged_tail_stated(s),
    "derived": lambda s: analytic.split_band_term(s) + analytic.clear_channel_term(s),
}


def term_reports(
    protocol: ProtocolKind, scenario: ScenarioConfig, every_route: bool = False
) -> list[TermReport]:
    """Each term of the total, its closed form against its own oracle: a
    row's ``derived`` route only, or every route of :data:`_ROUTES`.

    The normalized protocol reports the plain-SIC terms evaluated at the
    power-normalized configuration.
    """
    if protocol not in ANALYTIC_PROTOCOLS:
        raise ValueError(f"no closed-form decomposition for {protocol}")
    if protocol is ProtocolKind.CR_SIC_NORM:
        protocol, scenario = ProtocolKind.CR_SIC, normalized(scenario)
    oracle_values = case_terms(protocol, scenario)
    reports = []
    for name in TERMS[protocol]:
        term, routes = _ROUTES[name]
        # The SIC headline prints its clear-channel term as derived.
        if not every_route or (protocol is ProtocolKind.CR_SIC and name == "clear"):
            routes = {"derived": routes["derived"]}
        reports.append(_report(protocol, term, routes, oracle_values[name], scenario))
    return reports


def evaluate(protocol: ProtocolKind, scenario: ScenarioConfig, method: str) -> EstimateResult:
    """Front door over the two deterministic routes, which record zero samples:
    ``analytic`` (the sum of the arbitrated terms, defined only for the
    protocols that have one) and ``oracle``.  Monte Carlo rows come from
    :func:`crul.montecarlo.sample_point`.
    """
    if method == "analytic":
        reports = term_reports(protocol, scenario)
        value = math.fsum(report.chosen_value for report in reports)
    elif method == "oracle":
        value = ergodic_rate_oracle(protocol, scenario)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EstimateResult(value=value, stderr=0.0, n_samples=0)


def deviation_report(scenarios: dict[str, ScenarioConfig]) -> dict:
    """JSON-ready table of every route of every term at every config,
    with the report-only routes beside the rows' own: the printed forms, the kernel checks and rate
    splitting's merged tail.

    ``flagged`` summarizes the routes that miss their term oracle by more
    than the report tolerance — the transcription slips show up here.
    """
    entries = []
    flagged = []
    for label, scenario in scenarios.items():
        # The normalized protocol's terms are pure SIC's at another scenario.
        for protocol in (ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC):
            reports = term_reports(protocol, scenario, every_route=True)
            by_term = {report.term: report for report in reports}
            if "split_band" in by_term:
                tail = by_term["split_band"].oracle_value + by_term["clear_channel"].oracle_value
                reports.append(_report(
                    protocol, "combined_tail", _COMBINED_TAIL, tail, scenario, in_total=False
                ))
            for report in reports:
                entry = {
                    "config": label,
                    "protocol": report.protocol,
                    "term": report.term,
                    "oracle": report.oracle_value,
                    "routes": report.routes,
                    "deviations": report.deviations,
                    "chosen_route": report.chosen_route,
                    "chosen_value": report.chosen_value,
                    "counts_toward_total": report.in_total,
                    "flagged_routes": list(report.flagged_routes),
                    "route_errors": report.route_errors,
                }
                entries.append(entry)
                for route in report.flagged_routes:
                    flagged.append(
                        {
                            "config": label,
                            "protocol": report.protocol,
                            "term": report.term,
                            "route": route,
                            "deviation": report.deviations[route],
                        }
                    )
    return {
        "arbitration_rel_tol": ARBITRATION_REL_TOL,
        "report_rel_tol": REPORT_REL_TOL,
        "entries": entries,
        "flagged": flagged,
    }
