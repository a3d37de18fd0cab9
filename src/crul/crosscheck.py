"""Term-wise checks of the closed forms against the oracle.

Every analytic total is a sum of per-case terms.  Each term has one closed
form on the rate path: the re-derived (``derived``) one, compared against
that term's own region integral.  A row takes the closed form where it
lands within tolerance, and the oracle's term where it does not (a
fixed-order rule saturates at strong links).  The region integrals are the
per-case terms that :mod:`crul.oracle` owns and memoises, so the oracle
rows and the arbitration share one integration per term, and the fallback
costs nothing more.

Other routes are report-only, tabulated by :func:`deviation_report` and
never run by a row: the printed transcriptions (``stated``, slips
included), rate splitting's merged tail (``combined_tail``, the band and
clear-channel terms as its headline groups them), and adaptive
integrations of three derived kernels (``integral``), which check those
kernels against the oracle.  The report shows exactly which written forms
disagree with the integrals they claim to equal, by how much, and what a
row used instead.  A route that raises (an as-printed form overflowing
outside the regime it was stated for, say) is recorded as NaN with the
reason, on either path, so it cannot take the row down with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import analytic
from .analytic import DEFAULT_NODES, DERIVED, STATED, AnalyticParams
from .channel import ScenarioConfig
from .montecarlo import EstimateResult, estimate  # noqa: F401 - perfbench/spans.py patches estimate
from .oracle import TERMS, case_terms, ergodic_rate_oracle, normalized
# perfbench/spans.py patches these two names here.
from .oracle import mean_power_factor_oracle, restricted_expectation  # noqa: F401
from .protocols import ProtocolKind
from .specfun import ConvergenceError

#: A derived closed form agrees with its term oracle to ~1e-8 unless its
#: fixed-order rule saturates, missing kernel mass at strong links; past
#: this tolerance the row takes the oracle's term instead.
ARBITRATION_REL_TOL = 1e-4
#: Routes further off than this from the term oracle are flagged in the
#: deviation report.
REPORT_REL_TOL = 1e-2

#: What a numerical route may raise; recorded in its report, not propagated.
_ROUTE_ERRORS = (ArithmeticError, ValueError, ConvergenceError)

#: Protocols with a closed-form decomposition (the benchmarks have none).
ANALYTIC_PROTOCOLS = (*TERMS, ProtocolKind.CR_SIC_NORM)


def relative_deviation(value: float, reference: float) -> float:
    """|value - reference| over |reference|, saturated for a zero reference."""
    gap = abs(value - reference)
    if gap <= 1e-12:
        return 0.0
    return gap / max(abs(reference), 1e-12)


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


def _run_routes(routes, params) -> tuple[dict[str, float], dict[str, str]]:
    """Each route's value (a callable of ``params``), NaN with a reason if it raised."""
    values, errors = {}, {}
    for name, route in routes.items():
        try:
            values[name] = route(params)
        except _ROUTE_ERRORS as exc:
            values[name] = math.nan
            errors[name] = f"{type(exc).__name__}: {exc}"
    return values, errors


def _report(protocol, term, routes, oracle_value, params, in_total=True) -> TermReport:
    """Evaluate every route; the ``derived`` one is chosen where it is within
    tolerance of the oracle, and the oracle value where it is not."""
    values, errors = _run_routes(routes, params)
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


#: The report name and the derived closed form of each oracle term.  Routes
#: look their function up in :mod:`crul.analytic` when they run.
_TERM_FORMS = {
    "below": ("interference_limited", lambda p: analytic.below_threshold_term(p, DERIVED)),
    "band": ("split_band", lambda p: analytic.split_band_term(p, DERIVED)),
    "reduced": ("reduced_power", lambda p: analytic.reduced_power_term(p)),
    "preferred": ("preferred_order", lambda p: analytic.preferred_order_term(p)),
    "clear": ("clear_channel", lambda p: analytic.clear_channel_term(p, DERIVED)),
}

#: Report-only routes by report name; only :func:`deviation_report` runs
#: them.  ``stated`` is the printed transcription and ``integral`` an
#: adaptive integration of the derived kernel (the preferred-order one is
#: the oracle's own integral).  ``combined_tail`` is the band and
#: clear-channel terms as the rate-splitting headline groups them behind one
#: exponential factor; those two terms already cover the total.
_REPORT_ROUTES = {
    "interference_limited": {
        "stated": lambda p: analytic.below_threshold_term(p, STATED),
        "integral": lambda p: analytic.below_threshold_term_integral(p),
    },
    "split_band": {"stated": lambda p: analytic.split_band_term(p, STATED)},
    "reduced_power": {"integral": lambda p: analytic.reduced_power_term_integral(p)},
    "preferred_order": {"integral": lambda p: analytic.preferred_order_term_integral(p)},
    "clear_channel": {"stated": lambda p: analytic.clear_channel_term(p, STATED)},
    "combined_tail": {
        "stated": lambda p: analytic.merged_tail_stated(p),
        "derived": lambda p: analytic.split_band_term(p, DERIVED)
        + analytic.clear_channel_term(p, DERIVED),
    },
}
#: The order of a term's routes in the deviation report.
_ROUTE_ORDER = ("stated", "derived", "integral")


def term_reports(
    protocol: ProtocolKind, scenario: ScenarioConfig, nodes: int = DEFAULT_NODES
) -> list[TermReport]:
    """Each term of the total, its closed form against its own oracle.

    The normalized protocol reports the plain-SIC terms evaluated at the
    power-normalized configuration.
    """
    if protocol is ProtocolKind.CR_SIC_NORM:
        protocol, scenario = ProtocolKind.CR_SIC, normalized(scenario)
    if protocol not in TERMS:
        raise ValueError(f"no closed-form decomposition for {protocol}")
    params = AnalyticParams.from_scenario(scenario, nodes=nodes)
    oracle_values = case_terms(protocol, scenario)
    # With a zero threshold only the clear-channel region is non-empty.
    names = ("clear",) if params.theta == 0.0 else TERMS[protocol]
    reports = []
    for name in names:
        term, form = _TERM_FORMS[name]
        reports.append(_report(protocol, term, {"derived": form}, oracle_values[name], params))
    return reports


def arbitrated_rate(
    protocol: ProtocolKind, scenario: ScenarioConfig, nodes: int = DEFAULT_NODES
) -> float:
    """Oracle-arbitrated analytic ergodic rate (sum of the chosen term values)."""
    return math.fsum(r.chosen_value for r in term_reports(protocol, scenario, nodes=nodes))


def evaluate(
    protocol: ProtocolKind,
    scenario: ScenarioConfig,
    method: str,
    *,
    nodes: int = DEFAULT_NODES,
) -> EstimateResult:
    """Front door over the two deterministic routes, which record zero samples:
    ``analytic`` (the arbitrated closed form, defined only for the protocols
    that have one) and ``oracle``.  Monte Carlo rows come from
    :func:`crul.montecarlo.sample_point`.
    """
    if method == "analytic":
        if protocol not in ANALYTIC_PROTOCOLS:
            raise ValueError(f"no closed form for {protocol.value}")
        value = arbitrated_rate(protocol, scenario, nodes=nodes)
    elif method == "oracle":
        value = ergodic_rate_oracle(protocol, scenario)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EstimateResult(value=value, stderr=0.0, n_samples=0)


def _with_report_routes(protocol: ProtocolKind, report: TermReport, params) -> TermReport:
    """``report`` with its term's report-only routes evaluated beside the row's."""
    routes = _REPORT_ROUTES[report.term]
    if protocol is ProtocolKind.CR_SIC and report.term == "clear_channel":
        routes = {}  # The SIC headline prints this term as derived: no stated route.
    values, errors = _run_routes(routes, params)
    values, errors = {**values, **report.routes}, {**errors, **report.route_errors}
    return replace(
        report,
        routes={name: values[name] for name in _ROUTE_ORDER if name in values},
        route_errors={name: errors[name] for name in _ROUTE_ORDER if name in errors},
    )


def deviation_report(scenarios: dict[str, ScenarioConfig]) -> dict:
    """JSON-ready table of every route of every term at every config,
    with the closed forms on the default rule and the report-only routes
    beside the rows' own: the printed forms, the kernel checks and rate
    splitting's merged tail.

    ``flagged`` summarizes the routes that miss their term oracle by more
    than the report tolerance — the transcription slips show up here.
    """
    entries = []
    flagged = []
    for label, scenario in scenarios.items():
        params = AnalyticParams.from_scenario(scenario)
        for protocol in TERMS:
            reports = [
                _with_report_routes(protocol, report, params)
                for report in term_reports(protocol, scenario)
            ]
            by_term = {report.term: report for report in reports}
            if "split_band" in by_term:
                tail = by_term["split_band"].oracle_value + by_term["clear_channel"].oracle_value
                routes = _REPORT_ROUTES["combined_tail"]
                reports.append(
                    _report(protocol, "combined_tail", routes, tail, params, in_total=False)
                )
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
