"""Term-wise arbitration between the closed forms and the oracle.

Every analytic total is a sum of per-case terms, and several of those
terms exist in more than one written form (a transcription of the source
expression, the re-derived expression, and an adaptive integration of the
pre-quadrature kernel).  This module evaluates every available route for
every term, compares each against that term's own region integral, and
assembles the arbitrated total from the first route in preference order
that lands within tolerance — transcription first (keep the written form
when it is right), then the derived form, then the adaptive kernel route,
with the oracle value itself as the fallback.  The region integrals are
the per-case terms that :mod:`crul.oracle` owns and memoises, so the
oracle rows and the arbitration share one integration per term.

The full comparison table is exported as a JSON-ready deviation report so
that a reader can see exactly which written forms disagree with the
integrals they claim to equal, by how much, and what was used instead.
A route that raises (an as-printed form overflowing outside the regime it
was stated for, say) is recorded as NaN with the reason and never wins,
so it cannot take the row down with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import analytic
from .analytic import DERIVED, STATED, AnalyticParams
from .channel import ScenarioConfig
from .montecarlo import EstimateResult, estimate  # noqa: F401 - perfbench/spans.py patches estimate
from .oracle import TERMS, case_terms, ergodic_rate_oracle, normalized
# perfbench/spans.py patches these two names here.
from .oracle import mean_power_factor_oracle, restricted_expectation  # noqa: F401
from .protocols import ProtocolKind
from .specfun import ConvergenceError

#: Routes tried in order; the first within ARBITRATION_REL_TOL of the
#: term oracle wins.  "stated" is the transcription, "derived" the
#: re-derivation (both fixed-rule quadrature where the term needs one),
#: "integral" the adaptive integration of the derived kernel.
ROUTE_PREFERENCE = ("stated", "derived", "integral")
#: Structurally correct routes agree with their term oracle to ~1e-8;
#: the tolerance sits far above that but far below the smallest
#: coincidental match observed from a slipped transcription (a stray
#: exp factor drifting to 1 can bring one within ~9e-4 of the oracle at
#: the top of the SNR grid, which must not win over an exact route).
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


def _arbitrate(routes: dict[str, float], oracle_value: float) -> tuple[str, float]:
    for name in ROUTE_PREFERENCE:
        if name in routes:
            if relative_deviation(routes[name], oracle_value) <= ARBITRATION_REL_TOL:
                return name, routes[name]
    return "oracle", oracle_value


def _report(protocol, term, routes, oracle_value, params, in_total=True) -> TermReport:
    """Evaluate every route (a callable of ``params``) and arbitrate."""
    values, errors = {}, {}
    for name, route in routes.items():
        try:
            values[name] = route(params)
        except _ROUTE_ERRORS as exc:
            values[name] = math.nan
            errors[name] = f"{type(exc).__name__}: {exc}"
    chosen_route, chosen_value = _arbitrate(values, oracle_value)
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


#: The report name and the closed-form routes of each oracle term.  Routes
#: look their function up in :mod:`crul.analytic` when they run.
_TERM_ROUTES = {
    "below": ("interference_limited", {
        "stated": lambda p: analytic.below_threshold_term(p, STATED),
        "derived": lambda p: analytic.below_threshold_term(p, DERIVED),
        "integral": lambda p: analytic.below_threshold_term_integral(p),
    }),
    "band": ("split_band", {
        "stated": lambda p: analytic.split_band_term(p, STATED),
        "derived": lambda p: analytic.split_band_term(p, DERIVED),
    }),
    "reduced": ("reduced_power", {
        "derived": lambda p: analytic.reduced_power_term(p),
        "integral": lambda p: analytic.reduced_power_term_integral(p),
    }),
    "preferred": ("preferred_order", {
        "derived": lambda p: analytic.preferred_order_term(p),
        "integral": lambda p: analytic.preferred_order_term_integral(p),
    }),
    "clear": ("clear_channel", {
        "stated": lambda p: analytic.clear_channel_term(p, STATED),
        "derived": lambda p: analytic.clear_channel_term(p, DERIVED),
    }),
}


def term_reports(
    protocol: ProtocolKind, scenario: ScenarioConfig, nodes: int = 100
) -> list[TermReport]:
    """Route-by-route comparison of every term against its own oracle.

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
        term, routes = _TERM_ROUTES[name]
        if protocol is ProtocolKind.CR_SIC and name == "clear":
            # The SIC headline prints this term as derived: no stated route.
            routes = {"derived": routes["derived"]}
        reports.append(_report(protocol, term, routes, oracle_values[name], params))
    if "band" in names:
        # The rate-splitting headline groups the band and clear-channel terms
        # behind one exponential factor; report-only, as those terms cover
        # the total.
        routes = {
            "stated": lambda p: analytic.merged_tail_stated(p),
            "derived": lambda p: analytic.split_band_term(p, DERIVED)
            + analytic.clear_channel_term(p, DERIVED),
        }
        tail = oracle_values["band"] + oracle_values["clear"]
        reports.append(_report(protocol, "combined_tail", routes, tail, params, in_total=False))
    return reports


def arbitrated_rate(protocol: ProtocolKind, scenario: ScenarioConfig, nodes: int = 100) -> float:
    """Oracle-arbitrated analytic ergodic rate (sum of chosen term routes)."""
    reports = term_reports(protocol, scenario, nodes=nodes)
    return math.fsum(r.chosen_value for r in reports if r.in_total)


def evaluate(
    protocol: ProtocolKind,
    scenario: ScenarioConfig,
    method: str,
    *,
    nodes: int = 100,
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


def deviation_report(scenarios: dict[str, ScenarioConfig]) -> dict:
    """JSON-ready table of every route of every term at every config,
    with the closed forms on the default 100-node rule.

    ``flagged`` summarizes the routes that miss their term oracle by more
    than the report tolerance — the transcription slips show up here.
    """
    entries = []
    flagged = []
    for label, scenario in scenarios.items():
        for protocol in TERMS:
            for report in term_reports(protocol, scenario):
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
