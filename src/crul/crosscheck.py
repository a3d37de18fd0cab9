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
from .oracle import ergodic_rate_oracle, mean_power_factor_oracle, rsma_terms, sic_terms
from .oracle import restricted_expectation  # noqa: F401 - perfbench/spans.py patches this name
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
ANALYTIC_PROTOCOLS = (
    ProtocolKind.CR_RSMA,
    ProtocolKind.CR_SIC,
    ProtocolKind.CR_SIC_NORM,
)


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


def _report(protocol, term, routes, oracle_value, in_total=True) -> TermReport:
    """Evaluate every route (a zero-argument callable) and arbitrate."""
    values, errors = {}, {}
    for name, route in routes.items():
        try:
            values[name] = route()
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


def _rsma_reports(scenario: ScenarioConfig, params: AnalyticParams):
    oracle_below, oracle_band, oracle_clear = rsma_terms(scenario)
    clear = _report(
        ProtocolKind.CR_RSMA,
        "clear_channel",
        {
            "stated": lambda: analytic.clear_channel_term(params, STATED),
            "derived": lambda: analytic.clear_channel_term(params, DERIVED),
        },
        oracle_clear,
    )
    if params.theta == 0.0:
        return [clear]  # the other regions are empty

    return [
        _report(
            ProtocolKind.CR_RSMA,
            "interference_limited",
            {
                "stated": lambda: analytic.below_threshold_term(params, STATED),
                "derived": lambda: analytic.below_threshold_term(params, DERIVED),
                "integral": lambda: analytic.below_threshold_term_integral(params),
            },
            oracle_below,
        ),
        _report(
            ProtocolKind.CR_RSMA,
            "split_band",
            {
                "stated": lambda: analytic.split_band_term(params, STATED),
                "derived": lambda: analytic.split_band_term(params, DERIVED),
            },
            oracle_band,
        ),
        clear,
        # The source's headline groups the last two terms behind one
        # combined exponential factor; kept as a report-only row since
        # the separated terms above already cover the total.
        _report(
            ProtocolKind.CR_RSMA,
            "combined_tail",
            {
                "stated": lambda: analytic.merged_tail_stated(params),
                "derived": lambda: analytic.split_band_term(params, DERIVED)
                + analytic.clear_channel_term(params, DERIVED),
            },
            oracle_band + oracle_clear,
            in_total=False,
        ),
    ]


def _sic_reports(scenario: ScenarioConfig, params: AnalyticParams):
    oracle_miss, oracle_reduced, oracle_preferred, oracle_clear = sic_terms(scenario)
    # The headline prints this term in the same form the derivation
    # produces, so there is only one closed-form route.
    clear = _report(
        ProtocolKind.CR_SIC,
        "clear_channel",
        {"derived": lambda: analytic.clear_channel_term(params, DERIVED)},
        oracle_clear,
    )
    if params.theta == 0.0:
        return [clear]  # the other regions are empty

    return [
        _report(
            ProtocolKind.CR_SIC,
            "interference_limited",
            {
                "stated": lambda: analytic.below_threshold_term(params, STATED),
                "derived": lambda: analytic.below_threshold_term(params, DERIVED),
                "integral": lambda: analytic.below_threshold_term_integral(params),
            },
            oracle_miss,
        ),
        _report(
            ProtocolKind.CR_SIC,
            "reduced_power",
            {
                "derived": lambda: analytic.reduced_power_term(params, DERIVED),
                "integral": lambda: analytic.reduced_power_term_integral(params),
            },
            oracle_reduced,
        ),
        _report(
            ProtocolKind.CR_SIC,
            "preferred_order",
            {
                "derived": lambda: analytic.preferred_order_term(params),
                "integral": lambda: analytic.preferred_order_term_integral(params),
            },
            oracle_preferred,
        ),
        clear,
    ]


def term_reports(
    protocol: ProtocolKind, scenario: ScenarioConfig, nodes: int = 100
) -> list[TermReport]:
    """Route-by-route comparison of every term against its own oracle.

    The normalized protocol reports the plain-SIC terms evaluated at the
    power-normalized configuration (oracle mean scale).  With a zero
    threshold only the clear-channel region is non-empty, so that is the
    one term reported.
    """
    if protocol is ProtocolKind.CR_SIC_NORM:
        scale = mean_power_factor_oracle(scenario)
        scenario = scenario.with_secondary_snr_scaled(1.0 / scale)
        protocol = ProtocolKind.CR_SIC
    params = AnalyticParams.from_scenario(scenario, nodes=nodes)
    if protocol is ProtocolKind.CR_RSMA:
        return _rsma_reports(scenario, params)
    if protocol is ProtocolKind.CR_SIC:
        return _sic_reports(scenario, params)
    raise ValueError(f"no closed-form decomposition for {protocol}")


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
        return EstimateResult(
            value=value, stderr=0.0, n_samples=0, method="analytic", protocol=protocol
        )
    if method == "oracle":
        value = ergodic_rate_oracle(protocol, scenario)
        return EstimateResult(
            value=value, stderr=0.0, n_samples=0, method="oracle", protocol=protocol
        )
    raise ValueError(f"unknown method {method!r}")


def deviation_report(scenarios: dict[str, ScenarioConfig]) -> dict:
    """JSON-ready table of every route of every term at every config,
    with the closed forms on the default 100-node rule.

    ``flagged`` summarizes the routes that miss their term oracle by more
    than the report tolerance — the transcription slips show up here.
    """
    entries = []
    flagged = []
    for label, scenario in scenarios.items():
        for protocol in (ProtocolKind.CR_RSMA, ProtocolKind.CR_SIC):
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
