"""Spans and counters recorded around the calls into each layer of ``crul``.

The tracer replaces each public function at the name its caller looks it
up by (a module attribute: ``crosscheck`` calls ``restricted_expectation``
through its own from-import, ``oracle`` through its module global) with a
wrapper that records a span or a count, then calls the original.  Nothing
inside the program changes, so the traced CSV must be byte-identical to
the untraced one.  Chunk kernels run on the Monte Carlo worker pool, so
every update to shared state holds a lock.

A span's time is added to each of its metric keys unless an enclosing
span on the same thread already carries that key, so nested or recursive
calls are not counted twice.  Pool threads have no enclosing span of their
own; their parent is the span the main thread is in when they run, and
their times are busy seconds summed over threads.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

from crul import analytic, cli, crosscheck, montecarlo, oracle, specfun

#: The seven array kernels the Monte Carlo chunks call.
KERNELS = (
    "csi_rate_array",
    "qos_rate_array",
    "rsma_case_array",
    "rsma_rate_arrays",
    "sic_case_array",
    "sic_power_factor_array",
    "sic_rate_arrays",
)
#: Closed-form terms evaluated with the fixed-order Gauss-Laguerre rule.
FIXED_RULE_TERMS = (
    "below_threshold_term",
    "split_band_term",
    "clear_channel_term",
    "merged_tail_stated",
    "reduced_power_term",
    "preferred_order_term",
)
#: The same terms by adaptive panel integration.
ADAPTIVE_TERMS = (
    "below_threshold_term_integral",
    "reduced_power_term_integral",
    "preferred_order_term_integral",
)
FIXED_ROUTES = ("stated", "derived")


class Tracer:
    """Collects spans and counters while installed; restores on ``uninstall``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._main_ident = threading.main_thread().ident
        self._next_id = 0
        self._patched: list = []
        self._integral_keys: set = set()
        self.spans: list[dict] = []
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._gauss_laguerre = specfun.gauss_laguerre
        self._builds_before = self._gauss_laguerre.cache_info().misses

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, keys, original, args, kwargs, after):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            # A pool thread: its work was caused by the main thread's span.
            parent = self._main_stack[-1][0] if self._main_stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        enclosing = {key for _, outer in stack for key in outer}
        stack.append((span_id, keys))
        error = None
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "thread": threading.get_ident(),
                        "start": start,
                        "end": end,
                        "error": error,
                    }
                )
                for key in keys:
                    self.counts[key + ".calls"] += 1
                    if key not in enclosing:
                        self.seconds[key] += end - start
                if error is not None:
                    self.counts[f"{name}.errors.{error}"] += 1
        if after is not None:
            after(result)
        return result

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(self, module, attr: str, name: str, groups=(), after=None, name_of=None):
        """Record a span named ``name`` around every call of ``module.attr``.

        The span's time goes to ``name`` and to every key in ``groups``;
        ``name_of(bound_arguments)`` may refine the name per call, and
        ``after(bound_arguments, result)`` sees each result.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)
        bind = after is not None or name_of is not None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if bind else None
            span_name = name_of(bound) if name_of else name
            keys = (span_name, *groups)
            hook = (lambda result: after(bound, result)) if after else None
            return self._run(span_name, keys, original, args, kwargs, hook)

        self._patch(module, attr, wrapper)

    def count(self, module, attr: str, key: str) -> None:
        """Count the calls of ``module.attr`` under ``key``, without a span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, wrapper)

    # --------------------------------------------------------- install

    def _note_integral(self, bound, result) -> None:
        region = bound["region"]
        key = (
            region.description,
            region.pu_lower,
            region.pu_upper,
            bound["lambda_pu"],
            bound["lambda_su"],
            result,
        )
        with self._lock:
            self._integral_keys.add(key)

    def _note_terms(self, bound, reports) -> None:
        counted = [report for report in reports if report.in_total]
        with self._lock:
            self.counts["crosscheck.terms_arbitrated"] += len(counted)
            self.counts["crosscheck.fixed_rule_wins"] += sum(
                report.chosen_route in FIXED_ROUTES for report in counted
            )

    def _note_draws(self, bound, result) -> None:
        with self._lock:
            self.counts["channel.draws"] += int(bound["count"])

    def install(self) -> None:
        self.span(cli, "make_rows", "cli.make_rows", groups=("cli",))
        self.span(cli, "write_csv", "cli.write_csv", groups=("cli",))
        self.span(
            cli,
            "evaluate",
            "crosscheck.evaluate",
            name_of=lambda bound: f"crosscheck.evaluate.{bound['method']}",
        )
        mc_groups = ("montecarlo.wall",)
        self.span(cli, "mean_power_factor", "montecarlo.mean_power_factor", mc_groups)
        self.span(montecarlo, "mean_power_factor", "montecarlo.mean_power_factor", mc_groups)
        self.span(crosscheck, "estimate", "montecarlo.estimate", mc_groups)
        for module in (cli, crosscheck, oracle):
            self.span(module, "mean_power_factor_oracle", "oracle.mean_power_factor_oracle")
        for module in (crosscheck, oracle):
            self.span(
                module,
                "restricted_expectation",
                "oracle.restricted_expectation",
                after=self._note_integral,
            )
        self.span(crosscheck, "ergodic_rate_oracle", "oracle.ergodic_rate_oracle")
        self.span(crosscheck, "term_reports", "crosscheck.term_reports", after=self._note_terms)
        for attr in FIXED_RULE_TERMS:
            self.span(analytic, attr, f"analytic.{attr}", groups=("analytic.fixed_rule",))
        for attr in ADAPTIVE_TERMS:
            self.span(analytic, attr, f"analytic.{attr}", groups=("analytic.adaptive",))
        for module in (analytic, specfun):
            self.span(module, "gauss_laguerre", "specfun.gauss_laguerre")
        self.count(analytic, "expint_ei", "specfun.expint_ei.calls")
        self.count(analytic, "log_e1", "specfun.log_e1.calls")
        self.span(montecarlo, "sample_snrs", "channel.sample_snrs", after=self._note_draws)
        for attr in KERNELS:
            self.span(montecarlo, attr, f"protocols.{attr}", groups=("protocols.kernels",))
        self.count(montecarlo, "chunk_stream", "montecarlo.chunk_streams")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- report

    def metrics(self, points: int, chunks_per_pass: int, sweep_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded while installed."""
        sec = self.seconds
        calls = self.counts
        mc_wall = sec["montecarlo.wall"]
        terms = calls["crosscheck.terms_arbitrated"]
        integrals = calls["oracle.restricted_expectation.calls"]
        streams = calls["montecarlo.chunk_streams"]
        values = {
            "cli.make_rows.s": sec["cli.make_rows"],
            "cli.write_csv.s": sec["cli.write_csv"],
            "trace.cli_coverage": sec["cli"] / sweep_s if sweep_s > 0.0 else 0.0,
            "crosscheck.evaluate.mc.s": sec["crosscheck.evaluate.mc"],
            "crosscheck.evaluate.analytic.s": sec["crosscheck.evaluate.analytic"],
            "crosscheck.evaluate.oracle.s": sec["crosscheck.evaluate.oracle"],
            "crosscheck.term_reports.calls": calls["crosscheck.term_reports.calls"],
            "crosscheck.terms_arbitrated": terms,
            "crosscheck.fixed_rule_win_ratio": (
                calls["crosscheck.fixed_rule_wins"] / terms if terms else 0.0
            ),
            "oracle.restricted_expectation.calls": integrals,
            "oracle.restricted_expectation.s": sec["oracle.restricted_expectation"],
            "oracle.integrals_per_point": integrals / points,
            "oracle.distinct_integral_ratio": (
                len(self._integral_keys) / integrals if integrals else 0.0
            ),
            "oracle.mean_power_factor_oracle.calls": calls[
                "oracle.mean_power_factor_oracle.calls"
            ],
            "oracle.mean_power_factor_oracle.s": sec["oracle.mean_power_factor_oracle"],
            "oracle.accuracy_errors": calls[
                "oracle.restricted_expectation.errors.OracleAccuracyError"
            ],
            "analytic.fixed_rule.s": sec["analytic.fixed_rule"],
            "analytic.adaptive.calls": calls["analytic.adaptive.calls"],
            "analytic.adaptive.s": sec["analytic.adaptive"],
            "specfun.gauss_laguerre.builds": (
                self._gauss_laguerre.cache_info().misses - self._builds_before
            ),
            "specfun.gauss_laguerre.s": sec["specfun.gauss_laguerre"],
            "specfun.expint_ei.calls": calls["specfun.expint_ei.calls"],
            "specfun.log_e1.calls": calls["specfun.log_e1.calls"],
            "montecarlo.estimate.calls": calls["montecarlo.estimate.calls"],
            "montecarlo.estimate.s": sec["montecarlo.estimate"],
            "montecarlo.mean_power_factor.calls": calls["montecarlo.mean_power_factor.calls"],
            "montecarlo.mean_power_factor.s": sec["montecarlo.mean_power_factor"],
            "montecarlo.passes_per_point": streams / chunks_per_pass / points,
            "montecarlo.parallelism": (
                (sec["channel.sample_snrs"] + sec["protocols.kernels"]) / mc_wall
                if mc_wall > 0.0
                else 0.0
            ),
            "channel.sample_snrs.calls": calls["channel.sample_snrs.calls"],
            "channel.sample_snrs.s": sec["channel.sample_snrs"],
            "channel.draws": calls["channel.draws"],
            "protocols.kernels.s": sec["protocols.kernels"],
        }
        for attr in KERNELS:
            values[f"protocols.{attr}.s"] = sec[f"protocols.{attr}"]
        return values

    def dump(self, path: str) -> None:
        """Write every recorded span as JSON (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)
