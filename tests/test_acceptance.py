"""The nine release criteria, at their full published budgets.

One test per criterion, in order.  Each prints a single machine-readable
pass/fail line (id, status, measured value, tolerance) and then asserts,
so a red run shows exactly which bar was missed and by how much.  The
checks themselves live in :mod:`crul.validation`; running them here at
full size is the authoritative gate, the CLI's ``validate`` being the
fast console mirror of the same battery.

Criteria 5-7 lean on a shared memoized oracle, so wall-clock budgets hold
comfortably even though every check runs at its complete grid.
"""

import re

from crul import cli, montecarlo, validation
from crul.montecarlo import CHUNK_SIZE
from crul.validation import CheckResult


def report(check: CheckResult, budget_s: float | None = None) -> None:
    status = "PASS" if check.passed else "FAIL"
    line = (
        f"criterion_{check.id} {status} measured={check.measured:.6g} "
        f"tolerance={check.tolerance:.6g}"
    )
    print(line)
    assert check.passed, f"{line} # {check.name}: {check.detail}"
    if budget_s is not None:
        assert check.runtime_s < budget_s, (
            f"criterion_{check.id} took {check.runtime_s:.1f}s, budget {budget_s:g}s"
        )


def test_criterion_1_quadrature_moment_exactness():
    report(validation.criterion_quadrature(), budget_s=1.0)


def test_criterion_2_exponential_integral_accuracy():
    report(validation.criterion_special_functions(), budget_s=1.0)


def test_criterion_2_reports_the_bar_it_applies():
    check = validation.criterion_special_functions()
    assert check.tolerance == 1e-12
    assert check.passed == (check.measured <= check.tolerance)


def test_criterion_3_primary_user_protection():
    report(validation.criterion_pu_protection(seed=0, samples=10**6), budget_s=30.0)


def test_criterion_4_rate_splitting_dominance():
    report(validation.criterion_dominance(seed=0, samples=10**6), budget_s=30.0)


def test_criterion_5_closed_forms_vs_oracle():
    check, deviations = validation.criterion_analytic_oracle(grid=validation.ANALYTIC_GRID_DB)
    report(check, budget_s=60.0)

    # Every flagged as-printed route must be tabulated alongside at least
    # one alternative route value, so a reader can see what the number
    # should have been, and the arbitration must never have selected it.
    by_key = {
        (entry["config"], entry["protocol"], entry["term"]): entry
        for entry in deviations["entries"]
    }
    assert deviations["flagged"], "the known transcription slips should be tabulated"
    for flag in deviations["flagged"]:
        entry = by_key[(flag["config"], flag["protocol"], flag["term"])]
        assert flag["deviation"] > deviations["report_rel_tol"]
        assert entry["chosen_route"] != flag["route"]
        alternatives = set(entry["routes"]) - {flag["route"]}
        assert alternatives, "flagged route needs a comparison value in the table"

    # The flags split cleanly in two: every one of the five as-printed
    # (stated) term families misses its oracle somewhere on the grid, and
    # fixed-order quadrature (derived) saturates only at 25 dB and above.
    # The adaptive route never flags anywhere.
    stated_families = {
        (f["protocol"], f["term"])
        for f in deviations["flagged"]
        if f["route"] == "stated"
    }
    assert stated_families == {
        ("cr-rsma", "interference_limited"),
        ("cr-rsma", "split_band"),
        ("cr-rsma", "clear_channel"),
        ("cr-rsma", "combined_tail"),
        ("cr-sic", "interference_limited"),
    }
    assert all(f["route"] != "integral" for f in deviations["flagged"])
    saturated_configs = {
        f["config"] for f in deviations["flagged"] if f["route"] == "derived"
    }
    assert all(
        float(config.removeprefix("gamma0_").removesuffix("db")) >= 25.0
        for config in saturated_configs
    )


def test_criterion_6_monte_carlo_vs_oracle():
    report(
        validation.criterion_mc_consistency(
            seed=0, samples=10**6, grid=validation.ANALYTIC_GRID_DB
        ),
        budget_s=120.0,
    )


def test_criterion_7_equal_snr_sweep_ordering():
    report(
        validation.criterion_figure2_shape(
            seed=0, samples=10**6, grid=validation.FIGURE2_GRID_DB
        )
    )


def test_criterion_8_strong_primary_asymptote():
    check = validation.criterion_figure3_asymptote()
    report(check)
    # Both cognitive protocols clear the 1.1x bar over the QoS benchmark.
    assert re.search(r"cr-rsma (\d+\.\d+)x", check.detail)
    assert re.search(r"cr-sic (\d+\.\d+)x", check.detail)


def test_criterion_9_parallel_sweep_determinism():
    report(validation.criterion_parallel_determinism(seed=7, samples=10**6))


def test_criterion_9_draws_its_chunks_at_every_thread_count(monkeypatch):
    """Each thread count's sweep opens one stream per chunk: it starts with
    no kept draws, so it never only rescales the draws of the sweep before."""
    opened, per_sweep = [], []
    stream, main = montecarlo.chunk_stream, cli.main
    monkeypatch.setattr(
        montecarlo, "chunk_stream", lambda seed, index: opened.append(index) or stream(seed, index)
    )

    def sweep(argv):
        opened.clear()
        status = main(argv)
        per_sweep.append(sorted(opened))
        return status

    monkeypatch.setattr(cli, "main", sweep)
    report(validation.criterion_parallel_determinism(seed=7, samples=2 * CHUNK_SIZE + 1))
    assert per_sweep == [[0, 1, 2]] * 3
