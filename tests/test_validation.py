"""The release checks' envelope, and the scenario they check.

Each check's body returns what it measured; :func:`crul.validation._check`
times it, builds its :class:`~crul.validation.CheckResult` and applies
the bar it declares.  The checks run the figures' scenario, so the
figure2 preset's grid and the CLI's scenario defaults are pinned to it.
"""

import inspect
import math
import time

import numpy as np
import pytest

from crul import cli, validation
from crul.channel import ScenarioConfig


def probe(measured, holds, pause_s=0.0, report=()):
    @validation._check(99, "probe", tolerance=1.0)
    def body():
        time.sleep(pause_s)
        return (measured, holds, "what was seen", *report)

    return body()


@pytest.mark.parametrize(
    "measured,holds,passed",
    [
        (0.5, True, True),
        (1.0, True, True),  # the bar itself passes
        (1.5, True, False),  # above the bar
        (0.5, False, False),  # another condition fails
        (math.nan, True, False),
        (np.float64(0.5), np.bool_(True), True),
        (np.float64(1.5), np.bool_(True), False),
        (np.float64(0.5), np.bool_(False), False),
    ],
)
def test_a_check_passes_only_within_its_bar_when_its_conditions_hold(measured, holds, passed):
    result = probe(measured, holds)
    assert type(result.passed) is bool
    assert result.passed is passed
    assert (result.id, result.name, result.tolerance) == (99, "probe", 1.0)
    assert result.detail == "what was seen"
    assert result.measured == measured or math.isnan(result.measured)


def test_a_checks_runtime_covers_its_body():
    assert probe(0.5, True, pause_s=0.05).runtime_s >= 0.05


def test_a_report_after_the_measurement_comes_back_beside_the_result():
    report = {"entries": []}
    result, returned = probe(0.5, True, report=(report,))
    assert result.passed is True
    assert returned is report


def test_the_checks_keep_their_signatures():
    parameters = inspect.signature(validation.criterion_figure2_shape).parameters
    assert list(parameters) == ["seed", "samples", "grid"]
    assert parameters["grid"].default == validation.FIGURE2_GRID_DB
    assert validation.criterion_quadrature.__name__ == "criterion_quadrature"


def test_the_figure2_preset_sweeps_the_checked_grid():
    args = cli.build_parser().parse_args(["figure2"])
    assert cli._grid(args.start, args.stop, args.step) == list(validation.FIGURE2_GRID_DB)


def test_the_scenario_flags_default_to_the_checked_scenario():
    defaults = inspect.signature(ScenarioConfig.from_snr_db).parameters
    args = cli.build_parser().parse_args(["figure2"])
    flags = {
        "primary_distance": args.dist_pu,
        "secondary_distance": args.dist_su,
        "path_loss_exponent": args.u,
        "rate_threshold": args.rate_th,
    }
    assert flags == {name: defaults[name].default for name in flags}
    settings = cli.resolve_settings(args)
    for db in validation.FIGURE2_GRID_DB:
        assert cli._scenario(settings, db, db) == validation._scenario(db)
