"""End-to-end checks of the command-line interface.

Everything runs in-process through ``cli.main`` so exit codes and output
bytes are observed exactly as a shell would see them, minus the process
boundary; only inputs that once hung run in a child process.  Sample counts are kept tiny except where a check is about the
sampling itself.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from crul import cli
from crul.crosscheck import ARBITRATION_REL_TOL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HEADER = "protocol,gamma0P_db,gamma0S_db,method,value_bpshz,stderr,n_samples,mean_c"

POINT_FAST = ["point", "--gamma0", "12", "--samples", "2000", "--seed", "3"]
SWEEPS = ("sweep", "figure2", "figure3")


def run_cli(capsys, argv):
    status = cli.main(argv)
    return status, capsys.readouterr().out


def data_rows(text):
    lines = text.strip().split("\n")
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------ point


class TestPoint:
    def test_emits_header_and_all_protocol_rows(self, capsys):
        status, out = run_cli(capsys, POINT_FAST)
        assert status == 0
        rows = data_rows(out)
        # 3 analytic-capable protocols x 3 methods + 2 benchmarks x 2 methods
        assert len(rows) == 13
        assert all(len(row) == 8 for row in rows)

    def test_protocol_and_method_filters(self, capsys):
        status, out = run_cli(
            capsys,
            ["point", "--gamma0", "10", "--samples", "2000",
             "--protocol", "bench-csi", "--method", "mc"],
        )
        assert status == 0
        rows = data_rows(out)
        assert len(rows) == 1
        assert rows[0][0] == "bench-csi" and rows[0][3] == "mc"

    def test_benchmarks_have_no_analytic_rows(self, capsys):
        """Only the benchmarks by the closed forms select no row, which is
        a usage error naming both flags."""
        argv = ["point", "--gamma0", "10", "--samples", "2000",
                "--protocol", "bench-csi,bench-qos", "--method", "analytic"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert _named("--protocol", err) and _named("--method", err)
        assert "selects no rows" in err

    def test_exact_rows_have_zero_samples_and_stderr(self, capsys):
        _, out = run_cli(
            capsys,
            ["point", "--gamma0", "20", "--protocol", "cr-rsma",
             "--method", "analytic,oracle"],
        )
        for row in data_rows(out):
            assert row[5] == "0" and row[6] == "0"

    def test_mean_scale_only_on_pure_sic_rows(self, capsys):
        _, out = run_cli(capsys, POINT_FAST)
        for row in data_rows(out):
            if row[0] == "cr-sic":
                assert row[7] != ""
                assert 0.0 < float(row[7]) <= 1.0
            else:
                assert row[7] == ""

    def test_floats_are_printed_at_nine_significant_digits(self, capsys):
        _, out = run_cli(capsys, POINT_FAST)
        for row in data_rows(out):
            for field in (row[1], row[2], row[4], row[5]):
                assert field == f"{float(field):.9g}"

    def test_split_snr_flags(self, capsys):
        status, out = run_cli(
            capsys,
            ["point", "--gamma0-pu", "30", "--gamma0-su", "10",
             "--samples", "2000", "--protocol", "cr-rsma", "--method", "mc"],
        )
        assert status == 0
        row = data_rows(out)[0]
        assert (row[1], row[2]) == ("30", "10")

    def test_repeated_list_entries_give_one_row(self, capsys):
        argv = ["point", "--gamma0", "10", "--protocol", "cr-rsma,bench-qos,cr-rsma",
                "--method", "oracle, oracle,analytic"]
        status, out = run_cli(capsys, argv)
        assert status == 0
        assert [(row[0], row[3]) for row in data_rows(out)] == [
            ("cr-rsma", "oracle"), ("cr-rsma", "analytic"), ("bench-qos", "oracle"),
        ]

    def test_out_flag_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "point.csv"
        status, out = run_cli(capsys, POINT_FAST + ["--out", str(target)])
        assert status == 0
        assert HEADER not in out
        assert target.read_text(encoding="utf-8").startswith(HEADER)


class TestFormerRuntimeFailures:
    def test_secondary_at_60db_runs(self, capsys):
        # The power-normalized SIC oracle used to miss its inner error
        # budget here ("inner quadrature error 4.244e-06 ...") and exit 1.
        status, out = run_cli(capsys, ["point", "--gamma0", "60", "--samples", "2000"])
        assert status == 0
        assert len(data_rows(out)) == 13

    def test_overflowing_report_only_route_keeps_the_row(self, capsys):
        # The as-printed split-band form overflows at this target ("math
        # range error"); the derived route carries the term instead.
        argv = ["point", "--rate-th", "12", "--gamma0", "0", "--samples", "2000"]
        status, out = run_cli(capsys, argv)
        assert status == 0
        assert all(math.isfinite(float(row[4])) for row in data_rows(out))

    def test_zero_rate_target_has_analytic_rows(self, capsys):
        # The closed forms used to reject theta = 0 ("theta must be a
        # positive finite number") and take the run down with exit 1.
        argv = ["point", "--gamma0", "20", "--rate-th", "0", "--method", "analytic,oracle"]
        status, out = run_cli(capsys, argv)
        assert status == 0
        values = {(row[0], row[3]): float(row[4]) for row in data_rows(out)}
        for protocol in ("cr-rsma", "cr-sic", "cr-sic-norm"):
            analytic, oracle = values[protocol, "analytic"], values[protocol, "oracle"]
            assert abs(analytic - oracle) <= ARBITRATION_REL_TOL * oracle


# ------------------------------------------------------------ usage errors


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["point"],  # no SNR given
            ["point", "--gamma0", "10", "--gamma0-pu", "5"],  # conflicting
            ["point", "--gamma0", "10", "--protocol", "bogus"],
            ["point", "--gamma0", "10", "--protocol", ""],
            ["point", "--gamma0", "10", "--method", "telepathy"],
            ["sweep", "--start", "10", "--stop", "0"],
            ["sweep", "--step", "0"],
            ["sweep", "--step", "-2"],
            ["nosuchcommand"],
            ["point", "--no-such-flag"],
        ],
    )
    def test_usage_problems_exit_2(self, capsys, argv):
        assert cli.main(argv) == 2

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--gamma0", "nan"),
            ("--gamma0", "inf"),
            ("--gamma0", "-300"),
            ("--gamma0-pu", "101"),
            ("--gamma0-su", "-inf"),
            ("--dist-pu", "nan"),
            ("--dist-su", "0"),
            ("--u", "inf"),
            ("--u", "-1"),
            ("--rate-th", "nan"),
            ("--rate-th", "-1"),
            ("--seed", "-1"),
            ("--seed", "18446744073709551616"),
        ],
    )
    def test_bad_flag_value_is_usage_error_naming_the_flag(self, capsys, flag, value):
        # These used to fail deep in the numerics with exit 1 and a
        # message such as "rate must be > 0, got nan".
        others = {"--gamma0-pu": ["--gamma0-su", "10"], "--gamma0-su": ["--gamma0-pu", "10"]}
        snr = others.get(flag, [] if flag == "--gamma0" else ["--gamma0", "10"])
        argv = ["point", *snr, f"{flag}={value}", "--samples", "2000"]
        assert cli.main(argv) == 2
        assert f"{flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--start=-300", "--stop", "0"],
            ["sweep", "--start", "0", "--stop", "inf"],
            ["sweep", "--step", "nan"],
        ],
    )
    def test_bad_sweep_grid_is_usage_error(self, capsys, argv):
        assert cli.main(argv) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["5e-324", "1e-9"])
    def test_too_fine_step_is_usage_error_naming_it(self, capsys, step):
        # 5e-324 overflows the point count to infinity; 1e-9 asks for 4e10 points.
        assert cli.main(["sweep", "--step", step]) == 2
        assert "--step must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            # lambda_su overflowed to inf and the oracle's panel loop never ended.
            (["--dist-su", "1e155", "--method", "oracle"], "--dist-su"),
            # The band integrals of pure SIC turned into NaN (exit 1).
            (["--dist-su", "1e154", "--protocol", "cr-sic"], "--dist-su"),
            # The path loss overflowed a float (exit 1).
            (["--dist-su", "1e-300"], "--dist-su"),
            (["--dist-pu", "10", "--u", "1e300"], "--dist-pu"),
            # The lossless PU link read 10 u log10(1) = inf * 0, "at nan dB".
            (["--u", "1e308"], "--dist-su"),
        ],
    )
    def test_extreme_link_snr_is_usage_error_naming_the_flag(self, argv, flag):
        # In a child process, so that a hang fails the test instead of the run.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        command = [sys.executable, "-m", "crul", "point", "--gamma0", "0", *argv]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert flag in done.stderr and "--u" in done.stderr
        assert "nan" not in done.stderr

    def test_strong_near_link_inside_the_bound_runs(self, capsys):
        # 140 dB at the receiver: 20 dB of reference SNR and 120 dB of path gain.
        argv = ["point", "--gamma0", "20", "--dist-su", "1e-6", "--samples", "2000"]
        status, out = run_cli(capsys, argv)
        assert status == 0
        assert all(math.isfinite(float(row[4])) for row in data_rows(out))

    def test_a_lossless_link_takes_any_path_loss_exponent(self, capsys):
        # 10 u log10(1) was inf * 0 = nan past u ~ 1.8e307, so this exited 2
        # with the PU link's mean SNR "at nan dB"; both links are at 20 dB.
        argv = ["point", "--gamma0", "20", "--dist-su", "1", "--samples", "2000"]
        status, out = run_cli(capsys, [*argv, "--u", "1e308"])
        assert status == 0
        assert (status, out) == run_cli(capsys, argv)

    @pytest.mark.parametrize("value", ["many", "-1"])
    def test_bad_thread_count_is_usage_error_naming_it(self, capsys, monkeypatch, value):
        monkeypatch.setenv("CRUL_THREADS", value)
        assert cli.main(["point", "--gamma0", "10", "--samples", "2000"]) == 2
        assert "CRUL_THREADS" in capsys.readouterr().err

    # The bounds are checked on resolved settings alone: past them a run
    # would start thousands of threads or list 1e10 chunk sizes.
    @pytest.mark.parametrize("samples", ["0", "1", "10000000001", str(10**15)])
    def test_sample_count_out_of_range_is_usage_error_naming_it(self, samples):
        args = cli.build_parser().parse_args(["point", "--gamma0", "10", "--samples", samples])
        with pytest.raises(cli.UsageError, match="--samples must be"):
            cli.resolve_settings(args)

    def test_largest_sample_count_is_accepted(self):
        argv = ["point", "--gamma0", "10", "--samples", "10000000000"]
        assert cli.resolve_settings(cli.build_parser().parse_args(argv)).samples == 10**10

    @pytest.mark.parametrize("rate", ["1024", "1e300"])
    def test_rate_target_past_the_bound_is_usage_error_naming_it(self, rate):
        # 2**R - 1 overflowed a float mid-run (exit 1, "Numerical result out of range").
        args = cli.build_parser().parse_args(["point", "--gamma0", "20", "--rate-th", rate])
        with pytest.raises(cli.UsageError, match="--rate-th must be"):
            cli.resolve_settings(args)

    @pytest.mark.parametrize("pu,su", [(-100, -100), (-100, 100), (100, -100), (100, 100)])
    def test_largest_rate_target_runs_every_method_at_the_corners(self, capsys, pu, su):
        argv = [
            "point", f"--gamma0-pu={pu}", f"--gamma0-su={su}",
            "--rate-th", repr(cli.MAX_RATE_TH), "--protocol", "all",
            "--method", "mc,analytic,oracle", "--samples", "1000",
        ]
        status, out = run_cli(capsys, argv)
        assert status == 0
        assert all(math.isfinite(float(row[4])) for row in data_rows(out))

    def test_too_many_threads_is_usage_error_naming_it(self, monkeypatch):
        monkeypatch.setenv("CRUL_THREADS", "5000")
        argv = ["point", "--gamma0", "10", "--samples", "1000000000"]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(cli.UsageError, match="CRUL_THREADS"):
            cli.resolve_settings(args)

    def test_bad_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("gamma0 = nan\n", encoding="utf-8")
        assert cli.main(["point", "--config", str(cfg)]) == 2
        assert "--gamma0 must be" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        # A bad flag value, not an I/O failure: the run never started.
        missing = tmp_path / "nope.cfg"
        assert cli.main(["point", "--config", str(missing)]) == 2

    @pytest.mark.parametrize(
        "command,where",
        [(command, where) for command in ("point", *SWEEPS, "validate")
         for where in ("missing directory", "directory")]
        + [(command, "plot directory") for command in SWEEPS],
    )
    def test_unwritable_output_is_usage_error_before_any_work(
        self, capsys, tmp_path, monkeypatch, command, where
    ):
        from crul import validation

        def no_work(*args, **kwargs):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr(cli, "make_rows", no_work)
        monkeypatch.setattr(validation, "run_all", no_work)
        out = {
            "missing directory": tmp_path / "no" / "such" / "x.csv",
            "directory": tmp_path,
            "plot directory": tmp_path / "x.csv",
        }[where]
        argv = [command, "--out", str(out)]
        if command == "point":
            argv += ["--gamma0", "5"]
        if where == "plot directory":
            (tmp_path / "x.gp").mkdir()
            argv.append("--emit-plot")
        assert cli.main(argv) == 2
        assert _named("--out", capsys.readouterr().err)
        assert not out.is_file()

    def test_failed_write_is_io_failure(self, capsys, tmp_path, monkeypatch):
        def refuse(rows, out_path):
            raise PermissionError(f"cannot write {out_path}")

        monkeypatch.setattr(cli, "write_csv", refuse)
        argv = POINT_FAST + ["--protocol", "cr-rsma", "--method", "mc",
                             "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("samples = 10\nwarp_factor = 9\n", encoding="utf-8")
        assert cli.main(["point", "--gamma0", "5", "--config", str(cfg)]) == 2

    def test_config_key_error_names_the_file_line_and_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("# validate reads no SNR\n\nseed = 3\ngamma0 = 5\n", encoding="utf-8")
        assert cli.main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:4: key 'gamma0': crul validate has no flag --gamma0" in err
        assert "usage: crul [-h]" not in err

    def test_config_key_written_as_a_flag_is_named_once(self, capsys, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("--gamma0=5\n", encoding="utf-8")
        assert cli.main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:1: key '--gamma0': crul validate has no flag --gamma0" in err
        assert "---" not in err

    def test_a_selection_with_no_rows_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        argv = ["sweep", "--protocol", "bench-csi,bench-qos", "--method", "analytic",
                "--emit-plot", "--out", str(target)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert _named("--protocol", err) and _named("--method", err)
        assert not target.exists()
        assert not target.with_suffix(".gp").exists()


def _any_float(low: float, high: float):
    """Floats in ``[low, high]``, and any float: NaN, infinities and huge ones."""
    return st.one_of(st.floats(low, high), st.floats())


#: ``point``'s numeric flags of README's flag table, each in range and out
#: of it.  ``--samples`` is always set, to at most 3000 draws.
POINT_SNR_FLAGS = ("--gamma0", "--gamma0-pu", "--gamma0-su")
POINT_VALUES = {
    "--samples": st.integers(max_value=3000),
    **{flag: _any_float(-100.0, 100.0) for flag in POINT_SNR_FLAGS},
    "--dist-pu": _any_float(1e-3, 1e3),
    "--dist-su": _any_float(1e-3, 1e3),
    "--u": _any_float(0.0, 8.0),
    "--rate-th": _any_float(0.0, 8.0),
    "--seed": st.one_of(st.integers(0, 2**64 - 1), st.integers()),
}
#: Values for ``--samples``, one SNR flag or more, and any of the others.
POINT_NUMBERS = st.builds(
    lambda snr, value, others: {snr: value, **others},
    st.sampled_from(POINT_SNR_FLAGS),
    _any_float(-100.0, 100.0),
    st.fixed_dictionaries(
        {"--samples": POINT_VALUES["--samples"]},
        optional={flag: value for flag, value in POINT_VALUES.items() if flag != "--samples"},
    ),
)


class TestEveryNumericInput:
    """Every numeric input of ``point`` works or is a usage error naming a
    flag it was given, on the command line or in a config file.  Monte
    Carlo only, since an exact route at a -100 dB secondary takes seconds;
    the numbers themselves are other tests' business."""

    @settings(max_examples=200)
    @given(numbers=POINT_NUMBERS, in_config=st.sets(st.sampled_from(list(POINT_VALUES))))
    @example(numbers={"--gamma0": 20.0, "--u": 1e308, "--dist-su": 1.0, "--samples": 3000},
             in_config=set())
    @example(numbers={"--gamma0": 20.0, "--nodes": 100, "--samples": 3000}, in_config=set())
    @example(numbers={"--gamma0": 20.0, "--nodes": 100, "--samples": 3000},
             in_config={"--nodes"})
    def test_exits_0_or_2_naming_a_flag_it_was_given(self, tmp_path_factory, numbers, in_config):
        cfg = tmp_path_factory.getbasetemp() / "numeric_inputs.cfg"
        cfg.write_text("".join(
            f"{flag[2:].replace('-', '_')} = {value!r}\n"
            for flag, value in numbers.items() if flag in in_config
        ), encoding="utf-8")
        argv = ["point", "--method", "mc", "--config", str(cfg)]
        argv += [f"{flag}={value!r}" for flag, value in numbers.items() if flag not in in_config]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        err = err.getvalue()
        assert status in (0, 2), err
        if status == 0:
            assert len(out.getvalue().splitlines()) == 1 + len(cli.ALL_PROTOCOLS)
        else:
            assert any(_named(flag, err) for flag in numbers), err
            # A NaN given is echoed back; none may come out of the checks.
            assert "nan" not in err.replace("got nan", ""), err


def _sweep_grid(start: float, step: float, count: int) -> dict:
    return {"--start": start, "--stop": start + count * step, "--step": step}


#: ``sweep``'s grid flags, each in range and out of it.  In range, a grid
#: has at most five points (a stop below the start or past the SNR range
#: is a usage error); a step too fine for any grid but one point comes with
#: a grid of at least 0.1 dB, which the point cap rejects.
SWEEP_GRIDS = st.one_of(
    st.builds(_sweep_grid, st.floats(-100.0, 100.0), st.floats(1e-9, 200.0), st.integers(-2, 4)),
    st.builds(_sweep_grid, st.floats(-100.0, 100.0), st.floats(0.0, 1e-9, exclude_min=True),
              st.just(0)),
    st.builds(
        lambda start, width, step: {"--start": start, "--stop": start + width, "--step": step},
        st.floats(-100.0, 100.0), st.floats(0.1, 200.0), st.floats(0.0, 1e-6, exclude_min=True),
    ),
)
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_PAST_SNR_RANGE = st.one_of(
    _NOT_FINITE, st.floats(min_value=100.0, exclude_min=True),
    st.floats(max_value=-100.0, exclude_max=True),
)
#: Values that replace a grid's own: ends past the SNR range, and steps
#: that are not positive and finite, or so huge that the grid has one point.
SWEEP_REPLACEMENTS = {
    "--start": _PAST_SNR_RANGE,
    "--stop": _PAST_SNR_RANGE,
    "--step": st.one_of(_NOT_FINITE, st.floats(max_value=0.0), st.floats(min_value=1e3)),
}
#: A grid as built, half the time, or with some of its values replaced.
SWEEP_NUMBERS = st.builds(
    lambda grid, replaced: {**grid, **replaced},
    SWEEP_GRIDS,
    st.one_of(st.just({}), st.fixed_dictionaries({}, optional=SWEEP_REPLACEMENTS)),
)


class TestEverySweepInput:
    """Every grid flag of ``sweep`` works or is a usage error naming a flag
    it was given, on the command line or in a config file, and a usage
    error writes no CSV.  Monte Carlo at 3000 draws on grids of at most five
    points, so each call is quick."""

    @settings(max_examples=200)
    @given(numbers=SWEEP_NUMBERS, in_config=st.sets(st.sampled_from(list(SWEEP_REPLACEMENTS))),
           sweep_var=st.sampled_from(["both", "pu"]))
    @example(numbers={"--start": 0.0, "--stop": 40.0, "--step": 5e-324}, in_config=set(),
             sweep_var="both")
    @example(numbers={"--start": -100.0, "--stop": 100.0, "--step": 0.00999},
             in_config={"--step"}, sweep_var="pu")
    @example(numbers={"--start": 0.0, "--stop": 0.0, "--step": math.nan},
             in_config={"--step"}, sweep_var="both")
    def test_exits_0_or_2_naming_a_flag_it_was_given(
        self, tmp_path_factory, numbers, in_config, sweep_var
    ):
        cfg = tmp_path_factory.getbasetemp() / "sweep_inputs.cfg"
        cfg.write_text("".join(
            f"{flag[2:]} = {value!r}\n" for flag, value in numbers.items() if flag in in_config
        ), encoding="utf-8")
        target = tmp_path_factory.getbasetemp() / "sweep_inputs.csv"
        target.unlink(missing_ok=True)
        argv = ["sweep", "--method", "mc", "--samples", "3000", "--sweep-var", sweep_var,
                "--config", str(cfg), "--out", str(target)]
        argv += [f"{flag}={value!r}" for flag, value in numbers.items() if flag not in in_config]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        err = err.getvalue()
        assert status in (0, 2), err
        if status == 0:
            rows = data_rows(target.read_text(encoding="utf-8"))
            points, rest = divmod(len(rows), len(cli.ALL_PROTOCOLS))
            assert 1 <= points <= 5 and rest == 0, numbers
        else:
            assert any(_named(flag, err) for flag in numbers), err
            # A NaN given is echoed back; none may come out of the checks.
            assert "nan" not in err.replace("got nan", ""), err
            assert not target.exists()


#: Flags each subcommand does not take: no run of it would read them.
NOT_TAKEN = {
    "point": ["--emit-plot", "--nodes"],
    "sweep": ["--gamma0", "--gamma0-pu", "--nodes"],
    "figure2": ["--gamma0", "--gamma0-pu", "--gamma0-su", "--nodes"],
    "figure3": ["--gamma0", "--gamma0-pu", "--nodes"],
    "validate": [
        "--gamma0", "--gamma0-pu", "--gamma0-su", "--dist-pu", "--dist-su", "--u",
        "--rate-th", "--protocol", "--method", "--nodes", "--emit-plot",
    ],
}

NOT_TAKEN_PAIRS = [(command, flag) for command, flags in NOT_TAKEN.items() for flag in flags]


def _named(flag: str, err: str) -> bool:
    """Whether ``err`` names ``flag`` as a whole word, not as part of a longer flag."""
    return re.search(r"(?<![\w-])" + re.escape(flag) + r"(?![\w-])", err) is not None


class TestInputsASubcommandDoesNotRead:
    @pytest.mark.parametrize("command,flag", NOT_TAKEN_PAIRS)
    def test_flag_is_usage_error_naming_it(self, capsys, tmp_path, command, flag):
        value = [] if flag == "--emit-plot" else ["5"]
        argv = [command, flag, *value, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert _named(flag, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag", NOT_TAKEN_PAIRS)
    def test_config_key_is_usage_error_naming_it(self, capsys, tmp_path, command, flag):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')} = 5\n", encoding="utf-8")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert _named(flag, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["quick", "emit_plot", "config"])
    def test_config_key_without_a_value_flag_is_usage_error(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert f"--{key.replace('_', '-')}" in capsys.readouterr().err

    def test_secondary_snr_of_a_both_links_sweep_is_usage_error(self, capsys, tmp_path):
        argv = ["sweep", "--sweep-var", "both", "--gamma0-su", "15",
                "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 2
        assert "--gamma0-su" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_plot_script_over_the_csv_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "run.gp"
        argv = ["figure2", "--method", "oracle", "--protocol", "cr-rsma",
                "--emit-plot", "--out", str(target)]
        assert cli.main(argv) == 2
        assert "--out" in capsys.readouterr().err
        assert not target.exists()


# ----------------------------------------------------------------- config


class TestConfigFile:
    def test_values_comments_and_hyphens(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# equal-SNR smoke case\n"
            "\n"
            "gamma0 = 17\n"
            "rate-th = 1.0\n"
            "protocol = cr-rsma\n"
            "method = mc\n"
            "samples = 2000\n",
            encoding="utf-8",
        )
        status, out = run_cli(capsys, ["point", "--config", str(cfg)])
        assert status == 0
        rows = data_rows(out)
        assert len(rows) == 1
        assert rows[0][1] == "17"

    def test_hash_starts_a_comment_only_after_whitespace(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "a#b.csv"
        cfg.write_text(f"out = {out}\nmethod = mc # a note\n\t# indented note\n"
                       "protocol = cr-rsma\nsamples = 2000\n", encoding="utf-8")
        assert cli.load_config(str(cfg))[:2] == [
            (1, "out", f"--out={out}"), (2, "method", "--method=mc")
        ]
        status, _ = run_cli(capsys, ["point", "--config", str(cfg), "--gamma0", "17"])
        assert status == 0
        assert [path.name for path in tmp_path.iterdir() if path != cfg] == ["a#b.csv"]

    def test_key_written_as_a_flag_is_that_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("--samples=2000\nprotocol = cr-rsma\nmethod = mc\n", encoding="utf-8")
        status, out = run_cli(capsys, ["point", "--config", str(cfg), "--gamma0", "17"])
        assert status == 0
        assert data_rows(out)[0][6] == "2000"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma0 = 17\nprotocol = cr-rsma\nmethod = mc\nsamples = 2000\n",
                       encoding="utf-8")
        _, out = run_cli(capsys, ["point", "--config", str(cfg), "--gamma0", "19"])
        assert data_rows(out)[0][1] == "19"

    @pytest.mark.parametrize("command", ["sweep", "figure3"])
    def test_config_is_read_once_per_run(self, capsys, tmp_path, monkeypatch, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol = cr-rsma\nmethod = mc\nsamples = 200\n", encoding="utf-8")
        reads = []
        load = cli.load_config
        monkeypatch.setattr(cli, "load_config", lambda path: reads.append(path) or load(path))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
        assert reads == [str(cfg)]


# ------------------------------------------------------------------ sweep


SWEEP_FAST = [
    "sweep", "--start", "0", "--stop", "10", "--step", "5",
    "--method", "mc", "--samples", "2000", "--seed", "5",
]


class TestSweep:
    def test_writes_csv_with_grid_rows(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        status, out = run_cli(capsys, SWEEP_FAST + ["--out", str(target)])
        assert status == 0
        assert str(target) in out
        rows = data_rows(target.read_text(encoding="utf-8"))
        assert len(rows) == 3 * 5  # three grid points, five protocols, mc only
        assert [row[1] for row in rows[::5]] == ["0", "5", "10"]

    def test_output_is_lf_utf8(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        run_cli(capsys, SWEEP_FAST + ["--out", str(target)])
        raw = target.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")  # must not raise

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli(capsys, SWEEP_FAST + ["--out", str(first)])
        run_cli(capsys, SWEEP_FAST + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_thread_env_does_not_change_bytes(self, capsys, tmp_path, monkeypatch):
        # Enough samples for several chunks so the workers have real work to race.
        argv = [
            "sweep", "--start", "0", "--stop", "5", "--step", "5",
            "--method", "mc", "--samples", "300000", "--seed", "11",
            "--protocol", "cr-rsma,cr-sic",
        ]
        outputs = []
        for threads in ("1", "4"):
            target = tmp_path / f"t{threads}.csv"
            monkeypatch.setenv("CRUL_THREADS", threads)
            assert cli.main(argv + ["--out", str(target)]) == 0
            outputs.append(target.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_primary_only_sweep_pins_secondary(self, capsys, tmp_path):
        target = tmp_path / "pu.csv"
        argv = SWEEP_FAST + ["--sweep-var", "pu", "--gamma0-su", "15",
                             "--out", str(target)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        rows = data_rows(target.read_text(encoding="utf-8"))
        assert {row[2] for row in rows} == {"15"}
        assert {row[1] for row in rows} == {"0", "5", "10"}


# ---------------------------------------------------------------- figures


class TestFigurePresets:
    def test_figure2_covers_equal_snr_grid(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        argv = ["figure2", "--method", "mc", "--samples", "2000",
                "--out", str(target)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        rows = data_rows(target.read_text(encoding="utf-8"))
        assert len(rows) == 21 * 5
        assert all(row[1] == row[2] for row in rows)
        assert rows[0][1] == "0" and rows[-1][1] == "40"

    def test_figure3_pins_secondary_at_20db(self, capsys, tmp_path):
        target = tmp_path / "fig3.csv"
        argv = ["figure3", "--method", "mc", "--samples", "2000",
                "--out", str(target)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        rows = data_rows(target.read_text(encoding="utf-8"))
        assert len(rows) == 31 * 5
        assert {row[2] for row in rows} == {"20"}
        assert rows[-1][1] == "60"

    def test_emitted_plot_script_round_trips_every_series(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        argv = ["figure2", "--method", "mc,oracle", "--samples", "2000",
                "--protocol", "cr-rsma,bench-qos", "--out", str(target),
                "--emit-plot"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        rows = data_rows(target.read_text(encoding="utf-8"))
        csv_series = {(row[0], row[3]) for row in rows}
        script = target.with_suffix(".gp").read_text(encoding="utf-8")
        plotted = set(
            re.findall(r'strcol\(1\) eq "([^"]+)" && strcol\(4\) eq "([^"]+)"', script)
        )
        assert plotted == csv_series
        assert target.name in script


    @pytest.mark.parametrize("figure", ["figure2", "figure3"])
    def test_script_writes_csv_and_plot(self, tmp_path, figure):
        """A fresh ``python -m crul figureN --emit-plot`` writes the CSV and
        its gnuplot script."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        target = tmp_path / f"{figure}.csv"
        command = [sys.executable, "-m", "crul", figure, "--emit-plot", "--method", "oracle",
                   "--protocol", "cr-rsma", "--out", str(target)]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        points = 21 if figure == "figure2" else 31
        assert len(data_rows(target.read_text(encoding="utf-8"))) == points
        assert target.name in target.with_suffix(".gp").read_text(encoding="utf-8")


# --------------------------------------------------------------- validate


class TestValidate:
    def test_quick_battery_passes_and_writes_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        status, out = run_cli(capsys, ["validate", "--quick",
                                       "--out", str(report_path)])
        assert status == 0
        lines = [line for line in out.splitlines() if line.startswith("criterion_")]
        assert len(lines) == 9
        pattern = re.compile(
            r"^criterion_(\d) PASS measured=\S+ tolerance=\S+ runtime=(\d+\.\d\d)ms # .+$"
        )
        matches = [pattern.match(line) for line in lines]
        assert [int(match.group(1)) for match in matches] == list(range(1, 10))
        assert all(float(match.group(2)) > 0.0 for match in matches)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert {"arbitration_rel_tol", "report_rel_tol", "entries", "flagged"} <= set(report)
        assert report["entries"], "deviation report should tabulate terms"
        # Each check's detail follows its name; criterion 5 counts the
        # printed forms' flags apart from the other routes'.
        stated = sum(flag["route"] == "stated" for flag in report["flagged"])
        others = len(report["flagged"]) - stated
        assert stated and others
        assert "# closed forms vs integration oracle: worst total deviation " in lines[4]
        assert lines[4].endswith(
            f"; {stated} as-printed and {others} other route(s) past 1% tabulated"
        )

    def test_quick_battery_runs_at_the_largest_seed(self, capsys, tmp_path):
        # Criterion 9 offsets the seed; at 2**64 - 1 the offset used to
        # leave the seed range and end the run with a traceback.
        argv = ["validate", "--quick", "--seed", str(2**64 - 1),
                "--out", str(tmp_path / "report.json")]
        status, out = run_cli(capsys, argv)
        assert status == 0
        assert "criterion_9 PASS" in out

    @pytest.mark.parametrize("samples", ["2", "3"])
    def test_tiny_budget_reports_every_criterion(self, capsys, tmp_path, samples):
        # Criterion 6 used to divide by a zero standard error (exit 1); two
        # draws are the fewest a run takes.
        argv = ["validate", "--quick", "--samples", samples,
                "--out", str(tmp_path / "report.json")]
        status, out = run_cli(capsys, argv)
        assert status in (0, 3)
        lines = [line for line in out.splitlines() if line.startswith("criterion_")]
        assert [line.split()[0] for line in lines] == [f"criterion_{i}" for i in range(1, 10)]


# ------------------------------------------------------------------ docs


def test_readme_flag_table_matches_the_parser():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    header = next(line for line in lines if line.startswith("| flag |"))
    commands = [cell.strip() for cell in header.strip("|").split("|")][1:-1]
    documented = {}
    for line in lines:
        if re.match(r"\| `--[\w-]+` \|", line):
            flag, *marks = [cell.strip() for cell in line.strip("|").split("|")][:-1]
            documented[flag.strip("`")] = {name for name, mark in zip(commands, marks) if mark}
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    taken = {}
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag != "--help":
                    taken.setdefault(flag, set()).add(name)
    assert documented == taken
