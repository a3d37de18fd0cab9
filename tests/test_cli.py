"""End-to-end checks of the command-line interface.

Everything runs in-process through ``cli.main`` so exit codes and output
bytes are observed exactly as a shell would see them, minus the process
boundary; only inputs that once hung run in a child process.  Sample counts are kept tiny except where a check is about the
sampling itself.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crul import cli
from crul.crosscheck import ARBITRATION_REL_TOL

SRC = Path(__file__).resolve().parent.parent / "src"
HEADER = "protocol,gamma0P_db,gamma0S_db,method,value_bpshz,stderr,n_samples,mean_c"

POINT_FAST = ["point", "--gamma0", "12", "--samples", "2000", "--seed", "3"]


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
        status, out = run_cli(
            capsys,
            ["point", "--gamma0", "10", "--samples", "2000",
             "--protocol", "bench-csi,bench-qos", "--method", "analytic"],
        )
        assert status == 0
        assert data_rows(out) == []

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
            ("--nodes", "0"),
            ("--nodes", "257"),
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
        ],
    )
    def test_extreme_link_snr_is_usage_error_naming_the_flag(self, argv, flag):
        # In a child process, so that a hang fails the test instead of the run.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        command = [sys.executable, "-m", "crul", "point", "--gamma0", "0", *argv]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert flag in done.stderr and "--u" in done.stderr

    def test_strong_near_link_inside_the_bound_runs(self, capsys):
        # 140 dB at the receiver: 20 dB of reference SNR and 120 dB of path gain.
        argv = ["point", "--gamma0", "20", "--dist-su", "1e-6", "--samples", "2000"]
        status, out = run_cli(capsys, argv)
        assert status == 0
        assert all(math.isfinite(float(row[4])) for row in data_rows(out))

    @pytest.mark.parametrize("value", ["many", "-1"])
    def test_bad_thread_count_is_usage_error_naming_it(self, capsys, monkeypatch, value):
        monkeypatch.setenv("CRUL_THREADS", value)
        assert cli.main(["point", "--gamma0", "10", "--samples", "2000"]) == 2
        assert "CRUL_THREADS" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("gamma0 = nan\n", encoding="utf-8")
        assert cli.main(["point", "--config", str(cfg)]) == 2
        assert "--gamma0 must be" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        # A bad flag value, not an I/O failure: the run never started.
        missing = tmp_path / "nope.cfg"
        assert cli.main(["point", "--config", str(missing)]) == 2

    def test_unwritable_output_is_io_failure(self, capsys, tmp_path):
        argv = ["point", "--gamma0", "5", "--samples", "2000",
                "--protocol", "cr-rsma", "--method", "mc",
                "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")]
        assert cli.main(argv) == 1

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("samples = 10\nwarp_factor = 9\n", encoding="utf-8")
        assert cli.main(["point", "--gamma0", "5", "--config", str(cfg)]) == 2


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
        # Enough samples for several chunks so the pool has real work to race.
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
            r"^criterion_(\d) PASS measured=\S+ tolerance=\S+ runtime=\d+\.\ds # .+$"
        )
        assert [int(pattern.match(line).group(1)) for line in lines] == list(range(1, 10))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert {"arbitration_rel_tol", "report_rel_tol", "entries", "flagged"} <= set(report)
        assert report["entries"], "deviation report should tabulate terms"

    def test_quick_battery_runs_at_the_largest_seed(self, capsys, tmp_path):
        # Criterion 9 offsets the seed; at 2**64 - 1 the offset used to
        # leave the seed range and end the run with a traceback.
        argv = ["validate", "--quick", "--seed", str(2**64 - 1),
                "--out", str(tmp_path / "report.json")]
        status, out = run_cli(capsys, argv)
        assert status == 0
        assert "criterion_9 PASS" in out
