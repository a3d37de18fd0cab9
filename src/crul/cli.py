"""Command-line front end: point evaluations, SNR sweeps, validation.

Subcommands
-----------
point     one configuration, CSV rows to stdout (or ``--out``)
sweep     generic SNR sweep to a CSV file
figure2   preset: both links swept together over 0..40 dB
figure3   preset: primary link swept over 0..60 dB, secondary at 20 dB
validate  run the acceptance checks and write the deviation report

All numeric output uses one fixed CSV schema; identical invocations give
byte-identical files regardless of the worker-thread count (see the
substream contract in ``montecarlo``).  ``CRUL_THREADS`` caps the worker
count at up to ``montecarlo.MAX_THREADS``, ``0`` meaning auto; it is the
one thread control.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .analytic import DEFAULT_NODES
from .channel import ScenarioConfig
from .crosscheck import ANALYTIC_PROTOCOLS, evaluate
from .montecarlo import MAX_SAMPLES, McConfig, resolve_workers, sample_point
from .montecarlo import mean_power_factor  # noqa: F401 - perfbench/spans.py patches this name
from .oracle import OracleAccuracyError, mean_power_factor_oracle
from .protocols import ProtocolKind
from .specfun import ConvergenceError

CSV_HEADER = "protocol,gamma0P_db,gamma0S_db,method,value_bpshz,stderr,n_samples,mean_c"
ALL_PROTOCOLS = tuple(ProtocolKind)
#: Estimation routes, in the order the CLI runs them by default.
METHODS = ("mc", "analytic", "oracle")

#: Mean SNRs accepted by --gamma0, --gamma0-pu and --gamma0-su (dB).  The
#: three routes agree across the whole range, asymmetric corners included.
SNR_DB_RANGE = (-100.0, 100.0)
#: Most points a sweep grid may have: 0.01 dB steps over the whole range.
MAX_GRID_POINTS = 20_001
#: Mean received SNR of either link, its reference SNR plus path loss
#: (dB).  Its rate parameter and the inverse stay within 1e-100..1e100,
#: normal floats with room for the products of the closed forms.
LINK_SNR_DB_RANGE = (-1000.0, 1000.0)
#: Largest --rate-th (bit/s/Hz): its SINR threshold 2**R - 1 stays within
#: 1e100, the range the rate parameters keep.
MAX_RATE_TH = 332.0

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    """Bad arguments or config values; maps to exit status 2."""


def _fmt(value: float) -> str:
    return f"{value:.9g}"


# ------------------------------------------------------------ settings


@dataclass(frozen=True)
class Settings:
    """Fully resolved run parameters (flags > config file > defaults)."""

    gamma0_pu: float | None
    gamma0_su: float | None
    dist_pu: float
    dist_su: float
    u: float
    rate_th: float
    protocols: tuple[ProtocolKind, ...]
    methods: tuple[str, ...]
    samples: int
    seed: int
    #: Not a field, and no flag sets it: only perfbench/worker.py reads it,
    #: to build the closed forms' one rule at set-up.
    nodes = DEFAULT_NODES


def load_config(path: str) -> list[tuple[int, str, str]]:
    """Read a ``key = value`` file as ``(line number, key, --key=value)`` flags.

    A ``#`` at a line's start or after whitespace starts a comment (a value
    keeps any other), blank lines are allowed, underscores in a key read
    as hyphens, and a key may be written with its flag's leading dashes.
    The subcommand's parser applies the types, and ``main`` rejects keys
    it does not take.
    """
    flags = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.lstrip("-").replace("_", "-")
        if flag == "--config":
            raise UsageError(f"{path}:{lineno}: --config cannot be set in a config file")
        flags.append((lineno, key, f"{flag}={value}"))
    return flags


def _parse_protocols(spec: str) -> tuple[ProtocolKind, ...]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if spec.strip().lower() == "all":
        return ALL_PROTOCOLS
    if not names:
        raise UsageError("protocol list is empty")
    try:
        return tuple(dict.fromkeys(ProtocolKind.from_name(name) for name in names))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_methods(spec: str) -> tuple[str, ...]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise UsageError("method list is empty")
    for name in names:
        if name not in METHODS:
            raise UsageError(f"unknown method {name!r}; choose from {METHODS}")
    return tuple(dict.fromkeys(names))


def _require(flag: str, value, valid: bool, requirement: str) -> None:
    if not valid:
        raise UsageError(f"--{flag} must be {requirement}, got {value}")


def _budget(args: argparse.Namespace) -> tuple[int, int]:
    """Checked ``(samples, seed)`` and ``CRUL_THREADS``, what every subcommand reads."""
    samples = args.samples
    if samples is None:
        samples = 10**5 if args.quick else 10**6
    _require("samples", samples, 2 <= samples <= MAX_SAMPLES, f"in [2, {MAX_SAMPLES}]")
    _require("seed", args.seed, 0 <= args.seed < 1 << 64, "in [0, 2**64)")
    try:
        resolve_workers(1)  # a bad CRUL_THREADS is a usage error, not a failure mid-run
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return samples, args.seed


def resolve_settings(args: argparse.Namespace) -> Settings:
    """Check the parsed flags of a ``point``, ``sweep`` or figure run."""
    # Only ``point`` takes all three SNR flags; ``figure2`` takes none.
    gamma0 = getattr(args, "gamma0", None)
    gamma0_pu = getattr(args, "gamma0_pu", None)
    gamma0_su = getattr(args, "gamma0_su", None)
    # Comparisons are false for NaN, so each check also rejects it.
    low, high = SNR_DB_RANGE
    for flag, value in (("gamma0", gamma0), ("gamma0-pu", gamma0_pu), ("gamma0-su", gamma0_su)):
        if value is not None:
            _require(flag, value, low <= value <= high, f"a mean SNR in [{low:g}, {high:g}] dB")
    for flag, value in (("dist-pu", args.dist_pu), ("dist-su", args.dist_su)):
        _require(flag, value, 0.0 < value < math.inf, "finite and > 0")
    _require("u", args.u, 0.0 <= args.u < math.inf, "finite and >= 0")
    _require(
        "rate-th", args.rate_th, 0.0 <= args.rate_th <= MAX_RATE_TH,
        f"in [0, {MAX_RATE_TH:g}] bit/s/Hz",
    )
    if gamma0 is not None:
        if gamma0_pu is not None or gamma0_su is not None:
            raise UsageError("--gamma0 conflicts with --gamma0-pu/--gamma0-su")
        gamma0_pu = gamma0_su = gamma0
    samples, seed = _budget(args)

    settings = Settings(
        gamma0_pu=gamma0_pu,
        gamma0_su=gamma0_su,
        dist_pu=args.dist_pu,
        dist_su=args.dist_su,
        u=args.u,
        rate_th=args.rate_th,
        protocols=_parse_protocols(args.protocol),
        methods=_parse_methods(args.method),
        samples=samples,
        seed=seed,
    )
    if not _row_pairs(settings):
        raise UsageError(
            f"--protocol {args.protocol} with --method {args.method} selects no rows: "
            "the benchmarks have no analytic rows"
        )
    return settings


def _scenario(settings: Settings, gamma0_pu: float, gamma0_su: float) -> ScenarioConfig:
    low, high = LINK_SNR_DB_RANGE
    links = (("pu", gamma0_pu, settings.dist_pu), ("su", gamma0_su, settings.dist_su))
    for link, snr_db, distance in links:
        # In logs, so a path loss that overflows a float is still caught; the
        # log goes first, so a lossless link (distance 1) is 0 dB at any --u.
        link_db = snr_db - 10.0 * math.log10(distance) * settings.u
        if not low <= link_db <= high:
            raise UsageError(
                f"--dist-{link} {distance:g} with --u {settings.u:g} puts the {link.upper()} "
                f"link's mean SNR at {link_db:.4g} dB; it must be in [{low:g}, {high:g}] dB"
            )
    return ScenarioConfig.from_snr_db(
        gamma0_pu,
        gamma0_su,
        primary_distance=settings.dist_pu,
        secondary_distance=settings.dist_su,
        path_loss_exponent=settings.u,
        rate_threshold=settings.rate_th,
    )


def _output(path: str) -> str:
    """``path``, checked before any point is computed: a file in an existing directory."""
    target = Path(path)
    if target.is_dir():
        raise UsageError(f"--out {path} is a directory")
    if not target.parent.is_dir():
        raise UsageError(f"--out {path}: no directory {target.parent}")
    return path


def _grid(start: float, stop: float, step: float) -> list[float]:
    low, high = SNR_DB_RANGE
    for flag, value in (("start", start), ("stop", stop)):
        _require(flag, value, low <= value <= high, f"a mean SNR in [{low:g}, {high:g}] dB")
    _require("step", step, 0.0 < step < math.inf, "finite and > 0")
    if stop < start:
        raise UsageError(f"--stop must be >= --start, got {start}..{stop}")
    steps = (stop - start) / step
    _require(
        "step", step, steps < MAX_GRID_POINTS - 0.5,
        f"coarse enough for at most {MAX_GRID_POINTS} points over {start:g}..{stop:g} dB",
    )
    count = int(round(steps))
    points = [start + i * step for i in range(count + 1)]
    if points[-1] > stop + 1e-9:
        points.pop()
    return points


# ------------------------------------------------------------ CSV emission


def _row_pairs(settings: Settings) -> list[tuple[ProtocolKind, str]]:
    """The (protocol, method) pairs that make a row, in row order: each
    requested pair but analytic rows of the benchmarks, which have no
    closed form."""
    return [
        (protocol, method)
        for protocol in settings.protocols
        for method in settings.methods
        if method != "analytic" or protocol in ANALYTIC_PROTOCOLS
    ]


def make_rows(settings: Settings, points: list[tuple[float, float]]) -> list[str]:
    """CSV body rows for every grid point x protocol x method.

    Protocol/method pairs without an implementation (the benchmarks have
    no closed form) are silently omitted.  ``mean_c`` is filled only on
    plain CR-SIC rows, from the matching method family (sampled scale on
    mc rows, its closed form otherwise).  The mc rows and the sampled
    scale of a point all come from one :func:`sample_point` call.
    """
    rows = []
    wants_sic = ProtocolKind.CR_SIC in settings.protocols
    wants_mc = "mc" in settings.methods
    wants_exact = bool({"analytic", "oracle"} & set(settings.methods))
    mc = McConfig(n_samples=settings.samples, seed=settings.seed)
    # Every point is checked before any is computed.
    scenarios = [_scenario(settings, *point) for point in points]
    for (gamma0_pu, gamma0_su), scenario in zip(points, scenarios):
        sampled, mean_c_mc = {}, ""
        if wants_mc:
            sampled, scale = sample_point(scenario, mc, settings.protocols)
            mean_c_mc = _fmt(scale.value) if wants_sic else ""
        mean_c_exact = (
            _fmt(mean_power_factor_oracle(scenario)) if wants_sic and wants_exact else ""
        )
        for protocol, method in _row_pairs(settings):
            if method == "mc":
                result = sampled[protocol]
            else:
                result = evaluate(protocol, scenario, method)
            if protocol is ProtocolKind.CR_SIC:
                mean_c = mean_c_mc if method == "mc" else mean_c_exact
            else:
                mean_c = ""
            rows.append(
                ",".join(
                    (
                        protocol.value,
                        _fmt(gamma0_pu),
                        _fmt(gamma0_su),
                        method,
                        _fmt(result.value),
                        _fmt(result.stderr),
                        str(result.n_samples),
                        mean_c,
                    )
                )
            )
    return rows


def write_csv(rows: list[str], out_path: str) -> None:
    text = "\n".join([CSV_HEADER, *rows]) + "\n"
    Path(out_path).write_text(text, encoding="utf-8", newline="")


def write_plot_script(csv_path: str, settings: Settings) -> str:
    """Companion gnuplot script plotting rate-vs-SNR from the CSV."""
    csv_name = Path(csv_path).name
    script_path = str(Path(csv_path).with_suffix(".gp"))
    lines = [
        f"# gnuplot companion for {csv_name}",
        'set datafile separator ","',
        "set key outside right",
        'set xlabel "primary mean SNR (dB)"',
        'set ylabel "SU ergodic rate (bits/s/Hz)"',
        "set grid",
        "plot \\",
    ]
    plot_specs = []
    for protocol, method in _row_pairs(settings):
        style = "points pt 7" if method == "mc" else "lines"
        plot_specs.append(
            f'  "{csv_name}" using '
            f'(strcol(1) eq "{protocol.value}" && strcol(4) eq "{method}"'
            f" ? column(2) : NaN):5 with {style}"
            f' title "{protocol.value} {method}"'
        )
    lines.append(", \\\n".join(plot_specs))
    Path(script_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return script_path


# ------------------------------------------------------------ subcommands


def run_point(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    if settings.gamma0_pu is None or settings.gamma0_su is None:
        raise UsageError("point needs --gamma0 (or --gamma0-pu and --gamma0-su)")
    if args.out:
        _output(args.out)
    rows = make_rows(settings, [(settings.gamma0_pu, settings.gamma0_su)])
    if args.out:
        write_csv(rows, args.out)
    else:
        print(CSV_HEADER)
        for row in rows:
            print(row)
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    """``sweep``, and the ``figure2``/``figure3`` presets of its grid."""
    settings = resolve_settings(args)
    grid = _grid(args.start, args.stop, args.step)
    if args.sweep_var == "pu":
        fixed_su = 20.0 if settings.gamma0_su is None else settings.gamma0_su
        points = [(value, fixed_su) for value in grid]
    elif settings.gamma0_su is not None:
        raise UsageError("--gamma0-su needs --sweep-var pu; a 'both' sweep moves both links")
    else:
        points = [(value, value) for value in grid]
    out_path = _output(args.out or f"{args.command}.csv")
    if args.emit_plot:
        script = Path(out_path).with_suffix(".gp")
        if script == Path(out_path):
            raise UsageError(f"--out {out_path} would be overwritten by the --emit-plot script")
        if script.is_dir():
            raise UsageError(f"--out {out_path} puts the --emit-plot script on directory {script}")
    rows = make_rows(settings, points)
    write_csv(rows, out_path)
    if args.emit_plot:
        script = write_plot_script(out_path, settings)
        print(f"wrote {out_path} and {script}")
    else:
        print(f"wrote {out_path}")
    return EXIT_OK


def run_validate(args: argparse.Namespace) -> int:
    from . import validation

    samples, seed = _budget(args)
    out_path = _output(args.out or "deviation_report.json")
    results, report = validation.run_all(samples, quick=args.quick, seed=seed)
    Path(out_path).write_text(json.dumps(report, indent=2), encoding="utf-8")
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        print(
            f"criterion_{check.id} {status} measured={check.measured:.6g} "
            f"tolerance={check.tolerance:.6g} runtime={check.runtime_s * 1e3:.2f}ms "
            f"# {check.name}: {check.detail}"
        )
    print(f"deviation report: {out_path}")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


# ------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crul",
        description="Ergodic-rate estimation for spectrum-sharing uplink protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups by what reads them; each subcommand takes only its own.
    budget, scenario, su, split, plot = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    budget.add_argument("--samples", type=int, help="Monte Carlo sample count")
    budget.add_argument("--seed", type=int, default=0, help="Monte Carlo stream seed")
    budget.add_argument("--quick", action="store_true", help="reduced sample budget / quick checks")
    budget.add_argument("--out", help="output path")
    budget.add_argument("--config", help="key=value config file (flags win)")
    scenario.add_argument("--dist-pu", type=float, default=1.0, help="primary distance ratio")
    scenario.add_argument("--dist-su", type=float, default=2.0, help="secondary distance ratio")
    scenario.add_argument("--u", type=float, default=2.0, help="path-loss exponent")
    scenario.add_argument("--rate-th", type=float, default=2.5, help="primary target (bit/s/Hz)")
    scenario.add_argument("--protocol", default="all", help="comma-separated protocols, or 'all'")
    methods = ",".join(METHODS)
    scenario.add_argument("--method", default=methods, help=f"comma-separated subset of {methods}")
    su.add_argument("--gamma0-su", type=float, help="secondary mean SNR (dB)")
    split.add_argument("--gamma0", type=float, help="mean SNR of both links (dB)")
    split.add_argument("--gamma0-pu", type=float, help="primary mean SNR (dB)")
    plot.add_argument("--emit-plot", action="store_true", help="also write a gnuplot script")

    def command(name: str, summary: str, handler, *parents) -> argparse.ArgumentParser:
        # No abbreviations: a flag a subcommand lacks must not match one it has.
        child = sub.add_parser(name, help=summary, parents=[*parents, budget], allow_abbrev=False)
        child.set_defaults(handler=handler)
        return child

    command("point", "evaluate one configuration", run_point, split, su, scenario)
    sweep = command("sweep", "sweep a mean-SNR grid to CSV", run_sweep, scenario, su, plot)
    sweep.add_argument("--start", type=float, default=0.0, help="grid start (dB)")
    sweep.add_argument("--stop", type=float, default=40.0, help="grid stop (dB)")
    sweep.add_argument("--step", type=float, default=2.0, help="grid step (dB)")
    sweep.add_argument(
        "--sweep-var",
        choices=("both", "pu"),
        default="both",
        help="sweep both links together, or the primary only",
    )
    command(
        "figure2", "preset: both links 0..40 dB step 2", run_sweep, scenario, plot
    ).set_defaults(start=0.0, stop=40.0, step=2.0, sweep_var="both")
    command(
        "figure3", "preset: primary 0..60 dB step 2, secondary fixed at 20 dB",
        run_sweep, scenario, su, plot,
    ).set_defaults(start=0.0, stop=60.0, step=2.0, sweep_var="pu")
    command("validate", "run the acceptance checks", run_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            lines = load_config(args.config)
            flags = [flag for _, _, flag in lines]
            _, unknown = parser.parse_known_args([args.command, *flags])
            for lineno, key, flag in lines:
                if flag in unknown:
                    raise UsageError(
                        f"{args.config}:{lineno}: key {key!r}: crul {args.command} "
                        f"has no flag {flag.split('=', 1)[0]}"
                    )
            # The file's flags go ahead of the command line's, so flags win.
            args = parser.parse_args([args.command, *flags, *argv[1:]])
        return args.handler(args)
    except SystemExit as exc:  # argparse: a usage error, or --help
        return EXIT_OK if exc.code is None else int(exc.code)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, ArithmeticError, ConvergenceError, OracleAccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
