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
count, ``0`` meaning auto; it is the one thread control.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .channel import ScenarioConfig
from .crosscheck import ANALYTIC_PROTOCOLS, evaluate
from .montecarlo import McConfig, resolve_workers, sample_point
from .montecarlo import mean_power_factor  # noqa: F401 - perfbench/spans.py patches this name
from .oracle import OracleAccuracyError, mean_power_factor_oracle
from .protocols import ProtocolKind
from .specfun import MAX_ORDER, ConvergenceError

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
    nodes: int


_CONFIG_KEYS = {
    "gamma0": float,
    "gamma0_pu": float,
    "gamma0_su": float,
    "dist_pu": float,
    "dist_su": float,
    "u": float,
    "rate_th": float,
    "protocol": str,
    "method": str,
    "samples": int,
    "seed": int,
    "nodes": int,
}


def load_config(path: str) -> dict[str, str]:
    """Parse a ``key = value`` file (``#`` comments, blank lines allowed)."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _parse_protocols(spec: str) -> tuple[ProtocolKind, ...]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if spec.strip().lower() == "all":
        return ALL_PROTOCOLS
    if not names:
        raise UsageError("protocol list is empty")
    protocols = []
    for name in names:
        try:
            protocols.append(ProtocolKind.from_name(name))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return tuple(protocols)


def _parse_methods(spec: str) -> tuple[str, ...]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise UsageError("method list is empty")
    for name in names:
        if name not in METHODS:
            raise UsageError(f"unknown method {name!r}; choose from {METHODS}")
    return tuple(names)


def _require(flag: str, value, valid: bool, rule: str) -> None:
    if not valid:
        raise UsageError(f"--{flag} must be {rule}, got {value}")


def resolve_settings(args: argparse.Namespace) -> Settings:
    """Merge command-line flags over config-file values over defaults."""
    file_values = load_config(args.config) if args.config else {}

    def pick(name: str, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            caster = _CONFIG_KEYS[name]
            try:
                return caster(file_values[name])
            except ValueError as exc:
                raise UsageError(f"config key {name}: {exc}") from exc
        return default

    gamma0 = pick("gamma0", None)
    gamma0_pu = pick("gamma0_pu", None)
    gamma0_su = pick("gamma0_su", None)
    dist_pu, dist_su = pick("dist_pu", 1.0), pick("dist_su", 2.0)
    u, rate_th = pick("u", 2.0), pick("rate_th", 2.5)
    # Comparisons are false for NaN, so each check also rejects it.
    low, high = SNR_DB_RANGE
    for flag, value in (("gamma0", gamma0), ("gamma0-pu", gamma0_pu), ("gamma0-su", gamma0_su)):
        if value is not None:
            _require(flag, value, low <= value <= high, f"a mean SNR in [{low:g}, {high:g}] dB")
    for flag, value in (("dist-pu", dist_pu), ("dist-su", dist_su)):
        _require(flag, value, 0.0 < value < math.inf, "finite and > 0")
    for flag, value in (("u", u), ("rate-th", rate_th)):
        _require(flag, value, 0.0 <= value < math.inf, "finite and >= 0")
    if gamma0 is not None:
        if gamma0_pu is not None or gamma0_su is not None:
            raise UsageError("--gamma0 conflicts with --gamma0-pu/--gamma0-su")
        gamma0_pu = gamma0_su = gamma0

    samples = pick("samples", None)
    if samples is None:
        samples = 10**5 if args.quick else 10**6
    if samples < 1:
        raise UsageError(f"--samples must be >= 1, got {samples}")
    nodes = pick("nodes", 100)
    _require("nodes", nodes, 1 <= nodes <= MAX_ORDER, f"in [1, {MAX_ORDER}]")
    seed = pick("seed", 0)
    _require("seed", seed, 0 <= seed < 1 << 64, "in [0, 2**64)")
    try:
        resolve_workers(1)  # a bad CRUL_THREADS is a usage error, not a failure mid-run
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    return Settings(
        gamma0_pu=gamma0_pu,
        gamma0_su=gamma0_su,
        dist_pu=dist_pu,
        dist_su=dist_su,
        u=u,
        rate_th=rate_th,
        protocols=_parse_protocols(pick("protocol", "all")),
        methods=_parse_methods(pick("method", ",".join(METHODS))),
        samples=samples,
        seed=seed,
        nodes=nodes,
    )


def _scenario(settings: Settings, gamma0_pu: float, gamma0_su: float) -> ScenarioConfig:
    low, high = LINK_SNR_DB_RANGE
    links = (("pu", gamma0_pu, settings.dist_pu), ("su", gamma0_su, settings.dist_su))
    for link, snr_db, distance in links:
        # In logs, so a path loss that overflows a float is still caught.
        link_db = snr_db - 10.0 * settings.u * math.log10(distance)
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


def make_rows(settings: Settings, points: list[tuple[float, float]]) -> list[str]:
    """CSV body rows for every grid point x protocol x method.

    Protocol/method pairs without an implementation (the benchmarks have
    no closed form) are silently omitted.  ``mean_c`` is filled only on
    plain CR-SIC rows, from the matching method family (sampled scale on
    mc rows, integrated scale otherwise).  The mc rows and the sampled
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
        for protocol in settings.protocols:
            for method in settings.methods:
                if method == "analytic" and protocol not in ANALYTIC_PROTOCOLS:
                    continue
                if method == "mc":
                    result = sampled[protocol]
                else:
                    result = evaluate(protocol, scenario, method, nodes=settings.nodes)
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
    for protocol in settings.protocols:
        for method in settings.methods:
            if method == "analytic" and protocol not in ANALYTIC_PROTOCOLS:
                continue
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
    rows = make_rows(settings, [(settings.gamma0_pu, settings.gamma0_su)])
    if args.out:
        write_csv(rows, args.out)
    else:
        print(CSV_HEADER)
        for row in rows:
            print(row)
    return EXIT_OK


def _run_sweep(
    args, settings: Settings, points: list[tuple[float, float]], default_out: str
) -> int:
    out_path = args.out or default_out
    rows = make_rows(settings, points)
    write_csv(rows, out_path)
    if args.emit_plot:
        script = write_plot_script(out_path, settings)
        print(f"wrote {out_path} and {script}")
    else:
        print(f"wrote {out_path}")
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    grid = _grid(args.start, args.stop, args.step)
    if args.sweep_var == "pu":
        fixed_su = settings.gamma0_su if settings.gamma0_su is not None else 20.0
        points = [(value, fixed_su) for value in grid]
    else:
        points = [(value, value) for value in grid]
    return _run_sweep(args, settings, points, "sweep.csv")


def run_figure2(args: argparse.Namespace) -> int:
    points = [(float(db), float(db)) for db in range(0, 41, 2)]
    return _run_sweep(args, resolve_settings(args), points, "figure2.csv")


def run_figure3(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    fixed_su = settings.gamma0_su if settings.gamma0_su is not None else 20.0
    points = [(float(db), fixed_su) for db in range(0, 61, 2)]
    return _run_sweep(args, settings, points, "figure3.csv")


def run_validate(args: argparse.Namespace) -> int:
    from . import validation

    settings = resolve_settings(args)
    out_path = args.out or "deviation_report.json"
    results, report = validation.run_all(
        quick=args.quick, seed=settings.seed, samples=settings.samples
    )
    Path(out_path).write_text(json.dumps(report, indent=2), encoding="utf-8")
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        print(
            f"criterion_{check.id} {status} measured={check.measured:.6g} "
            f"tolerance={check.tolerance:.6g} runtime={check.runtime_s:.1f}s "
            f"# {check.name}"
        )
    print(f"deviation report: {out_path}")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


# ------------------------------------------------------------ parser


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma0", type=float, help="mean SNR of both links (dB)")
    parser.add_argument("--gamma0-pu", type=float, help="primary mean SNR (dB)")
    parser.add_argument("--gamma0-su", type=float, help="secondary mean SNR (dB)")
    parser.add_argument("--dist-pu", type=float, help="primary distance ratio")
    parser.add_argument("--dist-su", type=float, help="secondary distance ratio")
    parser.add_argument("--u", type=float, help="path-loss exponent")
    parser.add_argument(
        "--rate-th", type=float, help="primary rate target over bandwidth"
    )
    parser.add_argument(
        "--protocol", help="comma-separated protocol names, or 'all'"
    )
    parser.add_argument("--method", help=f"comma-separated subset of {','.join(METHODS)}")
    parser.add_argument("--samples", type=int, help="Monte Carlo sample count")
    parser.add_argument("--seed", type=int, help="Monte Carlo stream seed")
    parser.add_argument("--nodes", type=int, help="quadrature order")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--config", help="key=value config file (flags win)")
    parser.add_argument(
        "--emit-plot", action="store_true", help="also write a gnuplot script"
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sample budget / quick checks"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crul",
        description="Ergodic-rate estimation for spectrum-sharing uplink protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one configuration")
    _add_shared_flags(point)
    point.set_defaults(handler=run_point)

    sweep = sub.add_parser("sweep", help="sweep a mean-SNR grid to CSV")
    _add_shared_flags(sweep)
    sweep.add_argument("--start", type=float, default=0.0, help="grid start (dB)")
    sweep.add_argument("--stop", type=float, default=40.0, help="grid stop (dB)")
    sweep.add_argument("--step", type=float, default=2.0, help="grid step (dB)")
    sweep.add_argument(
        "--sweep-var",
        choices=("both", "pu"),
        default="both",
        help="sweep both links together, or the primary only",
    )
    sweep.set_defaults(handler=run_sweep)

    figure2 = sub.add_parser("figure2", help="preset: both links 0..40 dB step 2")
    _add_shared_flags(figure2)
    figure2.set_defaults(handler=run_figure2)

    figure3 = sub.add_parser(
        "figure3", help="preset: primary 0..60 dB step 2, secondary fixed at 20 dB"
    )
    _add_shared_flags(figure3)
    figure3.set_defaults(handler=run_figure3)

    validate = sub.add_parser("validate", help="run the acceptance checks")
    _add_shared_flags(validate)
    validate.set_defaults(handler=run_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, ArithmeticError, ConvergenceError, OracleAccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
