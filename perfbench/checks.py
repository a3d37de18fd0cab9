"""Correctness checks on a written CSV, made apart from the program.

Nothing here imports ``crul``: the closed forms use ``scipy.special.exp1``
and the scenario constants of ``workloads``.  With ``g(l) = e^l E1(l)``:

* clean ceiling   E[log2(1+g_su)]              = g(l_su) / ln 2
* ``bench-qos``   e^{-l_pu th} l_su/mu g(mu) / ln 2,       mu = l_su + l_pu th
* ``bench-csi``   l_pu/(l_su-l_pu) [g(l_pu) - g(l_su)] / ln 2
"""

from __future__ import annotations

import csv
import math

from scipy.special import exp1

import workloads

LN2 = math.log(2.0)
THETA = 2.0**workloads.RATE_TH - 1.0
#: The CSV keeps 9 significant digits (5e-9 relative) and the oracle
#: integrates to 1e-9; exact values must agree within this.
EXACT_REL_TOL = 2e-8
#: The program's per-term arbitration tolerance: every analytic term lies
#: within it of its oracle term, and every term is non-negative, so the
#: analytic total lies within it of the oracle total.
ARBITRATION_REL_TOL = 1e-4
#: Monte Carlo rows must fall within this many of their standard errors.
MC_SIGMAS = 6.0
#: The standard error of a rate that is non-zero on a rare event is only
#: trustworthy when enough draws land in the event: ``bench-qos`` at
#: (3.037, 35.959) dB is admitted on about 4 of 1e5 draws.
MIN_EVENT_DRAWS = 100
BENCHMARKS = ("bench-csi", "bench-qos")
MAX_REPORTED = 20


def _g(lam: float) -> float:
    return math.exp(lam) * float(exp1(lam))


def rate_parameter(snr_db: float, distance: float) -> float:
    mean_snr = 10.0 ** (snr_db / 10.0) * distance ** (-workloads.PATH_LOSS_EXPONENT)
    return 1.0 / mean_snr


def clean_ceiling(lam_su: float) -> float:
    return _g(lam_su) / LN2


def qos_admission(lam_pu: float, lam_su: float) -> float:
    """Pr{g_pu > th (1 + g_su)}: where ``bench-qos`` lets the secondary in."""
    return math.exp(-lam_pu * THETA) * lam_su / (lam_su + lam_pu * THETA)


def bench_qos(lam_pu: float, lam_su: float) -> float:
    mu = lam_su + lam_pu * THETA
    return qos_admission(lam_pu, lam_su) * _g(mu) / LN2


def bench_csi(lam_pu: float, lam_su: float) -> float:
    gap = lam_su - lam_pu
    if abs(gap) <= 1e-6 * max(lam_pu, lam_su):
        # Divided difference -> -g'(m) = 1/m - g(m); the general form
        # cancels catastrophically when the two rates nearly coincide.
        mid = 0.5 * (lam_pu + lam_su)
        return lam_pu * (1.0 / mid - _g(mid)) / LN2
    return lam_pu / gap * (_g(lam_pu) - _g(lam_su)) / LN2


def read_rows(path: str) -> dict[tuple[float, float], dict[tuple[str, str], dict]]:
    """CSV rows grouped by point, then keyed by (protocol, method)."""
    points: dict = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            point = (float(row["gamma0P_db"]), float(row["gamma0S_db"]))
            key = (row["protocol"], row["method"])
            entry = {
                "value": float(row["value_bpshz"]),
                "stderr": float(row["stderr"]),
                "n": int(row["n_samples"]),
                "mean_c": float(row["mean_c"]) if row["mean_c"] else None,
            }
            rows = points.setdefault(point, {})
            if key in rows:
                raise ValueError(f"duplicate row {key} at {point}")
            rows[key] = entry
    return points


def _check_point(point, rows, expected, samples, problems):
    def fail(message):
        problems.append(f"point {point}: {message}")

    if set(rows) != expected:
        fail(f"rows {sorted(rows)} differ from expected {sorted(expected)}")
        return
    lam_pu = rate_parameter(point[0], workloads.DIST_PU)
    lam_su = rate_parameter(point[1], workloads.DIST_SU)

    for (protocol, method), row in rows.items():
        value, stderr = row["value"], row["stderr"]
        if not (math.isfinite(value) and value >= 0.0):
            fail(f"{protocol} {method} value {value} is not a finite rate")
            return
        if method == "mc":
            # A rate that no draw made non-zero has a zero standard error.
            if row["n"] != samples or not (stderr > 0.0 or (stderr == 0.0 and value == 0.0)):
                fail(f"{protocol} mc has n={row['n']} stderr={stderr}")
        elif row["n"] != 0 or stderr != 0.0:
            fail(f"{protocol} {method} has n={row['n']} stderr={stderr}")

    closed = {"bench-qos": bench_qos(lam_pu, lam_su), "bench-csi": bench_csi(lam_pu, lam_su)}
    event = {"bench-qos": qos_admission(lam_pu, lam_su), "bench-csi": 1.0}
    for protocol in BENCHMARKS:
        reference = closed[protocol]
        for method in ("oracle", "mc"):
            row = rows.get((protocol, method))
            if row is None:
                continue
            if method == "mc" and samples * event[protocol] < MIN_EVENT_DRAWS:
                continue
            gap = abs(row["value"] - reference)
            allowed = EXACT_REL_TOL * reference
            if method == "mc":
                allowed += MC_SIGMAS * row["stderr"]
            if gap > allowed:
                fail(f"{protocol} {method} {row['value']!r} vs closed form {reference!r}")

    methods = {method for _, method in rows}
    for method in methods:
        sic = rows.get(("cr-sic", method))
        mean_c = sic["mean_c"] if sic else None
        slack = {"mc": 0.0, "oracle": EXACT_REL_TOL, "analytic": ARBITRATION_REL_TOL}[method]
        for (protocol, row_method), row in rows.items():
            if row_method != method:
                continue
            if protocol == "cr-sic-norm":
                if mean_c is None:
                    continue
                ceiling = clean_ceiling(lam_su * mean_c)
            else:
                ceiling = clean_ceiling(lam_su)
            allowed = ceiling * (1.0 + slack + EXACT_REL_TOL) + MC_SIGMAS * row["stderr"]
            if row["value"] > allowed:
                fail(f"{protocol} {method} {row['value']!r} above clean ceiling {ceiling!r}")
        # Monte Carlo rows share their draws, so the ordering is exact there.
        chain = [rows.get((p, method)) for p in ("cr-rsma", "cr-sic", "bench-qos")]
        chain = [row["value"] for row in chain if row is not None]
        for upper, lower in zip(chain, chain[1:]):
            if upper < lower * (1.0 - 2.0 * slack):
                fail(f"{method} ordering cr-rsma >= cr-sic >= bench-qos broken: {chain}")

    for protocol in ("cr-rsma", "cr-sic", "cr-sic-norm"):
        analytic = rows.get((protocol, "analytic"))
        oracle = rows.get((protocol, "oracle"))
        if analytic and oracle:
            allowed = (ARBITRATION_REL_TOL + EXACT_REL_TOL) * oracle["value"] + 1e-11
            if abs(analytic["value"] - oracle["value"]) > allowed:
                fail(
                    f"{protocol} analytic {analytic['value']!r} vs oracle "
                    f"{oracle['value']!r} beyond the arbitration tolerance"
                )


def check_csv(path: str, expected_points: dict, samples: dict) -> list[str]:
    """Problems found in the CSV at ``path`` (an empty list when correct).

    ``expected_points`` maps each point that succeeded to the set of
    (protocol, method) rows it must have; ``samples`` maps it to the
    Monte Carlo sample count.
    """
    problems: list[str] = []
    try:
        points = read_rows(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot read {path}: {exc}"]
    if set(points) != set(expected_points):
        problems.append(
            f"CSV points {sorted(points)} differ from the successful operations "
            f"{sorted(expected_points)}"
        )
    for point, expected in expected_points.items():
        if point in points:
            _check_point(point, points[point], expected, samples[point], problems)
    return problems[:MAX_REPORTED]
