"""Correctness gate for one experiment run of the benchmark.

A run fails when its exit code or a per-point status is not the expected
one, when a property the paper certifies does not hold in its report, or
when it departs from the stored reference.  For every seed the grid points,
their index windows, the row count and the report columns that no seed
changes must match the reference; for the default seed every report value
must match it too, within a relative tolerance.  The tolerance is not zero
because a legal optimisation may reorder sums.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

EXIT_OK = 0
REL_TOL = 1e-6
ABS_TOL = 1e-12
# Inverse residuals sit at rounding level, so they are compared to within a
# hundredth of their bound instead of relatively.
RESIDUAL_BOUND_SHARE = 1e-2

NORM_SLOPE = (0.7, 1.3)          # acceptance criterion c08
PARAMETRIX_SLOPE = (0.4, 1.2)    # acceptance criterion c09
PARAMETRIX_RATIO = 0.25
PRINTED_RESIDUAL_MIN = 0.1       # acceptance criterion c06

# Report columns that depend only on the family, t and the tail tolerance,
# never on the coefficients the seed draws.
SEED_FREE_COLUMNS = ("t", "k_hi", "kind", "n")


def read_report(path: Path):
    """Rows of a CSV report, with bools, ints and floats converted."""
    with open(path, newline="") as fh:
        return [{k: _value(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _value(text):
    if text in ("true", "false"):
        return text == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _slope(rows, column):
    """Least-squares slope of log(column) against log(t), head point dropped."""
    x = np.log([r["t"] for r in rows[1:]])
    y = np.log([r[column] for r in rows[1:]])
    return float(np.polyfit(x, y, 1)[0])


def _norms(config, rows):
    errs = [r["abs_error"] for r in rows]
    bad = []
    if not all(b < a for a, b in zip(errs, errs[1:])):
        bad.append(f"norm abs_error not strictly decreasing: {errs}")
    slope = _slope(rows, "abs_error")
    if not NORM_SLOPE[0] <= slope <= NORM_SLOPE[1]:
        bad.append(f"norm slope {slope:.3f} outside {NORM_SLOPE}")
    return bad


def _parametrix(config, rows):
    errs = [r["parametrix_error"] for r in rows]
    bad = []
    ratio = errs[-1] / errs[0]
    if not ratio <= PARAMETRIX_RATIO:
        bad.append(f"parametrix ratio {ratio:.3f} > {PARAMETRIX_RATIO}")
    slope = _slope(rows, "parametrix_error")
    if not PARAMETRIX_SLOPE[0] <= slope <= PARAMETRIX_SLOPE[1]:
        bad.append(f"parametrix slope {slope:.3f} outside {PARAMETRIX_SLOPE}")
    return bad


def _inverse(config, rows):
    bad = []
    for r in rows:
        if config.get("expect_failure"):
            if not r["residual"] >= PRINTED_RESIDUAL_MIN:
                bad.append(f"t={r['t']}: printed residual {r['residual']:.3e} "
                           f"< {PRINTED_RESIDUAL_MIN}")
        elif not r["residual"] <= r["bound"]:
            bad.append(f"t={r['t']}: residual {r['residual']:.3e} > bound "
                       f"{r['bound']:.3e}")
    return bad


def _schur(config, rows):
    corrected = config.get("qt_kernel", "corrected") == "corrected"
    bad = []
    for r in rows:
        where = f"{r['kind']} n={r['n']} t={r['t']}"
        if not r["norm_estimate"] <= r["schur_bound"] * (1 + 1e-10):
            bad.append(f"{where}: estimate {r['norm_estimate']} > Schur bound")
        # the printed suffix kernel at n = 0 has no t-uniform cap
        if (corrected or r["n"] >= 1) and \
                not r["schur_bound"] <= r["analytic_cap"] * (1 + 1e-12):
            bad.append(f"{where}: Schur bound {r['schur_bound']} > cap")
        if r["ok"] is not True:
            bad.append(f"{where}: ok is {r['ok']}")
    return bad


def _uniform_bound(config, rows):
    return [f"t={r['t']}: max_ratio {r['max_ratio']} over cap {r['schur_cap']}"
            for r in rows
            if r["within_cap"] is not True
            or not r["max_ratio"] <= r["schur_cap"] * (1 + 1e-12)]


def _check_weights(config, rows):
    return [f"t={r['t']}: monotone={r['monotone']} positive={r['positive']}"
            for r in rows if r["monotone"] is not True or r["positive"] is not True]


PROPERTIES = {
    "norms": _norms,
    "parametrix": _parametrix,
    "inverse": _inverse,
    "schur": _schur,
    "uniform-bound": _uniform_bound,
    "check-weights": _check_weights,
}


def check_run(config: dict, exit_code: int, manifest: dict, rows) -> list:
    """Reasons the run fails the gate; empty when it passes."""
    bad = []
    if exit_code != EXIT_OK:
        bad.append(f"exit code {exit_code}, expected {EXIT_OK}")
    if manifest.get("status") != "ok":
        bad.append(f"manifest status {manifest.get('status')!r}")
    want = "expected-failure" if config.get("expect_failure") else "ok"
    statuses = [p["status"] for p in manifest.get("points", [])]
    if not statuses or any(s != want for s in statuses):
        bad.append(f"point statuses {statuses}, expected all {want!r}")
    if rows is None or not rows:
        return bad + ["no report rows"]
    try:
        bad += PROPERTIES[config["experiment"]](config, rows)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        bad.append(f"report unreadable: {exc!r}")
    return bad


def _close(column, got, want, row):
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        atol = ABS_TOL
        if column == "residual":
            atol = max(atol, RESIDUAL_BOUND_SHARE * row["bound"])
        return abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + atol
    return got == want


def window_points(manifest) -> list:
    """[t, k_lo, k_hi] of every grid point in a run manifest."""
    return [[p["t"], p["k_lo"], p["k_hi"]] for p in manifest.get("points", [])]


def compare_reference(manifest, rows, reference, full=True) -> list:
    """Differences between a run and its stored reference.

    `reference` holds the reference run's window points and report rows.
    The points, the row count, the columns and the SEED_FREE_COLUMNS are
    always compared; with `full`, every report value is compared as well.
    """
    bad = []
    points = window_points(manifest)
    if points != reference["points"]:
        bad.append(f"window points {points} != reference "
                   f"{reference['points']}")
    ref_rows = reference["rows"]
    if len(rows) != len(ref_rows):
        return bad + [f"{len(rows)} report rows, reference has {len(ref_rows)}"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if set(row) != set(ref):
            bad.append(f"row {i}: columns {sorted(row)} != {sorted(ref)}")
            continue
        columns = ref if full else [c for c in SEED_FREE_COLUMNS if c in ref]
        for column in columns:
            if not _close(column, row[column], ref[column], ref):
                bad.append(f"row {i} {column}: {row[column]!r} != reference "
                           f"{ref[column]!r}")
    return bad
