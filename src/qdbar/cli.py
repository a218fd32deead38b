"""Config-driven experiment runner.

One JSON config describes one experiment run: the weight family, the band
element(s), the t-grid, truncation policy, and kernel convention.  Each run
writes one report (CSV or a JSON mirror with identical fields) plus a
manifest with the echoed config, library version, wall clock, and per-grid-
point window sizes and statuses.  Reports are byte-deterministic: floats are
formatted with their shortest round-trip representation and wall-clock data
lives only in the manifest.

Exit codes: 0 success, 2 weight-condition violation, 3 numerical failure (a
window that needs indices beyond k_cap, or a classical integral that diverges:
a parametrix transform or a classical norm), 4 property failure (a bound or
inverse check did not hold), 64 config syntax error, 65 invalid config, 70
internal error (an unexpected exception; the manifest records it and its
traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .elements import DEFAULT_K_CAP, make_element, truncation_window
from .errors import (
    ConfigInvalidError, ConfigSyntaxError, DivergentIntegralError,
    ParameterError, QdbarError, WindowResourceError,
)
from .limits import (
    continuity_scan, geometric_grid, inverse_residual, inverse_residual_bound,
    norm_convergence, parametrix_convergence, uniform_bound_scan,
)
from .operators import (
    MAX_BAND, QtKernelMode, kernel_specs, operator_norm_estimate,
    schur_property_holds, schur_young_bound,
)
from .weights import Domain, condition_report, make_family

EXPERIMENTS = ("check-weights", "norms", "parametrix", "inverse", "schur",
               "continuity", "uniform-bound")

EXIT_OK = 0
EXIT_CONDITION = 2
EXIT_NUMERICAL = 3
EXIT_PROPERTY = 4
EXIT_SYNTAX = 64
EXIT_INVALID = 65
EXIT_INTERNAL = 70

DEFAULTS = {
    "t_grid": {"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": 8},
    "truncation": {"tail_tol": 1e-5, "k_cap": DEFAULT_K_CAP},
    "qt_kernel": "corrected",
    "output": {"directory": "out", "format": "csv"},
    "expect_failure": False,
}


@dataclass(frozen=True)
class RunConfig:
    """A parsed, validated, defaults-filled run description."""

    data: dict   # normalized config document

    @property
    def experiment(self):
        return self.data["experiment"]

    def family(self):
        spec = self.data["family"]
        return make_family(spec["kind"], alpha=spec.get("alpha"),
                           beta=spec.get("beta"), domain=spec.get("domain"))

    def element(self):
        return make_element(self.data["element"])

    def element_list(self):
        specs = self.data.get("elements") or [self.data["element"]]
        return [make_element(s) for s in specs]

    def t_grid(self):
        g = self.data["t_grid"]
        if g["kind"] == "geometric":
            return geometric_grid(g["head"], g["ratio"], g["count"])
        return sorted(g["values"], reverse=True)

    def qt_mode(self):
        return QtKernelMode(self.data["qt_kernel"])

    @property
    def tail_tol(self):
        return self.data["truncation"]["tail_tol"]

    @property
    def k_cap(self):
        return self.data["truncation"]["k_cap"]

    def to_dict(self):
        return json.loads(json.dumps(self.data))


def emit_config(config: RunConfig) -> str:
    """Canonical JSON text for a config; parse_config inverts this exactly."""
    return json.dumps(config.data, indent=2, sort_keys=True)


def _is_number(value) -> bool:
    """A finite JSON number; bools and integers beyond float range are excluded."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an integer literal too large for a float
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_int(value) -> bool:
    return _is_int(value) and value > 0


def _section(config, key) -> dict:
    """The config section `key`, {} when absent; ParameterError unless an object."""
    section = config.data.get(key, {})
    if not isinstance(section, dict):
        raise ParameterError(f"{key} must be an object, got {section!r}")
    return section


def _weights_check_settings(config):
    """(k_lo, k_hi, tail_index) of a check-weights run, with their defaults.

    The default window is [0, 10000] on the disk and [-10000, 10000] on the
    annulus; the default tail index is half the window top (at least 1).
    """
    fam = config.family()
    wc = _section(config, "weights_check")
    window = wc.get("window")
    if window is None:
        k_hi = 10_000
        k_lo = 0 if fam.domain is Domain.DISK else -k_hi
    elif isinstance(window, list) and len(window) == 2 \
            and all(_is_int(k) and abs(k) <= 2**53 for k in window):
        k_lo, k_hi = window
    else:   # beyond 2^53 the float evaluators no longer resolve single indices
        raise ParameterError(
            f"weights_check.window must be two integers within +-2^53, got {window!r}")
    k_lo, k_hi = fam.check_window(k_lo, k_hi)
    if k_hi - k_lo + 1 > config.k_cap:
        raise ParameterError(f"weights_check.window spans {k_hi - k_lo + 1} indices, "
                             f"more than truncation.k_cap = {config.k_cap}")
    tail_index = wc.get("tail_index", max(1, k_hi // 2))
    if not (_is_int(tail_index) and k_lo <= tail_index <= k_hi):
        raise ParameterError("weights_check.tail_index must be an integer inside the "
                             f"window [{k_lo}, {k_hi}], got {tail_index!r}")
    return k_lo, k_hi, tail_index


def _schur_settings(config):
    """(max_n, iters, kinds) of a schur run, defaults 8, 500 and both kinds.

    The run must check at least one kernel: `kinds` is a nonempty list
    without repeats, and T2 alone (n from 1) needs max_n >= 1.
    """
    sc = _section(config, "schur")
    max_n, iters = sc.get("max_n", 8), sc.get("iters", 500)
    kinds = sc.get("kinds", ["T1", "T2"])
    if not (_is_int(max_n) and 0 <= max_n <= MAX_BAND):
        raise ParameterError(f"schur.max_n must be an integer in [0, {MAX_BAND}], got {max_n!r}")
    if not _is_positive_int(iters):
        raise ParameterError(f"schur.iters must be a positive integer, got {iters!r}")
    if not (isinstance(kinds, list) and kinds and all(k in ("T1", "T2") for k in kinds)
            and len(set(kinds)) == len(kinds)):
        raise ParameterError("schur.kinds must be a nonempty list of distinct kinds "
                             f"drawn from 'T1', 'T2', got {kinds!r}")
    if max_n == 0 and "T1" not in kinds:
        raise ParameterError("schur.max_n 0 with kinds ['T2'] checks no kernel "
                             "(T2 starts at n = 1)")
    return max_n, iters, kinds


def _continuity_settings(config):
    """(t_lo, t_hi, steps) of a continuity run, defaults 0.05, 0.9 and 100."""
    cc = _section(config, "continuity")
    t_lo, t_hi, steps = cc.get("t_lo", 0.05), cc.get("t_hi", 0.9), cc.get("steps", 100)
    if not (_is_number(t_lo) and _is_number(t_hi) and 0 < t_lo < t_hi < 1):
        raise ParameterError("continuity needs numbers 0 < t_lo < t_hi < 1, "
                             f"got t_lo={t_lo!r}, t_hi={t_hi!r}")
    if not (_is_int(steps) and steps >= 2):
        raise ParameterError(f"continuity.steps must be an integer >= 2, got {steps!r}")
    return float(t_lo), float(t_hi), steps


# the experiments whose own config section parse_config checks
_SECTIONS = {
    "check-weights": _weights_check_settings,
    "schur": _schur_settings,
    "continuity": _continuity_settings,
}


def parse_config(text: str, experiment: str | None = None) -> RunConfig:
    """Parse and validate a JSON run description, filling documented defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalidError("config must be a JSON object")

    data = {}
    data.update({k: v for k, v in raw.items()})
    if isinstance(data.get("t_grid"), list):
        data["t_grid"] = {"kind": "explicit", "values": data["t_grid"]}
    for key, val in DEFAULTS.items():
        if key not in data:
            data[key] = json.loads(json.dumps(val))
        elif isinstance(val, dict) and key != "t_grid":
            if not isinstance(data[key], dict):
                raise ConfigInvalidError(f"{key} must be an object")
            merged = json.loads(json.dumps(val))
            merged.update(data[key])
            data[key] = merged

    if experiment is not None:
        if "experiment" in data and data["experiment"] != experiment:
            raise ConfigInvalidError(
                f"config experiment {data['experiment']!r} does not match "
                f"the requested {experiment!r}")
        data["experiment"] = experiment
    if data.get("experiment") not in EXPERIMENTS:
        raise ConfigInvalidError(
            f"experiment must be one of {EXPERIMENTS}, got {data.get('experiment')!r}")

    grid = data["t_grid"]
    if not isinstance(grid, dict):
        raise ConfigInvalidError("t_grid must be a list or an object")
    if grid.get("kind") == "explicit":
        values = grid.get("values")
        if not (isinstance(values, list) and values
                and all(_is_number(v) and 0 < v < 1 for v in values)):
            raise ConfigInvalidError("explicit t_grid values must be numbers in (0, 1)")
        grid["values"] = sorted(float(v) for v in values)[::-1]
    elif grid.get("kind") == "geometric":
        if not all(_is_number(grid.get(key)) and 0 < grid[key] < 1
                   for key in ("head", "ratio")):
            raise ConfigInvalidError("geometric t_grid head and ratio must be numbers in (0, 1)")
        if not _is_positive_int(grid.get("count")):
            raise ConfigInvalidError(
                f"geometric t_grid count must be a positive integer, got {grid.get('count')!r}")
    else:
        raise ConfigInvalidError("t_grid.kind must be 'geometric' or 'explicit'")

    if data["output"]["format"] not in ("csv", "json"):
        raise ConfigInvalidError("output.format must be 'csv' or 'json'")
    if not isinstance(data["output"]["directory"], str):
        raise ConfigInvalidError("output.directory must be a string")
    tail_tol = data["truncation"]["tail_tol"]
    if not (_is_number(tail_tol) and tail_tol > 0):
        raise ConfigInvalidError("truncation.tail_tol must be a positive finite number")
    k_cap = data["truncation"]["k_cap"]
    if not _is_positive_int(k_cap):
        raise ConfigInvalidError(f"truncation.k_cap must be a positive integer, got {k_cap!r}")

    config = RunConfig(data=data)
    # semantic validation: build every referenced object once before running
    needs_element = data["experiment"] not in ("check-weights", "schur")
    try:
        config.family()
        if data["experiment"] in _SECTIONS:
            _SECTIONS[data["experiment"]](config)
        if needs_element:
            if "element" not in data and "elements" not in data:
                raise ParameterError("config needs an 'element' band spec")
            for elem in config.element_list():
                if elem.N > MAX_BAND:
                    raise ParameterError(
                        f"element band index N={elem.N} exceeds the cap {MAX_BAND}")
        config.qt_mode()
    except (ParameterError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigInvalidError(f"invalid config: {exc}") from exc
    return config


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(rows, columns, path: Path, fmt: str):
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(json.dumps([{c: row[c] for c in columns} for row in rows],
                                   indent=2) + "\n")


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _run_check_weights(config, points):
    fam = config.family()
    k_lo, k_hi, tail_index = _weights_check_settings(config)
    grid = config.t_grid()
    rep = condition_report(fam, grid, (k_lo, k_hi), tail_index)
    h3_delta = rep.h3_closed_cross
    rows = []
    for i, t in enumerate(grid):
        points.append({"t": t, "k_lo": k_lo, "k_hi": k_hi, "status": "ok"})
        rows.append({
            "t": t,
            "h1": rep.h1_values[i],
            "h2": rep.h2_values[i],
            "h1_closed_delta": abs(rep.h1_values[i] - rep.h1_closed[i])
            if rep.h1_closed[i] is not None else float("nan"),
            "h2_closed_delta": abs(rep.h2_values[i] - rep.h2_closed[i])
            if rep.h2_closed[i] is not None else float("nan"),
            "h3_closed_delta_max": h3_delta,
            "trace_deviation": rep.trace_deviation[i],
            "trace_tail_bound": rep.trace_tail_bound[i],
            "limit_deviation_hi": rep.limit_deviation_hi[i],
            "monotone": rep.monotonicity_ok,
            "positive": rep.positivity_ok,
            "wconst": rep.const_wratio,
            "wconst_identity_delta": abs(rep.const_wratio - rep.const_wratio_identity),
        })
    columns = ["t", "h1", "h2", "h1_closed_delta", "h2_closed_delta",
               "h3_closed_delta_max", "trace_deviation", "trace_tail_bound",
               "limit_deviation_hi", "monotone", "positive", "wconst",
               "wconst_identity_delta"]
    exit_code = EXIT_CONDITION if rep.violations() else EXIT_OK
    return rows, columns, exit_code


def _run_norms(config, points):
    series = norm_convergence(config.element(), config.family(), config.t_grid(),
                              config.tail_tol, config.k_cap)
    rows = []
    for rec in series.records:
        points.append({"t": rec.t, "k_lo": rec.window_lo, "k_hi": rec.window_hi,
                       "status": "ok"})
        rows.append({"t": rec.t, "k_hi": rec.window_hi,
                     "quantum_norm": rec.primary_value,
                     "classical_norm": rec.reference_value,
                     "abs_error": rec.abs_error, "tail_bound": rec.tail_bound})
    columns = ["t", "k_hi", "quantum_norm", "classical_norm", "abs_error",
               "tail_bound"]
    return rows, columns, EXIT_OK


def _run_parametrix(config, points):
    series = parametrix_convergence(config.element(), config.family(),
                                    config.t_grid(), config.tail_tol,
                                    config.qt_mode(), config.k_cap)
    rows = []
    for rec in series.records:
        points.append({"t": rec.t, "k_lo": rec.window_lo, "k_hi": rec.window_hi,
                       "status": "ok"})
        rows.append({"t": rec.t, "k_hi": rec.window_hi,
                     "parametrix_error": rec.abs_error,
                     "tail_bound": rec.tail_bound})
    return rows, ["t", "k_hi", "parametrix_error", "tail_bound"], EXIT_OK


def _run_inverse(config, points):
    fam = config.family()
    elem = config.element()
    mode = config.qt_mode()
    expect_failure = bool(config.data["expect_failure"])
    rows = []
    worst_violation = False
    for t in config.t_grid():
        win = truncation_window(fam, t, config.tail_tol, config.k_cap)
        res = inverse_residual(elem, fam, t, win, mode)
        bound = inverse_residual_bound(elem, fam, t, config.tail_tol, win)
        ok = res <= bound
        status = "ok" if ok else ("expected-failure" if expect_failure else "violation")
        worst_violation = worst_violation or (not ok and not expect_failure)
        points.append({"t": t, "k_lo": win.k_lo, "k_hi": win.k_hi, "status": status})
        rows.append({"t": t, "k_hi": win.k_hi, "residual": res, "bound": bound,
                     "status": status})
    columns = ["t", "k_hi", "residual", "bound", "status"]
    return rows, columns, EXIT_PROPERTY if worst_violation else EXIT_OK


def _run_schur(config, points):
    fam = config.family()
    mode = config.qt_mode()
    max_n, iters, kinds = _schur_settings(config)
    rows = []
    bad = False
    for t in config.t_grid():
        win = truncation_window(fam, t, config.tail_tol, config.k_cap)
        points.append({"t": t, "k_lo": win.k_lo, "k_hi": win.k_hi, "status": "ok"})
        for spec in kernel_specs(kinds, max_n, t, fam, win, mode):
            sb = schur_young_bound(spec)
            est = operator_norm_estimate(spec, iters=iters)
            ok = schur_property_holds(spec, sb, est)
            bad = bad or not ok
            rows.append({"kind": spec.kind, "n": spec.n, "t": t,
                         "schur_bound": sb.bound,
                         "analytic_cap": sb.analytic_cap,
                         "norm_estimate": est.value,
                         "converged": est.converged, "ok": ok})
    columns = ["kind", "n", "t", "schur_bound", "analytic_cap",
               "norm_estimate", "converged", "ok"]
    return rows, columns, EXIT_PROPERTY if bad else EXIT_OK


def _run_continuity(config, points):
    t_lo, t_hi, steps = _continuity_settings(config)
    rows_out = continuity_scan(config.element(), config.family(), (t_lo, t_hi),
                               steps, config.tail_tol, config.k_cap)
    rows = []
    for row in rows_out:
        points.append({"t": row.t, "k_lo": None, "k_hi": None, "status": "ok"})
        rows.append({"t": row.t, "norm": row.norm,
                     "forward_difference": row.forward_difference})
    return rows, ["t", "norm", "forward_difference"], EXIT_OK


def _run_uniform_bound(config, points):
    rows_out = uniform_bound_scan(config.element_list(), config.family(),
                                  config.t_grid(), config.tail_tol,
                                  config.qt_mode(), config.k_cap)
    rows = []
    bad = False
    for row in rows_out:
        points.append({"t": row.t, "k_lo": None, "k_hi": None, "status": "ok"})
        bad = bad or not row.within_cap
        rows.append({"t": row.t, "max_ratio": row.max_ratio,
                     "schur_cap": row.schur_cap, "within_cap": row.within_cap})
    return rows, ["t", "max_ratio", "schur_cap", "within_cap"], \
        EXIT_PROPERTY if bad else EXIT_OK


_DRIVERS = {
    "check-weights": _run_check_weights,
    "norms": _run_norms,
    "parametrix": _run_parametrix,
    "inverse": _run_inverse,
    "schur": _run_schur,
    "continuity": _run_continuity,
    "uniform-bound": _run_uniform_bound,
}


@dataclass
class RunArtifacts:
    report_path: Path
    manifest_path: Path
    exit_code: int
    rows: list


def run_experiment(config: RunConfig, out_dir=None, fmt=None) -> RunArtifacts:
    """Run one experiment; always writes the manifest, even on failure."""
    out = Path(out_dir or config.data["output"]["directory"])
    fmt = fmt or config.data["output"]["format"]
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"{config.experiment}.{fmt}"
    manifest_path = out / "manifest.json"
    points = []
    rows = []
    status = "ok"
    exit_code = EXIT_OK
    trace = None
    started = time.time()
    try:
        rows, columns, exit_code = _DRIVERS[config.experiment](config, points)
        write_report(rows, columns, report_path, fmt)
        if exit_code == EXIT_CONDITION:
            status = "condition-failure"
        elif exit_code == EXIT_PROPERTY:
            status = "property-failure"
    except (WindowResourceError, DivergentIntegralError) as exc:
        status = f"numerical-failure: {exc}"
        exit_code = EXIT_NUMERICAL
    except QdbarError as exc:
        status = f"error: {exc}"
        exit_code = EXIT_INVALID
    except Exception as exc:    # a defect: record it instead of reporting ok
        import traceback        # only on this path: it adds to every start-up
        status = f"internal-error: {type(exc).__name__}: {exc}"
        exit_code = EXIT_INTERNAL
        trace = traceback.format_exc()
    finally:
        manifest = {
            "experiment": config.experiment,
            "config": config.to_dict(),
            "version": __version__,
            "wall_clock_seconds": time.time() - started,
            "status": status,
            "points": points,
            "report": str(report_path) if rows else None,
            "traceback": trace,
        }
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return RunArtifacts(report_path, manifest_path, exit_code, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qdbar",
        description="Quantum disk/annulus d-bar experiments. Columns per "
                    "experiment: norms -> t,k_hi,quantum_norm,classical_norm,"
                    "abs_error,tail_bound; parametrix -> t,k_hi,"
                    "parametrix_error,tail_bound; inverse -> t,k_hi,residual,"
                    "bound,status; schur -> kind,n,t,schur_bound,analytic_cap,"
                    "norm_estimate,converged,ok; continuity -> t,norm,"
                    "forward_difference; uniform-bound -> t,max_ratio,"
                    "schur_cap,within_cap. CSV floats use shortest round-trip "
                    "decimals. Exit codes: 0 ok, 2 condition failure, "
                    "3 numerical failure, 4 property failure, 64/65 config "
                    "syntax/invalid, 70 internal error (details in the "
                    "manifest).")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"qdbar: cannot read config: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    try:
        config = parse_config(text, experiment=args.experiment)
    except ConfigSyntaxError as exc:
        print(f"qdbar: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except ConfigInvalidError as exc:
        print(f"qdbar: {exc}", file=sys.stderr)
        return EXIT_INVALID
    artifacts = run_experiment(config, out_dir=args.out, fmt=args.format)
    print(f"{config.experiment}: {artifacts.report_path} "
          f"(exit {artifacts.exit_code})")
    return artifacts.exit_code


if __name__ == "__main__":
    sys.exit(main())
