"""Config-driven experiment runner.

One JSON config describes one experiment run: the weight family, the band
element(s), the t-grid, truncation policy, and kernel convention.  Each run
writes one report (CSV or a JSON mirror with identical fields) plus a
manifest with the echoed config, library version, wall clock, and per-grid-
point window sizes and statuses.  Reports are byte-deterministic: floats are
formatted with their shortest round-trip representation and wall-clock data
lives only in the manifest.

Each experiment is one `Experiment` record in `_TABLE`: its driver, its
report columns, the checker of its own config section and whether it reads
`element`, `elements` or neither.  `parse_config` checks a config through
its record, so a config that parses has the section and elements its driver
reads, and `--help` lists every experiment's columns from the same table.

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
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable

from . import __version__
from .elements import DEFAULT_K_CAP, is_integer, make_element, truncation_window
from .errors import (
    ConfigInvalidError, ConfigSyntaxError, DivergentIntegralError,
    ParameterError, QdbarError, WindowResourceError,
)
from .limits import (
    ContinuityRow, UniformBoundRow, continuity_scan, geometric_grid,
    inverse_residual, inverse_residual_bound, norm_convergence,
    parametrix_convergence, uniform_bound_scan,
)
from .operators import (
    MAX_BAND, QtKernelMode, kernel_specs, operator_norm_estimate,
    schur_property_holds, schur_young_bound,
)
from .weights import Domain, condition_report, make_family

EXIT_OK = 0
EXIT_CONDITION = 2
EXIT_NUMERICAL = 3
EXIT_PROPERTY = 4
EXIT_SYNTAX = 64
EXIT_INVALID = 65
EXIT_INTERNAL = 70

# most t-grid points, continuity steps or schur power iterations a run may
# ask for: with k_cap on its windows, this bounds a run's time and memory
MAX_STEPS = 10_000

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
    settings: tuple | None = None   # the experiment's checked section

    @property
    def experiment(self):
        return self.data["experiment"]

    def family(self):
        spec = self.data["family"]
        return make_family(spec.get("kind"), alpha=spec.get("alpha"),
                           beta=spec.get("beta"), domain=spec.get("domain"))

    def element(self):
        return make_element(self.data["element"])

    def element_list(self):
        specs = self.data.get("elements")
        if not specs:       # absent or empty: the one `element`
            return [self.element()]
        if not isinstance(specs, list):
            raise ParameterError(f"elements must be a list of band specs, got {specs!r}")
        return [make_element(spec, f"elements[{j}]") for j, spec in enumerate(specs)]

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


def _is_positive_int(value) -> bool:
    return is_integer(value) and value > 0


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
            and all(is_integer(k) and abs(k) <= 2**53 for k in window):
        k_lo, k_hi = window
    else:   # beyond 2^53 the float evaluators no longer resolve single indices
        raise ParameterError(
            f"weights_check.window must be two integers within +-2^53, got {window!r}")
    k_lo, k_hi = fam.check_window(k_lo, k_hi)
    if k_hi - k_lo + 1 > config.k_cap:
        raise ParameterError(f"weights_check.window spans {k_hi - k_lo + 1} indices, "
                             f"more than truncation.k_cap = {config.k_cap}")
    tail_index = wc.get("tail_index", max(1, k_hi // 2))
    if not (is_integer(tail_index) and k_lo <= tail_index <= k_hi):
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
    if not (is_integer(max_n) and 0 <= max_n <= MAX_BAND):
        raise ParameterError(f"schur.max_n must be an integer in [0, {MAX_BAND}], got {max_n!r}")
    if not (_is_positive_int(iters) and iters <= MAX_STEPS):
        raise ParameterError(
            f"schur.iters must be an integer in [1, {MAX_STEPS}], got {iters!r}")
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
    if not (is_integer(steps) and 2 <= steps <= MAX_STEPS):
        raise ParameterError(
            f"continuity.steps must be an integer in [2, {MAX_STEPS}], got {steps!r}")
    return float(t_lo), float(t_hi), steps


def _check_grid(grid):
    """Validate a t_grid object in place, sorting explicit values downwards."""
    if not isinstance(grid, dict):
        raise ConfigInvalidError("t_grid must be a list or an object")
    if grid.get("kind") == "explicit":
        values = grid.get("values")
        if not (isinstance(values, list) and 0 < len(values) <= MAX_STEPS
                and all(_is_number(v) and 0 < v < 1 for v in values)):
            raise ConfigInvalidError(
                f"explicit t_grid values must be 1 to {MAX_STEPS} numbers in (0, 1)")
        grid["values"] = sorted(float(v) for v in values)[::-1]
    elif grid.get("kind") == "geometric":
        if not all(_is_number(grid.get(key)) and 0 < grid[key] < 1
                   for key in ("head", "ratio")):
            raise ConfigInvalidError("geometric t_grid head and ratio must be numbers in (0, 1)")
        if not (_is_positive_int(grid.get("count")) and grid["count"] <= MAX_STEPS):
            raise ConfigInvalidError(f"geometric t_grid count must be an integer in "
                                     f"[1, {MAX_STEPS}], got {grid.get('count')!r}")
    else:
        raise ConfigInvalidError("t_grid.kind must be 'geometric' or 'explicit'")


def parse_config(text: str, experiment: str | None = None) -> RunConfig:
    """Parse and validate a JSON run description, filling documented defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalidError("config must be a JSON object")

    data = dict(raw)
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

    if not isinstance(data["expect_failure"], bool):
        raise ConfigInvalidError(
            f"expect_failure must be true or false, got {data['expect_failure']!r}")

    # semantic validation: build every object the driver reads once before running
    exp = _TABLE[data["experiment"]]
    config = RunConfig(data=data)
    if "t_grid" in exp.reads:
        _check_grid(data["t_grid"])
        ts = config.t_grid()
        if not (ts[-1] > 0 and all(a > b for a, b in zip(ts, ts[1:]))):
            raise ConfigInvalidError("t_grid points must be distinct, and a geometric "
                                     f"grid must not underflow to 0, got {ts!r}")
    if not isinstance(data.get("family"), dict):
        raise ConfigInvalidError(f"family must be an object, got {data.get('family')!r}")
    try:
        config.family()
        if exp.section is not None:
            config = replace(config, settings=exp.section(config))
        for key in ("element", "elements"):
            if key not in exp.reads:
                continue
            # element_list falls back to [element] when `elements` is absent
            if key not in data and "element" not in data:
                raise ParameterError(f"config needs an {key!r} band spec")
            elems = config.element_list() if key == "elements" else [config.element()]
            n_max = max(elem.N for elem in elems)
            if n_max > MAX_BAND:
                raise ParameterError(f"element band index N={n_max} exceeds the cap {MAX_BAND}")
        if "qt_kernel" in exp.reads:
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

# A driver takes the parsed config and the manifest's point list, appends one
# point per grid point it finishes, and returns (rows, exit code): each row
# holds its values in the order of the experiment's columns.

def _point(t, k_lo, k_hi, status="ok"):
    """One manifest point: a grid point's window and status."""
    return {"t": t, "k_lo": k_lo, "k_hi": k_hi, "status": status}


def _closed_delta(value, closed):
    return abs(value - closed) if closed is not None else float("nan")


def _run_check_weights(config, points):
    k_lo, k_hi, tail_index = config.settings
    grid = config.t_grid()
    rep = condition_report(config.family(), grid, (k_lo, k_hi), tail_index)
    rows = []
    for i, t in enumerate(grid):
        points.append(_point(t, k_lo, k_hi))
        rows.append((t, rep.h1_values[i], rep.h2_values[i],
                     _closed_delta(rep.h1_values[i], rep.h1_closed[i]),
                     _closed_delta(rep.h2_values[i], rep.h2_closed[i]),
                     rep.h3_closed_cross, rep.trace_deviation[i],
                     rep.trace_tail_bound[i], rep.limit_deviation_hi[i],
                     rep.monotonicity_ok, rep.positivity_ok, rep.const_wratio,
                     abs(rep.const_wratio - rep.const_wratio_identity)))
    return rows, EXIT_CONDITION if rep.violations() else EXIT_OK


def _series_rows(series, points, *fields):
    """Rows (t, k_hi, *fields) of a ConvergenceSeries, one point per record."""
    rows = []
    for rec in series.records:
        points.append(_point(rec.t, rec.window_lo, rec.window_hi))
        rows.append((rec.t, rec.window_hi, *(getattr(rec, f) for f in fields)))
    return rows, EXIT_OK


def _run_norms(config, points):
    series = norm_convergence(config.element(), config.family(), config.t_grid(),
                              config.tail_tol, config.k_cap)
    return _series_rows(series, points, "primary_value", "reference_value",
                        "abs_error", "tail_bound")


def _run_parametrix(config, points):
    series = parametrix_convergence(config.element(), config.family(),
                                    config.t_grid(), config.tail_tol,
                                    config.qt_mode(), config.k_cap)
    return _series_rows(series, points, "abs_error", "tail_bound")


def _run_inverse(config, points):
    fam = config.family()
    elem = config.element()
    mode = config.qt_mode()
    expect_failure = config.data["expect_failure"]
    rows = []
    violation = False
    for t in config.t_grid():
        win = truncation_window(fam, t, config.tail_tol, config.k_cap)
        res = inverse_residual(elem, fam, t, win, mode)
        bound = inverse_residual_bound(elem, fam, t, config.tail_tol, win)
        ok = res <= bound
        status = "ok" if ok else ("expected-failure" if expect_failure else "violation")
        violation = violation or status == "violation"
        points.append(_point(t, win.k_lo, win.k_hi, status))
        rows.append((t, win.k_hi, res, bound, status))
    return rows, EXIT_PROPERTY if violation else EXIT_OK


def _run_schur(config, points):
    fam = config.family()
    mode = config.qt_mode()
    max_n, iters, kinds = config.settings
    rows = []
    bad = False
    for t in config.t_grid():
        win = truncation_window(fam, t, config.tail_tol, config.k_cap)
        points.append(_point(t, win.k_lo, win.k_hi))
        for spec in kernel_specs(kinds, max_n, t, fam, win, mode):
            sb = schur_young_bound(spec)
            est = operator_norm_estimate(spec, iters=iters)
            ok = schur_property_holds(spec, sb, est)
            bad = bad or not ok
            rows.append((spec.kind, spec.n, t, sb.bound, sb.analytic_cap,
                         est.value, est.converged, ok))
    return rows, EXIT_PROPERTY if bad else EXIT_OK


def _scan_rows(scan, points):
    """The rows of a limits scan, whose fields are the report columns; its
    manifest points carry no window."""
    points.extend(_point(row.t, None, None) for row in scan)
    return [astuple(row) for row in scan]


def _run_continuity(config, points):
    t_lo, t_hi, steps = config.settings
    scan = continuity_scan(config.element(), config.family(), (t_lo, t_hi),
                           steps, config.tail_tol, config.k_cap)
    return _scan_rows(scan, points), EXIT_OK


def _run_uniform_bound(config, points):
    scan = uniform_bound_scan(config.element_list(), config.family(),
                              config.t_grid(), config.tail_tol,
                              config.qt_mode(), config.k_cap)
    exit_code = EXIT_OK if all(row.within_cap for row in scan) else EXIT_PROPERTY
    return _scan_rows(scan, points), exit_code


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment: its driver, its report columns, the checker of its
    own config section (config -> the settings tuple its driver reads back)
    and the other config keys its driver reads, which parse_config checks:
    "t_grid", "qt_kernel", and "element" (RunConfig.element) or "elements"
    (RunConfig.element_list)."""

    driver: Callable
    columns: tuple
    section: Callable | None = None
    reads: tuple = ()


_TABLE = {
    "check-weights": Experiment(
        _run_check_weights,
        ("t", "h1", "h2", "h1_closed_delta", "h2_closed_delta",
         "h3_closed_delta_max", "trace_deviation", "trace_tail_bound",
         "limit_deviation_hi", "monotone", "positive", "wconst",
         "wconst_identity_delta"),
        section=_weights_check_settings, reads=("t_grid",)),
    "norms": Experiment(
        _run_norms, ("t", "k_hi", "quantum_norm", "classical_norm", "abs_error",
                     "tail_bound"), reads=("t_grid", "element")),
    "parametrix": Experiment(
        _run_parametrix, ("t", "k_hi", "parametrix_error", "tail_bound"),
        reads=("t_grid", "qt_kernel", "element")),
    "inverse": Experiment(
        _run_inverse, ("t", "k_hi", "residual", "bound", "status"),
        reads=("t_grid", "qt_kernel", "element")),
    "schur": Experiment(
        _run_schur, ("kind", "n", "t", "schur_bound", "analytic_cap",
                     "norm_estimate", "converged", "ok"), section=_schur_settings,
        reads=("t_grid", "qt_kernel")),
    "continuity": Experiment(
        _run_continuity, tuple(f.name for f in fields(ContinuityRow)),
        section=_continuity_settings, reads=("element",)),
    "uniform-bound": Experiment(
        _run_uniform_bound, tuple(f.name for f in fields(UniformBoundRow)),
        reads=("t_grid", "qt_kernel", "elements")),
}

EXPERIMENTS = tuple(_TABLE)


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
        exp = _TABLE[config.experiment]
        values, exit_code = exp.driver(config, points)
        rows = [dict(zip(exp.columns, row)) for row in values]
        write_report(rows, exp.columns, report_path, fmt)
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
                    "experiment: " + "; ".join(
                        f"{name} -> {', '.join(exp.columns)}"
                        for name, exp in _TABLE.items())
                    + ". CSV floats use shortest round-trip decimals. Exit "
                    "codes: 0 ok, 2 condition failure, 3 numerical failure, "
                    "4 property failure, 64/65 config syntax/invalid (64 also "
                    "for an unreadable config or unwritable output), 70 "
                    "internal error (details in the manifest).")
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
    try:
        artifacts = run_experiment(config, out_dir=args.out, fmt=args.format)
    except OSError as exc:      # the output directory could not be made or written
        print(f"qdbar: cannot write output: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    print(f"{config.experiment}: {artifacts.report_path} "
          f"(exit {artifacts.exit_code})")
    return artifacts.exit_code


if __name__ == "__main__":
    sys.exit(main())
