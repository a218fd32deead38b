"""Span tracing of qdbar's layers from outside the package.

`instrument` replaces the public functions of each layer (and the
coefficient `__call__` methods) with wrappers that record a span per call:
id, parent id, name, start and end.  Spans stay in memory; `layer_metrics`
turns them into per-name call counts, inclusive time and self time (a span's
duration minus the part of it its child spans cover), plus the work counts
the wrappers collect.  Nothing in the package changes: every replaced
attribute is restored when `instrument` exits.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

MIB = float(1 << 20)
# layers whose allocation peak is tracked with tracemalloc
MEMORY_LAYERS = ("quadrature.", "operators.")
# band-level primitives: the work their weight evaluations are measured against
BAND_PRIMITIVES = ("elements.lambda_norm_sq", "elements.realize_quantum",
                   "elements.quantum_norm", "operators.apply_Qt",
                   "operators.apply_Dt")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def _covered(intervals, start, end):
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_inclusive(spans):
    """layer -> time inside the layer's outermost spans, children included.

    A span counts when no ancestor belongs to the same layer, so nested calls
    within one layer are not counted twice.
    """
    by_id = {s.id: s for s in spans}
    out = defaultdict(float)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        parent = by_id.get(s.parent)
        while parent is not None and not parent.name.startswith(layer + "."):
            parent = by_id.get(parent.parent)
        if parent is None:
            out[layer] += s.end - s.start
    return dict(out)


def self_times(spans):
    """name -> {"calls", "total_s", "self_s"} over a list of spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        rec = out[s.name]
        rec["calls"] += 1
        rec["total_s"] += s.end - s.start
        rec["self_s"] += s.end - s.start - _covered(children[s.id], s.start, s.end)
    return dict(out)


class Tracer:
    """In-memory span recorder with work counters and allocation peaks."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.alloc_peak = defaultdict(float)   # layer -> MiB
        self._stack = []       # [span id, name]
        self._mem_stack = []   # [name, traced at entry, peak floor]
        self._next_id = 0

    def inside(self, prefixes) -> bool:
        return any(name.startswith(prefixes) for _, name in self._stack)

    def _mem_enter(self, name):
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            self._mem_stack[-1][2] = max(self._mem_stack[-1][2], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([name, current, current])

    def _mem_exit(self):
        name, entry, floor = self._mem_stack.pop()
        peak = max(floor, tracemalloc.get_traced_memory()[1])
        layer = name.split(".", 1)[0]
        self.alloc_peak[layer] = max(self.alloc_peak[layer], (peak - entry) / MIB)
        if self._mem_stack:
            self._mem_stack[-1][2] = max(self._mem_stack[-1][2], peak)
        tracemalloc.reset_peak()

    def wrap(self, name, fn, work=None):
        """`fn` recording one span per call; `name` may be a callable of the args."""
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            parent = tracer._stack[-1][0] if tracer._stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            memory = span_name.startswith(MEMORY_LAYERS)
            if memory:
                tracer._mem_enter(span_name)
            tracer._stack.append((sid, span_name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if memory:
                    tracer._mem_exit()
                tracer.spans.append(Span(sid, parent, span_name, start, end))
            if work is not None:
                work(tracer, span_name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# work counters
# ---------------------------------------------------------------------------

def _count_indices(tracer, name, args, kwargs, result):
    if tracer.inside(BAND_PRIMITIVES):
        k = args[2] if len(args) > 2 else kwargs["k"]
        tracer.counts["weights.indices_in_band_primitives"] += int(np.size(k))


def _band_count(elem):
    return sum(1 for _ in elem.bands())


def _element_work(tracer, name, args, kwargs, result):
    window = args[3]
    tracer.counts[f"{name}.band_indices"] += window.size * _band_count(args[0])


def _matrix_work(tracer, name, args, kwargs, result):
    a = args[0]
    tracer.counts[f"{name}.band_indices"] += a.window.size * len(a.bands)


def _panel_integrals_work(tracer, name, args, kwargs, result):
    tracer.counts["quadrature.panels"] += len(result[0])


def _panel_work(tracer, name, args, kwargs, result):
    tracer.counts["quadrature.panels"] += 1


def _power_work(tracer, name, args, kwargs, result):
    tracer.counts["operators.power_iterations"] += result.iterations
    tracer.counts["operators.power_converged"] += int(result.converged)


def _apply_qt_name(elem, family, t, window, mode=None, path="fast",
                   dtype=np.float64):
    return "operators.apply_Qt.f64" if np.dtype(dtype) == np.float64 \
        else "operators.apply_Qt.ld"


# (module, attribute, span name, work counter)
TARGETS = [
    ("qdbar.weights", "WeightFamily.weight_sq", "weights.weight_sq", _count_indices),
    ("qdbar.weights", "WeightFamily.s", "weights.s", _count_indices),
    ("qdbar.weights", "WeightFamily.solve_k_hi", "weights.solve_k_hi", None),
    ("qdbar.weights", "condition_report", "weights.condition_report", None),
    ("qdbar.quadrature", "panel_integrals", "quadrature.panel_integrals",
     _panel_integrals_work),
    ("qdbar.quadrature", "_panel", "quadrature.panel", _panel_work),
    ("qdbar.quadrature", "integrate_with_error",
     "quadrature.integrate_with_error", None),
    ("qdbar.elements", "PowerSum.__call__", "elements.coeff_eval", None),
    ("qdbar.elements", "Transform.__call__", "elements.coeff_eval", None),
    ("qdbar.elements", "truncation_window", "elements.truncation_window", None),
    ("qdbar.elements", "realize_quantum", "elements.realize_quantum", _element_work),
    ("qdbar.elements", "lambda_norm_sq", "elements.lambda_norm_sq", _element_work),
    ("qdbar.elements", "quantum_norm", "elements.quantum_norm", _matrix_work),
    ("qdbar.elements", "classical_norm", "elements.classical_norm", None),
    ("qdbar.operators", "apply_Qt", _apply_qt_name, _element_work),
    ("qdbar.operators", "apply_Dt", "operators.apply_Dt", _matrix_work),
    ("qdbar.operators", "tilde_element", "operators.tilde_element", None),
    ("qdbar.operators", "schur_young_bound", "operators.schur_young_bound", None),
    ("qdbar.operators", "operator_norm_estimate",
     "operators.operator_norm_estimate", _power_work),
    ("qdbar.limits", "norm_convergence", "limits.norm_convergence", None),
    ("qdbar.limits", "parametrix_convergence", "limits.parametrix_convergence", None),
    ("qdbar.limits", "inverse_residual", "limits.inverse_residual", None),
    ("qdbar.limits", "uniform_bound_scan", "limits.uniform_bound_scan", None),
    ("qdbar.cli", "parse_config", "cli.parse_config", None),
    ("qdbar.cli", "write_report", "cli.write_report", None),
    ("qdbar.cli", "run_experiment", "cli.run_experiment", None),
]


@contextmanager
def instrument(tracer: Tracer):
    """Route calls to the TARGETS through `tracer` until the block exits.

    A function is replaced in every qdbar module that holds a reference to
    it, so names imported with `from ... import` are traced too.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "qdbar" or n.startswith("qdbar.")) and m is not None]
    undo = []
    try:
        for module_name, attr, name, work in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, tracer.wrap(name, orig, work))
                undo.append((owner, meth, orig))
                continue
            orig = getattr(module, attr)
            traced = tracer.wrap(name, orig, work)
            for owner in modules:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, key, traced)
                        undo.append((owner, key, orig))
        tracemalloc.start()
        yield tracer
    finally:
        tracemalloc.stop()
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SPAN_METRICS = [
    "weights.weight_sq", "weights.s", "weights.solve_k_hi",
    "weights.condition_report",
    "quadrature.panel_integrals", "quadrature.panel",
    "quadrature.integrate_with_error",
    "elements.coeff_eval", "elements.truncation_window",
    "elements.realize_quantum", "elements.lambda_norm_sq",
    "elements.quantum_norm", "elements.classical_norm",
    "operators.apply_Qt.f64", "operators.apply_Qt.ld", "operators.apply_Dt",
    "operators.tilde_element", "operators.schur_young_bound",
    "operators.operator_norm_estimate",
    "limits.norm_convergence", "limits.parametrix_convergence",
    "limits.inverse_residual", "limits.uniform_bound_scan",
    "cli.parse_config", "cli.write_report", "cli.run_experiment",
]
LAYERS = ["weights", "quadrature", "elements", "operators", "limits", "cli"]
NS_PER_BAND_INDEX = ["elements.lambda_norm_sq", "elements.realize_quantum",
                     "operators.apply_Qt.f64", "operators.apply_Qt.ld",
                     "operators.apply_Dt"]


def metric_units():
    """(metric name, unit) of every per-layer metric, in report order."""
    out = [(f"{layer}.{kind}", "s") for layer in LAYERS
           for kind in ("self_s", "incl_s")]
    for name in SPAN_METRICS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.ns_per_band_index", "ns") for name in NS_PER_BAND_INDEX]
    out += [("weights.evals_per_band_index", "ratio"),
            ("quadrature.panels", "count"),
            ("quadrature.refinements", "count"),
            ("quadrature.alloc_peak_mb", "MiB"),
            ("operators.alloc_peak_mb", "MiB"),
            ("operators.power_iterations", "count"),
            ("operators.power_converged_frac", "ratio"),
            ("trace.overhead_frac", "ratio"),
            ("trace.unattributed_s", "s")]
    return out


def layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer metric values from the spans of the traced passes.

    `traced` and `untraced` are the pass times with and without tracing.
    Counts and times are given per traced pass.
    """
    passes = len(traced)
    stats = self_times(tracer.spans)
    root_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    inclusive = layer_inclusive(tracer.spans)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            rec["self_s"] for name, rec in stats.items()
            if name.startswith(layer + ".")) / passes
        values[f"{layer}.incl_s"] = inclusive.get(layer, 0.0) / passes
    for name in SPAN_METRICS:
        rec = stats.get(name, zero)
        values[f"{name}.calls"] = rec["calls"] / passes
        values[f"{name}.self_s"] = rec["self_s"] / passes
    band_total = 0
    for name in NS_PER_BAND_INDEX:
        work = tracer.counts[f"{name}.band_indices"]
        band_total += work
        values[f"{name}.ns_per_band_index"] = \
            stats.get(name, zero)["total_s"] * 1e9 / work if work else 0.0
    band_total += tracer.counts["elements.quantum_norm.band_indices"]
    evals = tracer.counts["weights.indices_in_band_primitives"]
    power_calls = stats.get("operators.operator_norm_estimate", zero)["calls"]
    values.update({
        "weights.evals_per_band_index": evals / band_total if band_total else 0.0,
        "quadrature.panels": tracer.counts["quadrature.panels"] / passes,
        "quadrature.refinements":
            stats.get("quadrature.integrate_with_error", zero)["calls"] / passes,
        "quadrature.alloc_peak_mb": tracer.alloc_peak["quadrature"],
        "operators.alloc_peak_mb": tracer.alloc_peak["operators"],
        "operators.power_iterations":
            tracer.counts["operators.power_iterations"] / passes,
        "operators.power_converged_frac":
            tracer.counts["operators.power_converged"] / power_calls
            if power_calls else 0.0,
        "trace.overhead_frac":
            statistics.median(traced) / statistics.median(untraced) - 1.0,
        "trace.unattributed_s": (sum(traced) - root_s) / passes,
    })
    return values
