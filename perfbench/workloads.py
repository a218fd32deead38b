"""Seeded workload definitions for the qdbar benchmark.

A workload is a fixed list of experiment configs, run back to back by one
single-threaded process (a closed loop).  The seed changes only element
coefficient values, each nonzero template entry replaced by a draw uniform in
[0.5, 1.5]; families, band structure, t-grids and tolerances are fixed, so the
work a run does is the same for every seed.  Configs are emitted as canonical
JSON text, so one seed always gives byte-identical configs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

DISK = {"kind": "unilateral_example"}
ANNULUS = {"kind": "bilateral_rational", "alpha": 1.0, "beta": 0.5}

# Band templates: (side, n, kind, coeffs).  A zero entry is structural and
# stays zero; every nonzero entry is redrawn from the seed.
MIXED5 = [("diag", 0, "poly", [1, 1]), ("f", 1, "poly", [1, 1, 1]),
          ("f", 2, "poly", [1, 1, 1]), ("g", 1, "poly", [1, 1, 1]),
          ("g", 2, "poly", [1, 1, 1])]
G2 = [("g", 2, "poly", [1, 1])]
F2 = [("f", 2, "poly", [0, 1])]   # f_2 = c s, as in the c09 fixture
F1 = [("f", 1, "poly", [1])]
MIXED = [("diag", 0, "poly", [0, 1]), ("f", 1, "sqrt_poly", [1, 1]),
         ("f", 2, "poly", [1, 1]), ("g", 1, "poly", [0, 0, 1]),
         ("g", 2, "poly", [1, 1])]
INVERSE_FIXTURES = [
    [("diag", 0, "poly", [1])],                 # one
    [("f", 1, "sqrt_poly", [1])],               # z
    [("g", 1, "sqrt_poly", [1])],               # zbar
    [("f", 1, "poly", [1, 1]), ("f", 2, "poly", [0, 0, 1]),
     ("f", 3, "poly", [1])],
    [("g", 1, "poly", [1, 1]), ("g", 2, "poly", [0, 1]),
     ("g", 3, "poly", [1, 0, 1])],
    MIXED,
]


class Draw:
    """Coefficient source: one generator, consumed in a fixed order."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def element(self, template):
        return [{"side": side, "n": n, "kind": kind,
                 "coeffs": [float(self.rng.uniform(0.5, 1.5)) if c else 0.0
                            for c in coeffs]}
                for side, n, kind, coeffs in template]


def _geometric(head, ratio, count):
    return {"kind": "geometric", "head": head, "ratio": ratio, "count": count}


def _norms_stream(draw):
    elem = draw.element(MIXED5)
    base = {"experiment": "norms", "element": elem}
    return [
        ("disk", {**base, "family": DISK, "t_grid": _geometric(0.4, 0.5, 4),
                  "truncation": {"tail_tol": 1e-5}}),
        # last window: k in [-7999840, 7999840], four CHUNK blocks
        ("annulus", {**base, "family": ANNULUS,
                     "t_grid": _geometric(0.78125, 0.2, 4),
                     "truncation": {"tail_tol": 1e-5}}),
    ]


def _parametrix_quad(draw):
    elems = {"g2": draw.element(G2), "f2": draw.element(F2)}
    return [(f"{name}-{mode}",
             {"experiment": "parametrix", "family": DISK, "element": elem,
              "qt_kernel": mode, "t_grid": _geometric(0.4, 0.5, 6),
              "truncation": {"tail_tol": 1e-4, "k_cap": 10_000_000}})
            for name, elem in elems.items()
            for mode in ("corrected", "printed")]


def _inverse_ext(draw):
    trunc = {"tail_tol": 1e-6, "k_cap": 10_000_000}
    return [
        # t = 0.238 gives K = 4201677 > elements.CHUNK
        ("mixed-corrected", {"experiment": "inverse", "family": DISK,
                             "element": draw.element(MIXED), "t_grid": [0.238],
                             "qt_kernel": "corrected", "truncation": trunc}),
        ("f1-printed", {"experiment": "inverse", "family": DISK,
                        "element": draw.element(F1), "t_grid": [0.5],
                        "qt_kernel": "printed", "expect_failure": True,
                        "truncation": trunc}),
    ]


def _kernel_bounds(draw):
    grid = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    trunc = {"tail_tol": 1e-3}
    configs = [(f"uniform-{name}",
                {"experiment": "uniform-bound", "family": fam,
                 "elements": [draw.element(t) for t in INVERSE_FIXTURES],
                 "t_grid": grid, "truncation": trunc})
               for name, fam in (("disk", DISK), ("annulus", ANNULUS))]
    configs.append(("schur", {"experiment": "schur", "family": ANNULUS,
                              "t_grid": [0.5, 0.1, 0.01], "truncation": trunc,
                              "qt_kernel": "corrected",
                              "schur": {"max_n": 8, "iters": 600}}))
    configs.append(("check-weights", {
        "experiment": "check-weights", "family": ANNULUS,
        "t_grid": [0.5, 0.25, 0.1, 0.01],
        "weights_check": {"window": [-50_000, 50_000], "tail_index": 25_000}}))
    return configs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Draw], list]


WORKLOADS = {w.name: w for w in (
    Workload("norms-stream",
             "Streaming norm path (lambda_norm_sq over CHUNK blocks, weights "
             "s/weight_sq); no operators code, almost no quadrature, flat "
             "memory.", _norms_stream),
    Workload("parametrix-quad",
             "Parametrix convergence: quadrature (panel_integrals) dominates, "
             "then float64 apply_Qt and quantum_norm; panel node arrays set "
             "peak RSS.", _parametrix_quad),
    Workload("inverse-ext",
             "Extended-precision apply_Qt/apply_Dt/realize_quantum pipeline "
             "on a window larger than CHUNK; memory-bound, no quadrature, no "
             "lambda_norm_sq.", _inverse_ext),
    Workload("kernel-bounds",
             "Hundreds of operators/elements calls on small windows plus "
             "power iteration, so per-call set-up added to win on big "
             "windows shows here.", _kernel_bounds),
)}


def generate(workload: str, seed: int):
    """[(label, config JSON text)] for one workload and seed."""
    return [(label, json.dumps(config, sort_keys=True))
            for label, config in WORKLOADS[workload].build(Draw(seed))]
