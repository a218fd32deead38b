"""Print stable SHA-256 digests of qdbar's outputs, one line per item.

Two trees give the same output exactly when their results are bitwise
identical, so one `diff` of two runs settles a refactor:

    python3 tools/output_digest.py > a.txt        # in one checkout
    python3 tools/output_digest.py > b.txt        # in the other
    diff a.txt b.txt

Five parts, printed in this order:

* `workloads`: the report and the manifest of every config of the
  benchmark's workloads (`perfbench/workloads.py`, imported, never edited)
  for seeds 1-3.  The manifest loses `wall_clock_seconds` and the report's
  directory, the only fields that change from run to run.
* `bands`: the band bytes of `realize_quantum`, `apply_Qt` (both kernel
  modes, float64 and longdouble) and `apply_Dt` (of each of those) on the
  test fixtures and seeded random elements, for three families.  An x87
  longdouble entry contributes its 10 value bytes, not its uninitialized
  padding.
* `inverse`: the `inverse_residual` floats of the six inverse fixtures,
  three families, three t and both modes, printed as `repr`.
* `norms`: the streamed norms as `repr` floats, for three families at
  t = 0.5 and at t = 0.05 with tail 1e-4, whose windows of about 2e5
  indices span several blocks: `lambda_norm_sq` and `qt_norm_sq` (both
  modes, alone and less the realized `tilde_element`) of every element of
  the band part, and the rows of `uniform_bound_scan` over all of them.
* `windows`: k_lo, k_hi and both tail bounds (`repr`) of
  `truncation_window` for three families, t in {0.5, 1e-2, 1e-4} and tail
  in {1e-3, 1e-6, 1e-9, 1e-10}, with the cap at 2^53 so the windows of
  up to 1e14 indices are solved, never walked.

qdbar is imported from `src/` next to this directory.  On 2 CPUs the
workloads take about 20 s, and the other four parts together as long.
The output does not depend on the number of CPUs: pinned to one
(`taskset -c 0`), which forces the block walks onto one worker, the
script prints the same lines as on two.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from qdbar import cli  # noqa: E402
from qdbar.elements import lambda_norm_sq, realize_quantum, truncation_window  # noqa: E402
from qdbar.limits import inverse_residual, uniform_bound_scan  # noqa: E402
from qdbar.operators import (  # noqa: E402
    QtKernelMode, apply_Dt, apply_Qt, qt_norm_sq, tilde_element,
)
from qdbar.weights import make_family  # noqa: E402

SEEDS = (1, 2, 3)
MODES = (QtKernelMode.CORRECTED, QtKernelMode.PRINTED)
# x87 extended precision: 64-bit significand in 10 of the 16 stored bytes
X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize > 10


def families():
    return {"disk": make_family("unilateral_example"),
            "rational": make_family("bilateral_rational", alpha=1.0, beta=0.5),
            "arctan": make_family("bilateral_arctan", alpha=1.0, beta=0.5)}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def value_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.longdouble and X87:
        return arr.view(np.uint8).reshape(arr.size, arr.itemsize)[:, :10].tobytes()
    return arr.tobytes()


def band_digest(a) -> str:
    h = hashlib.sha256(f"{a.window.k_lo},{a.window.k_hi},{a.valid_margin}".encode())
    for b in sorted(a.bands):
        arr = a.bands[b]
        h.update(f"|{b}:{arr.dtype.str}:{arr.size}|".encode())
        h.update(value_bytes(arr))
    return h.hexdigest()


def workload_lines():
    import workloads
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                for label, text in workloads.generate(name, seed):
                    out = Path(tmp) / f"{name}-{seed}-{label}"
                    art = cli.run_experiment(cli.parse_config(text), out_dir=out)
                    manifest = json.loads(art.manifest_path.read_text())
                    del manifest["wall_clock_seconds"]
                    if manifest["report"] is not None:
                        manifest["report"] = Path(manifest["report"]).name
                    report = sha(art.report_path.read_bytes()) \
                        if art.report_path.is_file() else "none"
                    yield (f"workload {name} seed={seed} {label} exit={art.exit_code} "
                           f"report={report} manifest="
                           f"{sha(json.dumps(manifest, sort_keys=True).encode())}")


def elements():
    from fixtures import inverse_fixtures, random_poly_element
    names = ["one", "z", "zbar", "f_poly", "g_poly", "mixed"]
    out = dict(zip(names, inverse_fixtures()))
    for seed in SEEDS:
        out[f"random{seed}"] = random_poly_element(np.random.default_rng(seed))
    return out


def band_lines():
    elems = elements()
    for fname, fam in families().items():
        for t, tail in ((0.5, 1e-3), (0.2, 1e-3), (0.05, 1e-2), (0.05, 1e-4)):
            win = truncation_window(fam, t, tail)
            for ename, elem in elems.items():
                where = f"{fname} t={t} tail={tail} K={win.size} {ename}"
                x = realize_quantum(elem, fam, t, win)
                yield f"bands {where} realize {band_digest(x)}"
                yield f"bands {where} Dt(realize) {band_digest(apply_Dt(x, fam, t))}"
                for mode in MODES:
                    for dtype in (np.float64, np.longdouble):
                        qx = apply_Qt(elem, fam, t, win, mode, dtype=dtype)
                        tag = f"{mode.value} {np.dtype(dtype).name}"
                        yield f"bands {where} Qt {tag} {band_digest(qx)}"
                        yield (f"bands {where} Dt(Qt) {tag} "
                               f"{band_digest(apply_Dt(qx, fam, t))}")


def inverse_lines():
    elems = list(elements().items())[:6]
    for fname, fam in families().items():
        for t in (0.5, 0.1, 0.05):
            win = truncation_window(fam, t, 1e-4)
            for ename, elem in elems:
                for mode in MODES:
                    res = inverse_residual(elem, fam, t, win, mode)
                    yield f"inverse {fname} t={t} tail=0.0001 {ename} {mode.value} {res!r}"


def norm_lines():
    elems = elements()
    ts = (0.5, 0.05)
    for fname, fam in families().items():
        for t in ts:
            win = truncation_window(fam, t, 1e-4)
            for ename, elem in elems.items():
                where = f"{fname} t={t} tail=0.0001 K={win.size} {ename}"
                yield f"norms {where} lambda {lambda_norm_sq(elem, fam, t, win)!r}"
                for mode in MODES:
                    qx = qt_norm_sq(elem, fam, t, win, mode)
                    y = tilde_element(elem, fam, mode)
                    diff = qt_norm_sq(elem, fam, t, win, mode, minus=y)
                    yield f"norms {where} Qt {mode.value} {qx!r} less-tilde {diff!r}"
        for mode in MODES:
            rows = uniform_bound_scan(list(elems.values()), fam, ts, 1e-4, mode)
            for row in rows:
                yield (f"norms {fname} uniform {mode.value} t={row.t} "
                       f"{row.max_ratio!r} {row.schur_cap!r} {row.within_cap}")


def window_lines():
    for fname, fam in families().items():
        for t in (0.5, 1e-2, 1e-4):
            for tail in (1e-3, 1e-6, 1e-9, 1e-10):
                win = truncation_window(fam, t, tail, k_cap=2**53)
                yield (f"windows {fname} t={t} tail={tail} [{win.k_lo}, {win.k_hi}] "
                       f"{win.tail_bound_lo!r} {win.tail_bound_hi!r}")


def main() -> int:
    for part in (workload_lines, band_lines, inverse_lines, norm_lines, window_lines):
        for line in part():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
