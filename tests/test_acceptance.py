"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances and runtime caps are asserted as stated; fixture elements live in
fixtures.py.
"""

import json
import time

import numpy as np

from dense_oracle import brute_Qt
from fixtures import (
    f1_constant_element, f2_element, g2_element, inverse_fixtures,
    mixed_element, random_poly_element,
)
from qdbar.cli import parse_config, run_experiment
from qdbar.elements import (
    coordinate_element, truncation_window, window_from_range,
)
from qdbar.limits import (
    inverse_residual, inverse_residual_bound, norm_convergence,
    parametrix_convergence, rate_fit, uniform_bound_scan,
)
from qdbar.operators import (
    KernelOperatorSpec, QtKernelMode, apply_D0, apply_Qt,
    operator_norm_estimate, schur_analytic_cap, schur_property_holds,
    schur_young_bound, tilde_element,
)
from qdbar.weights import Domain, condition_report, make_family, s_ratio_margin

CORRECTED = QtKernelMode.CORRECTED
PRINTED = QtKernelMode.PRINTED
T_GRID4 = [0.5, 0.25, 0.1, 0.01]


def disk():
    return make_family("unilateral_example")


def annulus():
    return make_family("bilateral_rational", alpha=1.0, beta=0.5)


def annulus_arctan():
    return make_family("bilateral_arctan", alpha=1.0, beta=0.5)


def report(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_c01_closed_form_moduli():
    started = time.perf_counter()
    fam = disk()
    rep = condition_report(fam, T_GRID4, (0, 10_000), tail_index=5_000)
    worst = 0.0
    for t, h1, h2 in zip(T_GRID4, rep.h1_values, rep.h2_values):
        worst = max(worst, abs(h1 - t / (1.0 + t)))
        worst = max(worst, abs(h2 - 2.0 * t / (1.0 + 2.0 * t)))
    ks = np.arange(0, 10_001, dtype=np.float64)
    h3_ref = 1.0 / (ks + 1.0 + np.sqrt(ks * ks + ks))
    worst = max(worst, float(np.max(np.abs(rep.h3_closed - h3_ref))))
    elapsed = time.perf_counter() - started
    report(1, "closed-form moduli", worst <= 1e-12 and elapsed < 1.0,
           f"max delta {worst:.2e}, {elapsed:.2f}s")


def test_c02_commutation_identity():
    fam = disk()
    ks = np.arange(0, 1001)
    worst = 0.0
    for t in T_GRID4:
        lhs = fam.s(t, ks)
        rhs = t * (1.0 - fam.weight_sq(t, ks - 1)) * (1.0 - fam.weight_sq(t, ks))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(2, "commutation identity", worst <= 1e-14, f"max deviation {worst:.2e}")


def test_c03_trace_identity():
    worst_margin = np.inf
    ok = True
    for fam in (disk(), annulus(), annulus_arctan()):
        k_lo = 0 if fam.domain is Domain.DISK else -20_000
        ks = np.arange(k_lo, 20_001)
        for t in T_GRID4:
            dev = abs(float(np.sum(fam.s(t, ks))) -
                      (fam.w_plus**2 - fam.w_minus**2))
            bound = fam.tail_bound_hi(t, 20_000) + fam.tail_bound_lo(t, k_lo)
            # on the disk the deviation equals the bound analytically, so a
            # rounding allowance of 5e-14 applies
            ok = ok and dev <= bound + 5e-14
            worst_margin = min(worst_margin, bound + 5e-14 - dev)
    report(3, "trace identity", ok, f"min margin {worst_margin:.2e}")


def test_c04_s_ratio_margin():
    started = time.perf_counter()
    worst = np.inf
    for fam in (disk(), annulus(), annulus_arctan()):
        win = (0, 100_000) if fam.domain is Domain.DISK else (-100_000, 100_000)
        for t in (0.5, 0.1, 0.01):
            for n in range(1, 9):
                worst = min(worst, s_ratio_margin(fam, t, n, win))
    elapsed = time.perf_counter() - started
    report(4, "S-ratio margin", worst >= -1e-13 and elapsed < 5.0,
           f"min margin {worst:.2e}, {elapsed:.2f}s")


def test_c05_fast_brute_equivalence():
    started = time.perf_counter()
    elem = random_poly_element(np.random.default_rng(20250811), max_n=4)
    worst = 0.0
    for fam, k_lo in ((disk(), 0), (annulus(), -2000)):
        win = window_from_range(fam, 0.25, k_lo, k_lo + 3999)
        for mode in (CORRECTED, PRINTED):
            fast = apply_Qt(elem, fam, 0.25, win, mode)
            brute = brute_Qt(elem, fam, 0.25, win, mode)
            for b in brute.bands:
                denom = np.abs(brute.band(b))
                rel = np.abs(fast.band(b) - brute.band(b)) / np.where(
                    denom > 0, denom, 1.0)
                worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - started
    report(5, "fast/brute equivalence", worst <= 1e-12 and elapsed < 10.0,
           f"K=4000 max rel diff {worst:.2e}, {elapsed:.1f}s")


def test_c06_inverse_property():
    fam = disk()
    tail = 1e-6
    worst_ratio = 0.0   # residual / bound, should stay <= 1
    for t in (0.5, 0.1):
        win = truncation_window(fam, t, tail)
        for elem in inverse_fixtures():
            res = inverse_residual(elem, fam, t, win, CORRECTED)
            bound = inverse_residual_bound(elem, fam, t, tail, win)
            worst_ratio = max(worst_ratio, res / bound)
    printed_res = inverse_residual(f1_constant_element(), fam, 0.5,
                                   truncation_window(fam, 0.5, tail), PRINTED)
    ok = worst_ratio <= 1.0 and printed_res >= 0.1
    report(6, "inverse property", ok,
           f"corrected worst residual/bound {worst_ratio:.3f}, "
           f"printed f-side residual {printed_res:.3f} (expected failure >= 0.1)")


def test_c07_classical_inverse():
    started = time.perf_counter()
    worst = 0.0
    for fam in (disk(), annulus()):
        lo, hi = fam.w_minus**2, fam.w_plus**2
        span = hi - lo
        s = np.linspace(lo + 1e-3 * span, hi - 1e-3 * span, 100)
        for elem in inverse_fixtures():
            back = apply_D0(tilde_element(elem, fam, CORRECTED), fam)
            for b, coeff in elem.bands():
                got = back.by_band[b](s)
                worst = max(worst, float(np.max(np.abs(got - coeff(s)))))
    elapsed = time.perf_counter() - started
    report(7, "classical inverse", worst <= 1e-9 and elapsed < 5.0,
           f"max pointwise residual {worst:.2e}, {elapsed:.1f}s")


def test_c08_norm_convergence():
    started = time.perf_counter()
    grid = [0.2 * 0.5**j for j in range(8)]
    ok = True
    details = []
    for fam in (disk(), annulus()):
        for name, elem in (("zbar", coordinate_element("zbar")),
                           ("mixed", mixed_element())):
            series = norm_convergence(elem, fam, grid, tail_tol=1e-5,
                                      k_cap=100_000_000)
            errs = [r.abs_error for r in series.records]
            decreasing = all(b < a for a, b in zip(errs, errs[1:]))
            fit = rate_fit(series, drop_head=1, exclude_tail_floor=False)
            ok = ok and decreasing and 0.7 <= fit.slope <= 1.3
            details.append(f"{name}/{fam.kind.value.split('_')[0]}:"
                           f" slope {fit.slope:.2f} dec {decreasing}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(8, "norm convergence", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_c09_parametrix_convergence():
    started = time.perf_counter()
    grid = [0.2 * 0.5**j for j in range(7)]   # 64x reduction in t
    fam = disk()
    ok = True
    details = []
    for name, elem in (("g2", g2_element()), ("f2", f2_element())):
        for mode in (CORRECTED, PRINTED):
            series = parametrix_convergence(elem, fam, grid, tail_tol=1e-4,
                                            mode=mode, k_cap=10_000_000)
            errs = [r.abs_error for r in series.records]
            ratio = errs[-1] / errs[0]
            fit = rate_fit(series, drop_head=1, exclude_tail_floor=False)
            ok = ok and ratio <= 0.25 and 0.4 <= fit.slope <= 1.2
            details.append(f"{name}/{mode.value}: ratio {ratio:.3f} "
                           f"slope {fit.slope:.2f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    report(9, "parametrix convergence", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_c10_uniform_boundedness():
    started = time.perf_counter()
    grid = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    ok = True
    worst_ratio = 0.0
    for fam in (disk(), annulus()):
        rows = uniform_bound_scan(inverse_fixtures(), fam, grid, tail_tol=1e-4)
        cap = schur_analytic_cap(fam)
        for row in rows:
            ok = ok and row.max_ratio <= cap
            worst_ratio = max(worst_ratio, row.max_ratio / cap)
    # power-iteration kernel norms against their Schur bounds
    worst_excess = 0.0
    for fam in (disk(), annulus()):
        for t in (0.5, 0.1, 0.01):
            win = truncation_window(fam, t, 1e-2)
            for mode in (CORRECTED, PRINTED):
                for kind, n_lo in (("T1", 0), ("T2", 1)):
                    if kind == "T2" and mode is PRINTED:
                        continue   # prefix kernel is mode independent
                    for n in range(n_lo, 9):
                        spec = KernelOperatorSpec(kind=kind, n=n, t=t, family=fam,
                                                  window=win, mode=mode)
                        sb = schur_young_bound(spec)
                        est = operator_norm_estimate(spec, iters=600)
                        worst_excess = max(worst_excess,
                                           est.value / sb.bound if sb.bound else 0.0)
                        ok = ok and schur_property_holds(spec, sb, est)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(10, "uniform boundedness", ok,
           f"max Q-ratio/cap {worst_ratio:.3f}, max power-iter/bound "
           f"{worst_excess:.3f}, {elapsed:.1f}s")


def test_c11_fast_path_performance():
    fam = disk()
    t = 0.01
    win = window_from_range(fam, t, 0, 10_000_000 - 1)
    spec = [{"side": "diag", "n": 0, "kind": "poly", "coeffs": [1.0, 0.5]}]
    for n in range(1, 5):
        spec.append({"side": "f", "n": n, "kind": "poly",
                     "coeffs": [1.0, 0.5, 0.25]})
        spec.append({"side": "g", "n": n, "kind": "poly", "coeffs": [0.5, 1.0]})
    from qdbar.elements import make_element
    elem = make_element(spec)
    started = time.perf_counter()
    out = apply_Qt(elem, fam, t, win, CORRECTED)
    elapsed = time.perf_counter() - started
    n_entries = sum(arr.size for arr in out.bands.values())
    report(11, "fast-path performance",
           elapsed <= 5.0 and n_entries >= 9 * (win.size - 6),
           f"K=1e7, N=4: {elapsed:.2f}s, {n_entries} band entries "
           "(one array pass per band)")


def test_c12_determinism(tmp_path):
    raw = json.dumps({
        "family": {"kind": "unilateral_example"},
        "element": [{"side": "g", "n": 1, "kind": "sqrt_poly", "coeffs": [1.0]}],
        "experiment": "norms",
        "t_grid": {"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": 5},
        "truncation": {"tail_tol": 1e-5}})
    a = run_experiment(parse_config(raw), out_dir=tmp_path / "a")
    b = run_experiment(parse_config(raw), out_dir=tmp_path / "b")
    same = a.report_path.read_bytes() == b.report_path.read_bytes()
    raw2 = json.dumps({
        "family": {"kind": "bilateral_rational", "alpha": 1.0, "beta": 0.5},
        "experiment": "check-weights",
        "t_grid": [0.5, 0.25, 0.1, 0.01],
        "weights_check": {"window": [-5000, 5000], "tail_index": 2500}})
    c = run_experiment(parse_config(raw2), out_dir=tmp_path / "c")
    d = run_experiment(parse_config(raw2), out_dir=tmp_path / "d")
    same = same and c.report_path.read_bytes() == d.report_path.read_bytes()
    same = same and c.exit_code == 0
    report(12, "determinism", same, "re-runs byte-identical (norms, check-weights)")
