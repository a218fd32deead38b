"""Dense-matrix recomputations used as independent oracles in tests.

Everything here works on plain K x K numpy arrays built directly from the
defining formulas (shift matrices, explicit triangular kernels, matrix
products), with none of the banded/scan machinery of the package.  Four
oracles use the package's band layout instead: `brute_Qt`, which applies the
parametrix as literal double sums over whole-window kernel factors, with no
block walker; `realized_qt_norm`, the realize-subtract-norm chain the
streamed reducer replaces; `chained_inverse_residual`, the chain of whole
band matrices that `inverse_residual` runs in place; and
`composed_uniform_bound_scan`, the per-element norms that
`uniform_bound_scan` computes on shared walks.
"""

import numpy as np

from qdbar.elements import (
    BandMatrix, lambda_norm_sq, quantum_norm, realize_quantum, truncation_window,
)
from qdbar.limits import UniformBoundRow
from qdbar.operators import (
    KernelOperatorSpec, QtKernelMode, apply_Dt, apply_Qt, qt_norm_sq,
    schur_analytic_cap,
)


def shift_matrix(fam, t, k_lo, k_hi):
    """Weighted shift on the window: entry (k+1, k) = w(k)."""
    K = k_hi - k_lo + 1
    U = np.zeros((K, K))
    cols = np.arange(k_lo, k_hi)
    U[np.arange(1, K), np.arange(K - 1)] = fam.weight(t, cols)
    return U


def dense_realize(elem, fam, t, k_lo, k_hi):
    K = k_hi - k_lo + 1
    A = np.zeros((K, K))
    for b, coeff in elem.bands():
        n = abs(b)
        idx = np.arange(k_lo, k_hi - n + 1)
        vals = coeff(fam.weight_sq(t, idx))
        if b >= 0:
            A[np.arange(n, K), np.arange(K - n)] += vals      # (k+n, k) = f(w(k)^2)
        else:
            A[np.arange(K - n), np.arange(n, K)] += vals      # (j, j+n) = g(w(j)^2)
    return A


def dense_Dt(A, fam, t, k_lo, k_hi):
    ks = np.arange(k_lo, k_hi + 1)
    sm = np.diag(1.0 / np.sqrt(fam.s(t, ks)))
    U = shift_matrix(fam, t, k_lo, k_hi)
    return sm @ (A @ U - U @ A) @ sm


def densify(band_matrix):
    win = band_matrix.window
    K = win.k_hi - win.k_lo + 1
    A = np.zeros((K, K))
    for b, arr in band_matrix.bands.items():
        lo, hi = band_matrix.band_col_range(b)
        cols = np.arange(lo, hi + 1) - win.k_lo
        A[cols + b, cols] = arr
    return A


def _consecutive(W, start, n):
    """prod of W[start], ..., W[start + n - 1] along axis, start an array."""
    out = np.ones(np.shape(start), dtype=float)
    for m in range(n):
        out = out * W[start + m]
    return out


def dense_Qt(elem, fam, t, k_lo, k_hi, mode):
    """Literal double-sum parametrix via explicit masked kernel matrices."""
    K = k_hi - k_lo + 1
    pad = elem.N + 3
    W = fam.weight(t, np.arange(k_lo, k_hi + pad + 1))   # W[j] = w(k_lo + j)
    S = fam.s(t, np.arange(k_lo, k_hi + pad + 1))
    j = np.arange(K)
    svals = fam.weight_sq(t, np.arange(k_lo, k_hi + 1))
    out = np.zeros((K, K))
    upper = np.triu(np.ones((K, K)))   # i >= k
    lower = np.tril(np.ones((K, K)))   # i <= k
    for b, coeff in elem.bands():
        fv = coeff(svals)
        if b > 0:
            n = b - 1
            mu_in = np.sqrt(S[j] * S[j + n + 1])
            if mode is QtKernelMode.CORRECTED:
                kern = np.outer(_consecutive(W, j, n), 1.0 / _consecutive(W, j, n + 1))
            else:
                kern = np.outer(_consecutive(W, j + 1, n) / W[j + n],
                                1.0 / _consecutive(W, j + 1, n))
            F = (kern * upper) @ (mu_in * fv)
            rows = np.arange(n, K)
            out[rows, rows - n] += -F[:rows.size]
        else:
            n = 1 - b
            mu_in = np.sqrt(S[j] * S[j + n - 1])
            prod = _consecutive(W, j, n)
            kern = np.outer(1.0 / prod, prod / W[j + n - 1])
            G = (kern * lower) @ (mu_in * fv)
            rows = np.arange(K - n)
            out[rows, rows + n] += G[:rows.size]
    return out


def t_apply_brute(parts, x):
    """Literal triangular double sum out[k] = a(k) sum_i b(i) nu(i) x(i), O(K^2)."""
    weighted = parts.b * parts.nu * x
    K = x.size
    out = np.empty(K, dtype=weighted.dtype)
    if parts.direction == "prefix":
        for k in range(K):
            out[k] = parts.a[k] * weighted[:k + 1].sum()
    else:
        for k in range(K):
            out[k] = parts.a[k] * weighted[k:].sum()
    return out


def brute_Qt(elem, fam, t, win, mode):
    """apply_Qt as whole-window double sums: input band b > 0 through the
    suffix kernel T1 of index b - 1 (sign flipped), b <= 0 through the prefix
    kernel T2 of index 1 - b."""
    K = win.size
    svals = fam.weight_sq(t, np.arange(win.k_lo, win.k_hi + 1))
    bands = {}
    for b, coeff in elem.bands():
        n = abs(b - 1)
        parts = KernelOperatorSpec("T1" if b > 0 else "T2", n, t, fam, win, mode).parts
        out = t_apply_brute(parts, coeff(svals))[:max(K - n, 0)]
        bands[b - 1] = -out if b > 0 else out
    return BandMatrix(win, bands)


def realized_qt_norm(elem, fam, t, win, mode, minus=None, qt=apply_Qt):
    """|Q_t x - y| through realized band matrices, y = `minus` realized at t."""
    qx = qt(elem, fam, t, win, mode)
    if minus is not None:
        qx = qx - realize_quantum(minus, fam, t, win)
    return quantum_norm(qx, fam, t)


def chained_inverse_residual(elem, fam, t, win, mode):
    """Sup of |D_t(Q_t x) - x| over trusted entries, every stage a band matrix.

    Q_t x stays alive through D_t, and the difference is a fourth band
    matrix from BandMatrix subtraction.  A NaN entry makes the sup NaN.
    """
    qx = apply_Qt(elem, fam, t, win, mode, dtype=np.longdouble)
    back = apply_Dt(qx, fam, t)
    diff = back - realize_quantum(elem, fam, t, win)
    sup = 0.0
    for b in sorted(diff.bands):
        tr = diff.trusted(b)
        if tr.size:
            sup = np.maximum(sup, float(np.max(np.abs(tr))))
    return float(sup)


def composed_uniform_bound_scan(elems, fam, t_grid, tail_tol, mode):
    """uniform_bound_scan element by element: lambda_norm_sq, then qt_norm_sq
    (its own two walks) where the norm is positive."""
    cap = schur_analytic_cap(fam)
    rows = []
    for t in sorted(t_grid, reverse=True):
        win = truncation_window(fam, t, tail_tol)
        worst = 0.0
        for elem in elems:
            norm_sq = lambda_norm_sq(elem, fam, t, win)
            if norm_sq > 0.0:
                qx_norm = float(np.sqrt(qt_norm_sq(elem, fam, t, win, mode)))
                worst = max(worst, qx_norm / float(np.sqrt(norm_sq)))
        rows.append(UniformBoundRow(t=t, max_ratio=worst, schur_cap=cap,
                                    within_cap=worst <= cap * (1 + 1e-12)))
    return rows


def dense_t_hat(spec):
    """Unweighted conjugate of a kernel operator as a dense matrix."""
    p = spec.parts
    K = p.a.size
    mask = np.triu(np.ones((K, K))) if p.direction == "suffix" else np.tril(np.ones((K, K)))
    return np.outer(np.sqrt(p.mu) * p.a, p.b * np.sqrt(p.nu)) * mask
