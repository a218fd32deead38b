"""The balanced d-bar operator, its parametrix, and kernel norm bounds.

The quantum operator acts on banded matrices as
D_t a = S^(-1/2) [a, U_w] S^(-1/2); commutation with the weighted shift raises
every band index by one.  Its right inverse under the spectral boundary
conditions acts band-wise through two families of triangular kernels:

* a suffix-sum kernel feeding input band f_(n+1) into output band +n,
* a prefix-sum kernel feeding input band g_(n-1) (the diagonal enters as
  g_0) into output band -n.

Two kernel conventions are implemented.  PRINTED keeps the shifted weight
products with the output-side denominator; CORRECTED places the products and
the denominator so the discrete integration by parts telescopes exactly (the
same placement the g-side kernel uses), which is what makes D_t (Q_t x) = x
hold identically on trusted entries.  The g-side is the same in both modes.
Classically the modes correspond to the kernels r^(n-1)/rho^n and
r^n/rho^(n+1) in the explicit inverse of d-bar.

apply_Qt evaluates each kernel band as one O(K) prefix or suffix scan; the
tests check it against the literal O(K^2) double sums.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elements import (
    BandMatrix, IndexWindow, LambdaElement, PowerSum, Transform, _WindowArrays,
)
from .errors import CapabilityError, ParameterError, WindowResourceError
from .weights import WeightFamily

MAX_BAND = 16  # cap on consecutive-weight product length


class QtKernelMode(Enum):
    CORRECTED = "corrected"
    PRINTED = "printed"


# ---------------------------------------------------------------------------
# the quantum d-bar operator
# ---------------------------------------------------------------------------

def apply_Dt(a: BandMatrix, family: WeightFamily, t: float) -> BandMatrix:
    """S^(-1/2) [a, U_w] S^(-1/2) computed band-wise.

    The commutator entry at (i, j) is w(j) a_(i, j+1) - w(i-1) a_(i-1, j), so
    input band b feeds output band b+1 via

        out_b+1[col] = (w(col) A_b[col+1] - w(col+b) A_b[col]) / mu

    with mu = sqrt(S(col) S(col+b+1)).  Entries that would need neighbours
    beyond the window are zero-padded, and the validity margin grows by one.
    """
    win = a.window
    dtype = np.result_type(*(arr.dtype for arr in a.bands.values())) \
        if a.bands else np.float64
    # w and S over [k_lo - 1, k_hi]: column col sits at position col - k_lo + 1.
    # S(k_lo - 1) is never read; on the disk at t = 1 its masked formula
    # divides by zero.
    with np.errstate(divide="ignore"):
        arrays = _WindowArrays(family, t, win.k_lo - 1, win.k_hi + 1, dtype)
    w, s = arrays.w, arrays.s
    del arrays      # frees w^2, which the commutator does not use
    out = {}
    for c in sorted(a.bands):
        b = c + 1
        lo, hi = win.k_lo + max(0, -b), win.k_hi - max(0, b)
        if lo > hi:
            continue
        i, L = lo - win.k_lo + 1, hi - lo + 1
        in_vals = _band_at(a, c, lo, hi + 1)          # A_c[col]
        in_next = _band_at(a, c, lo + 1, hi + 2)      # A_c[col+1]
        num = w[i:i + L] * in_next - w[i + b - 1:i + b - 1 + L] * in_vals
        mu = np.sqrt(s[i:i + L] * s[i + b:i + b + L])
        acc = num / mu
        out[b] = out.get(b, 0.0) + acc
    return BandMatrix(win, out, valid_margin=a.valid_margin + 1)


def _band_at(a: BandMatrix, b: int, lo: int, stop: int) -> np.ndarray:
    """Band b of `a` sampled at columns [lo, stop), zero-padded outside."""
    blo, bhi = a.band_col_range(b)
    arr = a.bands.get(b)
    out = np.zeros(stop - lo, dtype=arr.dtype if arr is not None else np.float64)
    if arr is None or arr.size == 0:
        return out
    src_lo, src_hi = max(lo, blo), min(stop - 1, bhi)
    if src_lo <= src_hi:
        out[src_lo - lo:src_hi - lo + 1] = arr[src_lo - blo:src_hi - blo + 1]
    return out


# ---------------------------------------------------------------------------
# parametrix kernels
# ---------------------------------------------------------------------------

@dataclass
class _TParts:
    """Separable kernel K(k, i) = a(k) b(i) on i >= k (suffix) or i <= k (prefix)."""

    a: np.ndarray      # output-index factor over the window
    b: np.ndarray      # input-index factor over the window
    nu: np.ndarray     # input-space weight mu_(m_in)(i)
    direction: str     # 'suffix' (T1) or 'prefix' (T2)
    mu: np.ndarray | None = None   # output-space weight mu_(m_out)(k); norm bounds only


def _consecutive_products(w: np.ndarray, length: int):
    """P_0, P_1, ... with P_n[j] = w[j] w[j+1] ... w[j+n-1] for j < length.

    Each product is the previous one times one shifted weight array, so the
    first n products cost O(n length) in total.
    """
    prod = np.ones(length, dtype=w.dtype)
    for n in itertools.count():
        yield prod
        prod = prod * w[n:n + length]


def _t1_parts(arrays, K, n, mode, p_n, p_next) -> _TParts:
    """Suffix kernel l^2_(n+1) -> l^2_n (input band f_(n+1), output band +n).

    `arrays` covers the window from k_lo on; p_n and p_next are the
    consecutive-weight products P_n and P_(n+1) over K + 1 columns.
    """
    if n < 0:
        raise ParameterError("T1 band index must be >= 0")
    s = arrays.s
    nu = np.sqrt(s[:K] * s[n + 1:n + 1 + K])
    if mode is QtKernelMode.CORRECTED:
        a = p_n[:K]                                  # w(k)...w(k+n-1)
        b = 1.0 / p_next[:K]                         # 1/(w(i)...w(i+n))
    else:
        a = p_n[1:K + 1] / arrays.w[n:n + K]
        b = 1.0 / p_n[1:K + 1]                       # 1/(w(i+1)...w(i+n))
    return _TParts(a=a, b=b, nu=nu, direction="suffix")


def _t2_parts(arrays, K, n, p_n) -> _TParts:
    """Prefix kernel l^2_(n-1) -> l^2_n (input band g_(n-1), output band -n)."""
    if n < 1:
        raise ParameterError("T2 band index must be >= 1")
    s = arrays.s
    nu = np.sqrt(s[:K] * s[n - 1:n - 1 + K])
    prod = p_n[:K]                                   # w(j)...w(j+n-1)
    return _TParts(a=1.0 / prod, b=prod / arrays.w[n - 1:n - 1 + K],
                   nu=nu, direction="prefix")


def _scan(vals: np.ndarray, direction: str, out=None) -> np.ndarray:
    """Prefix or suffix cumulative sums of vals, written into `out` if given."""
    if out is None:
        out = np.empty_like(vals)
    if direction == "prefix":
        np.cumsum(vals, out=out)
    else:
        np.cumsum(vals[::-1], out=out[::-1])
    return out


def _t_apply(parts: _TParts, x: np.ndarray) -> np.ndarray:
    """The kernel operator applied to coefficient samples, as one scan."""
    vals = parts.b * parts.nu
    vals *= x
    out = _scan(vals, parts.direction)
    out *= parts.a
    return out


def apply_Qt(elem: LambdaElement, family: WeightFamily, t: float,
             window: IndexWindow, mode: QtKernelMode = QtKernelMode.CORRECTED,
             *, dtype=np.float64) -> BandMatrix:
    """Band-wise parametrix application.

    Input band f_(n+1) produces output band +n (sign flipped); input band
    g_(n-1), with the diagonal fed as g_0, produces output band -n.  Sums run
    over the window: on the disk the prefix sums start at 0 exactly, on the
    annulus the omitted mass below k_lo is controlled by the window's lower
    tail bound.
    """
    if elem.N > MAX_BAND:
        raise WindowResourceError(
            f"element band count N={elem.N} exceeds the kernel product cap {MAX_BAND}",
            needed=elem.N, cap=MAX_BAND)
    K = window.size
    bands = {}
    suffix, prefix = {}, {}     # output band index n -> input coefficient
    for side, m, coeff in elem.bands():
        if side == "f":
            suffix[m - 1] = coeff
        else:                       # diagonal enters as g_0
            prefix[m + 1] = coeff
    if not (suffix or prefix):
        return BandMatrix(window, bands, valid_margin=0)

    top = max([*suffix, *prefix])
    # K + top + 1 indices: P_(top+1) reads w up to position top + K
    arrays = _WindowArrays(family, t, window.k_lo, window.k_hi + top + 2, dtype)
    svals = arrays.w_sq[:K]
    products = _consecutive_products(arrays.w, K + 1)
    p_n = next(products)
    for n in range(top + 1):
        p_next = next(products)
        if n in suffix:
            vals = _t_apply(_t1_parts(arrays, K, n, mode, p_n, p_next),
                            suffix[n](svals))
            bands[n] = np.negative(vals, out=vals)[:K - n]
        if n in prefix:
            bands[-n] = _t_apply(_t2_parts(arrays, K, n, p_n),
                                 prefix[n](svals))[:K - n]
        p_n = p_next
    return BandMatrix(window, bands, valid_margin=0)


# ---------------------------------------------------------------------------
# the classical operator and parametrix image
# ---------------------------------------------------------------------------

def apply_D0(elem: LambdaElement, family: WeightFamily) -> LambdaElement:
    """The d-bar operator on coefficient functions at t = 0.

    f-band n maps to f-band n+1 with coefficient sqrt(s) f' - (n/(2 sqrt(s))) f
    (the diagonal acts as f_0); g-band n maps to g-band n-1 with coefficient
    sqrt(s) g' + (n/(2 sqrt(s))) g, the n = 1 image landing on the diagonal.

    PowerSum and Transform coefficients are each closed under derivative,
    half-power shift, scaling and addition, so the image is exact algebra of
    the same type and can be mapped again.  A plain callable coefficient has
    no derivative and raises CapabilityError.
    """
    f_out, g_out, diag_out = {}, {}, None
    for side, n, coeff in elem.bands():
        if not isinstance(coeff, (PowerSum, Transform)):
            raise CapabilityError(f"coefficient on {side}-band {n} has no derivative")
        sign = -1.0 if side in ("f", "diag") else 1.0
        image = coeff.derivative().shift_half_power(1) + \
            coeff.scale(sign * n / 2.0).shift_half_power(-1)
        if image.is_zero():
            continue
        if side in ("f", "diag"):
            f_out[n + 1] = image
        elif n == 1:
            diag_out = image
        else:
            g_out[n - 1] = image
    return LambdaElement(f_bands=f_out, g_bands=g_out, diagonal=diag_out)


def tilde_element(elem: LambdaElement, family: WeightFamily,
                  mode: QtKernelMode = QtKernelMode.CORRECTED) -> LambdaElement:
    """The classical parametrix image as an element of closed-form transforms.

    g-side (mode independent):  gtilde_n(s) = s^(-n/2) int_{w_-^2}^{s} g_(n-1)(u) u^((n-1)/2) du
    f-side, PRINTED:   -s^((n-1)/2) int_s^{w_+^2} f_(n+1)(u) u^(-n/2) du
    f-side, CORRECTED: -s^(n/2)     int_s^{w_+^2} f_(n+1)(u) u^(-(n+1)/2) du

    Each integrand is a half-power sum, so every coefficient is a Transform
    P(s) + Q(s) log s built from its antiderivative (Q is nonzero only where
    the integrand has u^(-1)), and apply_D0 maps it back exactly.  On the
    disk a g-side integrand with a power of u at or below u^(-1) diverges at
    w_-^2 = 0 and raises DivergentIntegralError.
    """
    lo2, hi2 = family.w_minus**2, family.w_plus**2
    f_out, g_out, diag_out = {}, {}, None
    for side, m, coeff in elem.bands():
        if not isinstance(coeff, PowerSum):
            raise CapabilityError("tilde transforms need polynomial-type coefficients")
        if side == "f":
            n = m - 1
            if mode is QtKernelMode.CORRECTED:
                tr = Transform(prefactor_half_power=n,
                               integrand=coeff.shift_half_power(-(n + 1)),
                               fixed_endpoint=hi2, moving="lower", scale=-1.0)
            else:
                tr = Transform(prefactor_half_power=n - 1,
                               integrand=coeff.shift_half_power(-n),
                               fixed_endpoint=hi2, moving="lower", scale=-1.0)
            if n == 0:
                diag_out = tr
            else:
                f_out[n] = tr
        else:
            n = m + 1
            g_out[n] = Transform(prefactor_half_power=-n,
                                 integrand=coeff.shift_half_power(n - 1),
                                 fixed_endpoint=lo2, moving="upper")
    return LambdaElement(f_bands=f_out, g_bands=g_out, diagonal=diag_out)


# ---------------------------------------------------------------------------
# norm bounds for the kernel operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelOperatorSpec:
    """One of the parametrix band kernels, realized over a window."""

    kind: str              # 'T1' (suffix, l^2_(n+1)->l^2_n) or 'T2' (prefix)
    n: int
    t: float
    family: WeightFamily
    window: IndexWindow

    def parts(self, mode: QtKernelMode) -> _TParts:
        if self.kind not in ("T1", "T2"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        n, K = self.n, self.window.size
        arrays = _WindowArrays(self.family, self.t, self.window.k_lo,
                               self.window.k_hi + max(n, 0) + 2)
        products = _consecutive_products(arrays.w, K + 1)
        for _ in range(n):
            next(products)
        p_n = next(products)
        if self.kind == "T1":
            parts = _t1_parts(arrays, K, n, mode, p_n, next(products))
        else:
            parts = _t2_parts(arrays, K, n, p_n)
        parts.mu = np.sqrt(arrays.s[:K] * arrays.s[n:n + K])
        return parts


@dataclass(frozen=True)
class SchurBound:
    """Schur test result between the weighted sequence spaces."""

    bound: float           # sqrt(row_sup * col_sup)
    row_sup: float         # sup_k sum_i nu(i) |K(k, i)|
    col_sup: float         # sup_i sum_k mu(k) |K(k, i)|
    analytic_cap: float    # t-independent cap from the telescoping estimates
    rows: np.ndarray
    cols: np.ndarray


def schur_analytic_cap(family: WeightFamily) -> float:
    """t-independent kernel-norm cap 2 (w_+ - w_-) wconst^(1/4).

    Follows from sum_k S(k)/w(k) <= 2 (w_+ - w_-)  (w_- = 0 on the disk) plus
    one weight-ratio transfer, applied to both Schur factors.
    """
    return 2.0 * (family.w_plus - family.w_minus) * family.wconst_analytic() ** 0.25


def schur_young_bound(spec: KernelOperatorSpec,
                      mode: QtKernelMode = QtKernelMode.CORRECTED) -> SchurBound:
    """Row/column Schur test on the realized kernel, weights made explicit.

    For T between weighted spaces the test reads
    ||T||^2 <= (sup_k sum_i nu(i)|K|) (sup_i sum_k mu(k)|K|); the separable
    kernel makes both sums single scans.
    """
    p = spec.parts(mode)
    rows = p.a * _scan(p.nu * p.b, p.direction)
    other = "prefix" if p.direction == "suffix" else "suffix"
    cols = p.b * _scan(p.mu * p.a, other)
    row_sup = float(np.max(rows)) if rows.size else 0.0
    col_sup = float(np.max(cols)) if cols.size else 0.0
    return SchurBound(bound=float(np.sqrt(row_sup * col_sup)),
                      row_sup=row_sup, col_sup=col_sup,
                      analytic_cap=schur_analytic_cap(spec.family),
                      rows=rows, cols=cols)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    converged: bool
    iterations: int
    last_rel_change: float


def operator_norm_estimate(spec: KernelOperatorSpec,
                           mode: QtKernelMode = QtKernelMode.CORRECTED,
                           iters: int = 500, rtol: float = 1e-10) -> NormEstimate:
    """Largest singular value of the kernel operator by power iteration.

    Iterates T*T in the correct weighted spaces (via the unitary transfer to
    unweighted l^2), deterministic all-ones seed.  Warns instead of raising
    when the Rayleigh quotient has not settled after `iters` iterations.
    """
    if iters < 1:
        raise ParameterError("iters must be >= 1")
    p = spec.parts(mode)
    out_w = np.sqrt(p.mu) * p.a     # output-side factor, fixed across iterations
    in_w = p.b * np.sqrt(p.nu)      # input-side factor
    other = "prefix" if p.direction == "suffix" else "suffix"
    # every step runs in these three buffers, so it allocates nothing
    v = np.ones(p.a.size)
    u = np.empty_like(v)
    buf = np.empty_like(v)
    v /= np.linalg.norm(v)
    lam = 0.0
    for it in range(1, iters + 1):
        np.multiply(in_w, v, out=u)         # forward: out_w * scan(in_w * v)
        _scan(u, p.direction, out=buf)
        np.multiply(out_w, buf, out=buf)
        np.multiply(out_w, buf, out=u)      # adjoint: in_w * scan(out_w * y)
        _scan(u, other, out=buf)
        np.multiply(in_w, buf, out=u)
        new_lam = float(v @ u)
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            return NormEstimate(0.0, True, it, 0.0)
        np.divide(u, norm_u, out=v)
        rel = abs(new_lam - lam) / max(new_lam, 1e-300)
        lam = new_lam
        if rel <= rtol:
            return NormEstimate(float(np.sqrt(lam)), True, it, rel)
    warnings.warn(f"power iteration did not settle after {iters} iterations "
                  f"(last Rayleigh quotient {lam:.6e}, rel change {rel:.2e})")
    return NormEstimate(float(np.sqrt(lam)), False, iters, rel)
