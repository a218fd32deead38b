"""The balanced d-bar operator, its parametrix, and kernel norm bounds.

Bands carry the signed index b of BandMatrix and LambdaElement: b > 0 is
the f-band f_b, b < 0 the g-band g_|b| and b = 0 the diagonal.  The quantum
operator acts on banded matrices as D_t a = S^(-1/2) [a, U_w] S^(-1/2);
commutation with the weighted shift raises every band index by one, and so
does the classical d-bar operator D_0.  Its right inverse under the spectral
(APS) boundary conditions lowers every band index by one, through a
triangular kernel whose summation boundary follows the sign of the output
band b - 1:

* output bands >= 0 sum from the outer end (a suffix-sum kernel),
* output bands < 0 sum from the inner end (a prefix-sum kernel).

Two kernel conventions are implemented.  PRINTED keeps the shifted weight
products with the output-side denominator; CORRECTED places the products and
the denominator so the discrete integration by parts telescopes exactly (the
same placement the g-side kernel uses), which is what makes D_t (Q_t x) = x
hold identically on trusted entries.  The g-side is the same in both modes.
Classically the modes correspond to the kernels r^(n-1)/rho^n and
r^n/rho^(n+1) in the explicit inverse of d-bar.

Q_t runs on the ordered block driver of qdbar.elements in two sweeps: the
prefix bands bottom-up and the suffix bands top-down.  Each block shares one
set of weight arrays and consecutive-weight products among its bands, and
each band scans the block with the running sum of the block before it in
its sweep (the carry) folded into its first summand.  The additions are
then exactly those of one whole-window cumulative sum, so the result does
not depend on the block size.  One walk, _qt_walks, drives both sweeps of
any number of elements, and every consumer of Q_t runs on it with a working
set of O(BLOCK x bands) per worker: apply_Qt copies each block into its
output bands, qt_norm_sq reduces it to a norm of Q_t x (less a realized
element), norm_pairs_sq reduces the sweeps of many elements and their
quantum norms on one walk per direction, and dt_qt_residual applies D_t to
it.  The tests check apply_Qt against the literal O(K^2) double sums and
qt_norm_sq against the realized band matrices.

The walk runs on two workers where the process may use two CPUs: the
caller and one thread, each with its own buffers, taking blocks in walk
order.  A block's weights, products, kernel factors, coefficient samples
and summands depend on no other block.  Only the scan does, so each band
waits for the block before's carry and edge entry (the entry D_t reads
across the block edge), scans, hands its own on and is then reduced while
the other worker goes on.  The consumers add up the blocks' partials in
walk order, so every output is the same float at one worker or two.

D_t maps each band to the next one alone, and _dt_band is its per-band
formula: apply_Dt runs it on whole band matrices, and dt_qt_residual (the
inverse residual of qdbar.limits) on each block of a Q_t sweep, so
D_t(Q_t x) - x is reduced to its sup with no band matrix realized.

A worker's buffers (weights, products, kernel factors, scan values) are
allocated once per walk and refilled block by block, so the values a walk
hands a consumer for one block are valid only until its worker moves on.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import elements
from .elements import (
    BandMatrix, IndexWindow, LambdaElement, PowerSum, Transform, _NormSums,
    _sample, _WindowArrays, band_weight,
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

    with mu = sqrt(S(col) S(col+b+1)).  An input band b >= 0 holds exactly
    the entries its output band reads; a g-band (b < 0) reads one entry
    beyond each window edge, taken as zero, and the validity margin grows by
    one.  Each output band is computed in place in the array that stores it.
    """
    win, K = a.window, a.window.size
    dtype = np.result_type(*(arr.dtype for arr in a.bands.values())) \
        if a.bands else np.float64
    # w and S over [k_lo - 1, k_hi]: column col sits at position col - k_lo + 1.
    # S(k_lo - 1) is never read; on the disk at t = 1 its masked formula
    # divides by zero.
    with np.errstate(divide="ignore"):
        arrays = _WindowArrays(family, t, K + 1, dtype).fill(win.k_lo - 1, win.k_hi + 1)
    w, s = arrays.w, arrays.s
    del arrays      # frees w^2, which the commutator does not use
    scratch = np.empty(K, dtype=dtype)
    out = {}
    for c, arr in sorted(a.bands.items()):
        L = K - abs(c + 1)
        if L <= 0:
            continue
        arr = np.pad(arr, 1) if c < 0 else arr   # g-side: zeros beyond both edges
        # the output band's first column sits at position max(1, -c) of w and s
        out[c + 1] = _dt_band(c, arr, w, s, max(1, -c), L, scratch[:L])
    return BandMatrix(win, out, valid_margin=a.valid_margin + 1)


def _dt_band(c, a, w, s, i, L, scratch, out=None):
    """D_t's output band c + 1 at L columns, from input band c.

    Output entry j is at the column col whose w and S sit at w[i + j] and
    s[i + j]; it reads input band c at col from a[j] and at col + 1 from
    a[j + 1]:  (w(col) A_c[col+1] - w(col+c) A_c[col]) / sqrt(S(col) S(col+c+1)).
    `scratch` has L entries; the values go into `out` when given.
    """
    vals = np.multiply(w[i:i + L], a[1:L + 1], out=out)
    vals -= np.multiply(w[i + c:i + c + L], a[:L], out=scratch)
    vals /= band_weight(s, i, c + 1, L, out=scratch)
    return vals


def dt_qt_residual(elem: LambdaElement, family: WeightFamily, t: float,
                   window: IndexWindow, mode: QtKernelMode) -> float:
    """Sup of |D_t(Q_t x) - x| over trusted entries, streamed in longdouble.

    Runs on the Q_t walk: D_t maps Q_t band c to band c + 1 alone, so each
    block of a Q_t band gives that block's entries of D_t(Q_t x), less x
    sampled from float64 w^2 as realize_quantum samples it.  The one
    neighbour D_t reads across a block edge belongs to the block before it
    in its sweep and is handed on with the scan's carry: A_c[col] below the
    block for c < 0, A_c[col + 1] above it for c >= 0; w(col + c) below it
    is in the walk's weights, which start one index below the block.  An
    entry is trusted one index or more from either end of its band, and
    only trusted entries are computed.  Each block's sup is taken on the
    worker that walks it, and np.maximum combines them, which is exact and
    keeps a NaN: the sup is NaN when any trusted entry is NaN, otherwise
    the float of apply_Dt, realize_quantum and BandMatrix.trusted chained
    over whole band matrices, at one worker or two.
    """
    K = window.size
    n = min(elements.BLOCK, K)
    steps = np.arange(n, dtype=np.float64)

    def reduce(rows):
        dt, scratch = rows[:2]          # D_t of a band's block and its scratch
        w_sq = np.empty(n)              # float64 w^2 of the block
        # x and its work array in the bytes of the scratch row, which is
        # spent once D_t is computed, where they fit (80-bit longdouble)
        spare = scratch.view(np.float64)
        x, work = (spare[:n], spare[n:2 * n]) if spare.size >= 2 * n else np.empty((2, n))

        def block(suffix, i, L, arrays, outputs):
            k = np.add(steps[:L], window.k_lo + i, out=x[:L])     # exact integers
            family.weight_sq(t, k, out=w_sq[:L], work=work[:L])
            sup = 0.0
            for _, c, _, a in outputs:
                # entry j at position i + j; trusted positions [1, K - |c + 1| - 1);
                # its column's w and S sit at w[j + max(1, -c)]
                lo, hi = max(i, 1) - i, min(L, K - abs(c + 1) - 1 - i)
                size = hi - lo
                if size <= 0:
                    continue
                d = _dt_band(c, a[lo:], arrays.w, arrays.s, lo + max(1, -c), size,
                             scratch[:size], out=dt[:size])
                d -= _sample(elem.by_band[c + 1], w_sq[lo:hi], x[:size], work[:size])
                sup = np.maximum(sup, np.max(np.abs(d, out=d)))   # keeps a NaN
            return sup
        return block

    sup = 0.0
    for part in _qt_walks([elem], family, t, window, mode, np.longdouble, reduce):
        sup = np.maximum(sup, part)
    return float(sup)


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


def _consecutive_products(w: np.ndarray, length: int, out: np.ndarray):
    """P_0, P_1, ... with P_n[j] = w[j] w[j+1] ... w[j+n-1] for j < length.

    Each product is the previous one times one shifted weight array, so the
    first n products cost O(n length) in total.  They alternate between the
    two arrays (or rows) of `out`, so only the last two yielded stay valid.
    """
    out[0].fill(1.0)
    yield out[0]
    for n in itertools.count():
        np.multiply(out[n % 2], w[n:n + length], out=out[(n + 1) % 2])
        yield out[(n + 1) % 2]


def _t1_parts(w, s, K, n, mode, p_n, p_next, work=(None, None)) -> _TParts:
    """Suffix kernel l^2_(n+1) -> l^2_n (input band f_(n+1), output band +n).

    w and s cover the window from k_lo on; p_n and p_next are the
    consecutive-weight products P_n and P_(n+1) over K + 1 columns.  `work`
    holds buffers of K entries for b and nu, or None to allocate them; a is
    a view of P_n, or computed in place in P_n's array once b is.
    """
    if n < 0:
        raise ParameterError("T1 band index must be >= 0")
    b_out, nu_out = work
    nu = band_weight(s, 0, n + 1, K, out=nu_out)
    if mode is QtKernelMode.CORRECTED:
        a = p_n[:K]                                            # w(k)...w(k+n-1)
        b = np.divide(1.0, p_next[:K], out=b_out)              # 1/(w(i)...w(i+n))
    else:
        b = np.divide(1.0, p_n[1:K + 1], out=b_out)            # 1/(w(i+1)...w(i+n))
        a = np.divide(p_n[1:K + 1], w[n:n + K], out=p_n[1:K + 1])
    return _TParts(a=a, b=b, nu=nu, direction="suffix")


def _t2_parts(w, s, K, n, p_n, work=(None, None)) -> _TParts:
    """Prefix kernel l^2_(n-1) -> l^2_n (input band g_(n-1), output band -n).

    a is computed in place in P_n's array, once b is."""
    if n < 1:
        raise ParameterError("T2 band index must be >= 1")
    b_out, nu_out = work
    nu = band_weight(s, 0, n - 1, K, out=nu_out)
    prod = p_n[:K]                                   # w(j)...w(j+n-1)
    b = np.divide(prod, w[n - 1:n - 1 + K], out=b_out)
    return _TParts(a=np.divide(1.0, prod, out=prod), b=b, nu=nu, direction="prefix")


def _scan(vals: np.ndarray, direction: str, out=None) -> np.ndarray:
    """Prefix or suffix cumulative sums of vals, written into `out` if given."""
    if out is None:
        out = np.empty_like(vals)
    if direction == "prefix":
        np.cumsum(vals, out=out)
    else:
        np.cumsum(vals[::-1], out=out[::-1])
    return out


def _check_band_cap(elem: LambdaElement):
    if elem.N > MAX_BAND:
        raise WindowResourceError(
            f"element band count N={elem.N} exceeds the kernel product cap {MAX_BAND}",
            needed=elem.N, cap=MAX_BAND)


class _QtSweep:
    """One side of Q_t x for one element, computed block by block.

    Input band b feeds output band b - 1 through a prefix kernel (b <= 0),
    swept bottom-up, or a suffix kernel (b > 0, sign flipped), swept
    top-down.  Each band's scan starts from the last running sum of the
    block before it in the sweep (its carry).
    """

    def __init__(self, elem: LambdaElement, suffix: bool):
        self.suffix = suffix
        self.coeffs = {abs(b - 1): c for b, c in elem.bands() if (b > 0) == suffix}
        self.top = max(self.coeffs, default=-1)

    def block(self, i, L, K, arrays, mode, rows, take, put):
        """(output band, values, padded) for each input band, on the block at position i.

        `arrays` starts one index below the block.  `rows` has five rows of
        at least L + 1 entries: the kernel factors b and nu, the values and
        two of consecutive products (which also hold a).  Before its scan a
        band n waits for take(key), the block before's carry and edge entry
        under key (self, n), and hands its own on with put(key, carry, edge): the
        edge entry is the band's first in the block for a suffix band, its
        last for a prefix one, and 0.0 where the block holds none.
        `values`, a view of rows[2], holds the output band at window
        positions [i, i + values.size), each entry at its smaller index;
        `padded` is `values` with the block before's edge entry in front
        (prefix) or behind it (suffix, where `values` fills the block).
        Positions past the band's end are scanned, since their summands feed
        the suffix sums, but not yielded.
        """
        direction = "suffix" if self.suffix else "prefix"
        first, last = (-1, 0) if self.suffix else (0, -1)   # scan entry and exit
        w, s, w_sq = arrays.w[1:], arrays.s[1:], arrays.w_sq[1:L + 1]
        b_row, nu_row, row = rows[0, :L], rows[1, :L], rows[2, :L + 1]
        vals = row[:L] if self.suffix else row[1:]
        products = _consecutive_products(w, L + 1, rows[3:, :L + 1])
        p_n = next(products)
        for n in range(self.top + 1):
            p_next = next(products)
            coeff = self.coeffs.get(n)
            if coeff is not None:
                parts = _t1_parts(w, s, L, n, mode, p_n, p_next, (b_row, nu_row)) \
                    if self.suffix else _t2_parts(w, s, L, n, p_n, (b_row, nu_row))
                np.multiply(parts.b, parts.nu, out=vals)
                # b and nu are spent: the coefficient samples go into their rows
                vals *= _sample(coeff, w_sq, b_row, nu_row)
                carry, across = take((self, n))
                vals[first] += carry
                _scan(vals, direction, out=vals)
                m = min(L, K - n - i)   # band +-n's columns in this block
                a = parts.a
                edge = 0.0 if m <= 0 else -(vals[0] * a[0]) if self.suffix \
                    else vals[m - 1] * a[m - 1]
                put((self, n), vals[last], edge)
                if m > 0:
                    row[L if self.suffix else 0] = across
                    dest = np.multiply(vals[:m], a[:m], out=vals[:m])
                    if self.suffix:
                        np.negative(dest, out=dest)
                    yield (n if self.suffix else -n), dest, row[:m + 1]
            p_n = p_next


def _qt_walks(elems, family: WeightFamily, t: float, window: IndexWindow,
              mode: QtKernelMode, dtype, reduce, norms: _NormSums | None = None) -> list:
    """Q_t x of every element, block by block: all prefix sweeps bottom-up,
    then all suffix sweeps top-down, on the ordered block driver of
    qdbar.elements; returns each block's partial in that walk order.

    reduce(rows) is called once per worker, for a function block(suffix,
    i, L, arrays, outputs) that returns a block's partial.  `arrays` holds
    w^2, S and w from one index below window position i on (at the
    window's first index, a copy of it), and `outputs` yields (element
    number, output band, values, padded) as _QtSweep.block does.  The five
    `rows` are the worker's: all are free until `outputs` is first
    resumed, and rows 0 and 1 while a yielded band is in hand.  A walk with
    no sweep is skipped, except that with `norms` the bottom-up walk is
    made and covers the halo the norms read.
    """
    for elem in elems:
        _check_band_cap(elem)
    K, k_lo, size = window.size, window.k_lo, elements.BLOCK
    starts = range(0, K, size)
    tasks = []      # (suffix, sweeps, halo, i, first block of its sweep) per block
    for suffix in (False, True):
        sweeps = [(j, sweep) for j, sweep in enumerate(_QtSweep(e, suffix) for e in elems)
                  if sweep.coeffs]
        reader = None if suffix else norms
        if not sweeps and reader is None:
            continue
        top = max((sweep.top for _, sweep in sweeps), default=-1)
        # from one index below: P_(top+1) over L + 1 columns reads w up to
        # block position top + L, the norms S up to position halo + L - 1
        halo = max(top + 2, 1 if reader is None else reader.halo + 1)
        order = reversed(starts) if suffix else starts
        tasks += [(suffix, sweeps, halo, i, n == 0) for n, i in enumerate(order)]
    cap = min(size, K) + max((task[2] for task in tasks), default=0)
    steps = np.arange(cap, dtype=np.float64)      # read by every worker

    def worker(relay):
        rows = np.empty((5, cap), dtype=dtype)
        arrays = _WindowArrays(family, t, cap, dtype)
        block = reduce(rows)

        def part(j):
            suffix, sweeps, halo, i, first = tasks[j]
            L, start = min(size, K - i), k_lo + i - 1
            k = np.add(steps[:L + halo], start, out=rows[2, :L + halo])   # exact
            k[0] = max(start, k_lo)     # no index below the window is evaluated
            arrays.fill(start, start + L + halo, k)

            def take(key):
                return (-0.0, 0.0) if first else relay.take(j, key)   # x + -0.0 == x

            def put(key, *value):
                relay.put(j, key, value)

            return block(suffix, i, L, arrays, (
                (e, b, vals, padded) for e, sweep in sweeps
                for b, vals, padded in sweep.block(i, L, K, arrays, mode, rows, take, put)))
        return part

    return elements._ordered_blocks(len(tasks), worker, len(starts))


def _band_norm_sq(b, vals, arrays, minus, buf, work) -> float:
    """sum mu_|b| |vals - y_b|^2 over one block of output band b, y = `minus`
    (or 0) realized there, with `arrays` from one index below the block;
    vals is overwritten, and `work` is read only with `minus`."""
    m = vals.size
    if minus is not None:
        vals -= _sample(minus.by_band[b], arrays.w_sq[1:m + 1], buf[:m], work[:m])
    mu = band_weight(arrays.s, 1, abs(b), m, out=buf[:m])
    mu *= vals
    mu *= vals
    return float(np.sum(mu))


def apply_Qt(elem: LambdaElement, family: WeightFamily, t: float,
             window: IndexWindow, mode: QtKernelMode = QtKernelMode.CORRECTED,
             *, dtype=np.float64) -> BandMatrix:
    """Band-wise parametrix application.

    Input band b produces output band b - 1: a suffix scan (sign flipped)
    for b > 0 and a prefix scan for b <= 0.  Sums run
    over the window: on the disk the prefix sums start at 0 exactly, on the
    annulus the omitted mass below k_lo is controlled by the window's lower
    tail bound.  Each block of the `_qt_walks` is copied into its disjoint
    slices of the output bands.
    """
    K = window.size
    bands = {b - 1: np.empty(max(K - abs(b - 1), 0), dtype=dtype) for b in elem.by_band}

    def reduce(rows):
        def block(suffix, i, L, arrays, outputs):
            for _, b, vals, _ in outputs:
                bands[b][i:i + vals.size] = vals
        return block

    _qt_walks([elem], family, t, window, mode, dtype, reduce)
    return BandMatrix(window, bands, valid_margin=0)


def qt_norm_sq(elem: LambdaElement, family: WeightFamily, t: float,
               window: IndexWindow, mode: QtKernelMode = QtKernelMode.CORRECTED,
               minus: LambdaElement | None = None) -> float:
    """Squared quantum norm of Q_t x, or of Q_t x - y with y = `minus`
    realized at t, streamed without realizing either band matrix.

    `minus` needs a coefficient on every output band b - 1 of Q_t x, as
    tilde_element gives.  The blocks' band sums are added up in walk
    order.  Matches apply_Qt, realize_quantum, BandMatrix subtraction and
    quantum_norm to rounding.
    """
    def reduce(rows):
        def block(suffix, i, L, arrays, outputs):
            return [_band_norm_sq(b, vals, arrays, minus, *rows[:2])
                    for _, b, vals, _ in outputs]
        return block

    total = 0.0
    for part in _qt_walks([elem], family, t, window, mode, np.float64, reduce):
        for band_sum in part:
            total += band_sum
    return total


def norm_pairs_sq(elems, family: WeightFamily, t: float, window: IndexWindow,
                  mode: QtKernelMode = QtKernelMode.CORRECTED):
    """[(lambda_norm_sq(x), qt_norm_sq(x))] for the elements x, in two walks.

    One bottom-up walk sums every element's quantum norm and prefix sweep,
    one top-down walk every element's suffix sweep.  Each element keeps its
    own running totals, added to in walk order and in the order of the two
    functions, so both numbers are their bits.  An element beyond the band
    cap raises only when its norm is positive; otherwise its Q_t norm is
    reported as 0.0.
    """
    norms = _NormSums(elems, window.size)
    swept = [elem if elem.N <= MAX_BAND else LambdaElement() for elem in elems]

    def reduce(rows):
        def block(suffix, i, L, arrays, outputs):
            norm = None if suffix else \
                norms.partial(i, L, arrays.w_sq[1:], arrays.s[1:], rows[:3])
            return norm, [(j, _band_norm_sq(b, vals, arrays, None, rows[0], None))
                          for j, b, vals, _ in outputs]
        return block

    qt = [0.0] * len(elems)
    for norm, sums in _qt_walks(swept, family, t, window, mode, np.float64, reduce, norms):
        if norm is not None:
            norms.fold(norm)
        for j, band_sum in sums:
            qt[j] += band_sum
    for elem, norm_sq in zip(elems, norms.totals):
        if norm_sq > 0.0:       # the elements whose ratio is wanted
            _check_band_cap(elem)
    return list(zip(norms.totals, qt))


# ---------------------------------------------------------------------------
# the classical operator and parametrix image
# ---------------------------------------------------------------------------

def apply_D0(elem: LambdaElement, family: WeightFamily) -> LambdaElement:
    """The d-bar operator on coefficient functions at t = 0.

    Band b maps to band b + 1 with coefficient  sqrt(s) c' - (b/(2 sqrt(s))) c,
    on both sides: f_n goes to f_(n+1), g_n to g_(n-1) and g_1 to the diagonal.

    PowerSum and Transform coefficients are each closed under derivative,
    half-power shift, scaling and addition, so the image is exact algebra of
    the same type and can be mapped again.  A plain callable coefficient has
    no derivative and raises CapabilityError.
    """
    out = {}
    for b, c in elem.bands():
        if not isinstance(c, (PowerSum, Transform)):
            raise CapabilityError(f"coefficient on band {b} has no derivative")
        image = c.derivative().shift_half_power(1) + c.scale(-b / 2).shift_half_power(-1)
        if not image.is_zero():
            out[b + 1] = image
    return LambdaElement(out)


def tilde_element(elem: LambdaElement, family: WeightFamily,
                  mode: QtKernelMode = QtKernelMode.CORRECTED) -> LambdaElement:
    """The classical parametrix image as an element of closed-form transforms.

    Input band b gives output band n = b - 1 with coefficient

        n >= 0:  -s^((n-d)/2) int_s^{w_+^2} c(u) u^((d-n-1)/2) du
        n < 0:    s^(n/2)     int_{w_-^2}^s c(u) u^(-(n+1)/2) du

    where d = 1 for PRINTED on n >= 0 and d = 0 otherwise.  The integral
    starts at the outer boundary for bands n >= 0 and at the inner one for
    n < 0 (the APS boundary condition), and only the side n >= 0 depends on
    the mode.

    Each integrand is a half-power sum, so every coefficient is a Transform
    P(s) + Q(s) log s built from its antiderivative (Q is nonzero only where
    the integrand has u^(-1)), and apply_D0 maps it back exactly.  On the
    disk an integrand of a band n < 0 with a power of u at or below u^(-1)
    diverges at w_-^2 = 0 and raises DivergentIntegralError.
    """
    out = {}
    for b, c in elem.bands():
        if not isinstance(c, PowerSum):
            raise CapabilityError("tilde transforms need polynomial-type coefficients")
        n = b - 1
        d = int(mode is QtKernelMode.PRINTED and n >= 0)
        boundary = (family.w_plus**2, "lower", -1.0) if n >= 0 \
            else (family.w_minus**2, "upper", 1.0)
        out[n] = Transform(n - d, c.shift_half_power(d - n - 1), *boundary)
    return LambdaElement(out)


# ---------------------------------------------------------------------------
# norm bounds for the kernel operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelOperatorSpec:
    """One of the parametrix band kernels under one kernel convention.

    `mode` selects the convention of the T1 kernel (T2 has only one).  The
    kernel is realized over the window on the first access to `parts` and
    kept, so the Schur test and the power iteration of one spec share it;
    its arrays are read, never written.
    """

    kind: str              # 'T1' (suffix, l^2_(n+1)->l^2_n) or 'T2' (prefix)
    n: int
    t: float
    family: WeightFamily
    window: IndexWindow
    mode: QtKernelMode = QtKernelMode.CORRECTED
    # (w, S) from k_lo to at least k_hi + n + 2, shared with the other specs
    # of the same (family, t, window); evaluated for this spec when None
    weights: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def parts(self) -> _TParts:
        if self.kind not in ("T1", "T2"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        n, K = self.n, self.window.size
        w, s = self.weights or _kernel_weights(self.family, self.t, self.window, max(n, 0))
        # two arrays, not rows of one: the kernel factor `a` may be a view of P_n
        products = _consecutive_products(w, K + 1, (np.empty(K + 1), np.empty(K + 1)))
        for _ in range(n):
            next(products)
        p_n = next(products)
        if self.kind == "T1":
            parts = _t1_parts(w, s, K, n, self.mode, p_n, next(products))
        else:
            parts = _t2_parts(w, s, K, n, p_n)
        parts.mu = band_weight(s, 0, n, K)
        return parts


def _kernel_weights(family: WeightFamily, t: float, window: IndexWindow, n: int):
    """(w, S) over [k_lo, k_hi + n + 2), what the kernels up to index n read."""
    arrays = _WindowArrays(family, t, window.size + n + 1).fill(window.k_lo, window.k_hi + n + 2)
    return arrays.w, arrays.s       # w^2 is freed with `arrays`


def kernel_specs(kinds, max_n: int, t: float, family: WeightFamily,
                 window: IndexWindow, mode: QtKernelMode = QtKernelMode.CORRECTED):
    """The specs of each kind, n from 0 (T1) or 1 (T2) to max_n, in that order.

    All of them share one evaluation of w and S over the window.
    """
    weights = _kernel_weights(family, t, window, max_n)
    for kind in kinds:
        for n in range(0 if kind == "T1" else 1, max_n + 1):
            yield KernelOperatorSpec(kind, n, t, family, window, mode, weights)


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


def schur_young_bound(spec: KernelOperatorSpec) -> SchurBound:
    """Row/column Schur test on the realized kernel, weights made explicit.

    For T between weighted spaces the test reads
    ||T||^2 <= (sup_k sum_i nu(i)|K|) (sup_i sum_k mu(k)|K|); the separable
    kernel makes both sums single scans.
    """
    p = spec.parts
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


def operator_norm_estimate(spec: KernelOperatorSpec, iters: int = 500,
                           rtol: float = 1e-10) -> NormEstimate:
    """Largest singular value of the kernel operator by power iteration.

    Iterates T*T in the correct weighted spaces (via the unitary transfer to
    unweighted l^2), deterministic all-ones seed.  Warns instead of raising
    when the Rayleigh quotient has not settled after `iters` iterations.
    """
    if iters < 1:
        raise ParameterError("iters must be >= 1")
    p = spec.parts
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


def schur_property_holds(spec: KernelOperatorSpec, schur: SchurBound,
                         estimate: NormEstimate) -> bool:
    """The power-iteration norm is within the Schur bound, and the Schur
    bound within the t-uniform analytic cap.

    The printed suffix kernel at n = 0 keeps its denominator at the output
    index, which has no t-uniform cap on the disk, so its cap is not checked.
    """
    capped = spec.mode is QtKernelMode.CORRECTED or spec.n >= 1
    return estimate.value <= schur.bound * (1 + 1e-10) and \
        (not capped or schur.bound <= schur.analytic_cap * (1 + 1e-12))
