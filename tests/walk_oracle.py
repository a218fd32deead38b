"""The streamed walks in one thread, block after block: the oracle of the
two-worker walks of qdbar.elements and qdbar.operators.

These are the walks as they ran before the blocks were split between
workers: one generator cuts the window into blocks of elements.BLOCK
indices and refills one set of weights per block, every band's scan carry
and edge entry stay in the sweep, and each consumer adds up the blocks in
the order the generator yields them.  The two-worker walks must give the
same floats.
"""

import itertools

import numpy as np

from qdbar import elements
from qdbar.elements import LambdaElement, _NormSums, _sample, _WindowArrays, band_weight
from qdbar.operators import (
    MAX_BAND, QtKernelMode, _check_band_cap, _dt_band, _scan, _TParts,
)


def blocks(family, t, k_lo, k_hi, halo, reverse=False, dtype=np.float64):
    """(i, L, arrays) per block of [k_lo, k_hi], bottom-up or top-down;
    `arrays` covers window positions [i, i + L + halo)."""
    size = k_hi - k_lo + 1
    cap = min(elements.BLOCK, size) + halo
    arrays = _WindowArrays(family, t, cap, dtype)
    starts = range(0, size, elements.BLOCK)
    for i in reversed(starts) if reverse else starts:
        L = min(elements.BLOCK, size - i)
        yield i, L, arrays.fill(k_lo + i, k_lo + i + L + halo)


def norm_sq(elem, family, t, window):
    """lambda_norm_sq as one walk in block order."""
    sums = _NormSums([elem], window.size)
    if not sums.by_offset:
        return 0.0
    bufs = np.empty((3, min(elements.BLOCK, window.size)))
    for i, L, arrays in blocks(family, t, window.k_lo, window.k_hi, sums.halo):
        sums.fold(sums.partial(i, L, arrays.w_sq, arrays.s, bufs))
    return sums.totals[0]


def products(w, length, out):
    """P_0, P_1, ... over `length` columns, alternating between two rows."""
    out[0].fill(1.0)
    yield out[0]
    for n in itertools.count():
        np.multiply(out[n % 2], w[n:n + length], out=out[(n + 1) % 2])
        yield out[(n + 1) % 2]


def t1_parts(w, s, K, n, mode, p_n, p_next, a_out, b_out, nu_out):
    nu = band_weight(s, 0, n + 1, K, out=nu_out)
    if mode is QtKernelMode.CORRECTED:
        a = p_n[:K]
        b = np.divide(1.0, p_next[:K], out=b_out)
    else:
        a = np.divide(p_n[1:K + 1], w[n:n + K], out=a_out)
        b = np.divide(1.0, p_n[1:K + 1], out=b_out)
    return _TParts(a=a, b=b, nu=nu, direction="suffix")


def t2_parts(w, s, K, n, p_n, a_out, b_out, nu_out):
    nu = band_weight(s, 0, n - 1, K, out=nu_out)
    prod = p_n[:K]
    return _TParts(a=np.divide(1.0, prod, out=a_out),
                   b=np.divide(prod, w[n - 1:n - 1 + K], out=b_out),
                   nu=nu, direction="prefix")


class Sweep:
    """One side of Q_t x for one element; each band's carry stays here."""

    def __init__(self, elem, suffix):
        self.suffix = suffix
        self.coeffs = {abs(b - 1): c for b, c in elem.bands() if (b > 0) == suffix}
        self.carry = dict.fromkeys(self.coeffs, -0.0)
        self.top = max(self.coeffs, default=-1)

    def block(self, i, L, K, arrays, mode, bufs):
        direction = "suffix" if self.suffix else "prefix"
        first, last = (-1, 0) if self.suffix else (0, -1)
        a_buf, b_buf, nu_buf, vals = bufs[:4, :L]
        prods = products(arrays.w, L + 1, bufs[4:, :L + 1])
        p_n = next(prods)
        for n in range(self.top + 1):
            p_next = next(prods)
            coeff = self.coeffs.get(n)
            if coeff is not None:
                parts = t1_parts(arrays.w, arrays.s, L, n, mode, p_n, p_next,
                                 a_buf, b_buf, nu_buf) if self.suffix \
                    else t2_parts(arrays.w, arrays.s, L, n, p_n, a_buf, b_buf, nu_buf)
                np.multiply(parts.b, parts.nu, out=vals)
                vals *= _sample(coeff, arrays.w_sq[:L], b_buf, nu_buf)
                vals[first] += self.carry[n]
                _scan(vals, direction, out=vals)
                self.carry[n] = vals[last]
                m = min(L, K - n - i)
                if m > 0:
                    dest = np.multiply(vals[:m], parts.a[:m], out=vals[:m])
                    if self.suffix:
                        np.negative(dest, out=dest)
                    yield (n if self.suffix else -n), dest
            p_n = p_next


def qt_walks(elems, family, t, window, mode, dtype=np.float64, norms=None):
    """(suffix, i, L, arrays, outputs) per block: every prefix sweep
    bottom-up, then every suffix sweep top-down; `norms` adds up every
    block of the bottom-up walk."""
    for elem in elems:
        _check_band_cap(elem)
    K = window.size
    bufs = np.empty((6, min(elements.BLOCK, K) + 1), dtype=dtype)
    norm_bufs = np.empty((3, min(elements.BLOCK, K)))
    for suffix in (False, True):
        sweeps = [(j, sweep) for j, sweep in enumerate(Sweep(e, suffix) for e in elems)
                  if sweep.coeffs]
        reader = None if suffix else norms
        if not sweeps and reader is None:
            continue
        top = max((sweep.top for _, sweep in sweeps), default=-1)
        halo = max(top + 2, 0 if reader is None else reader.halo)
        for i, L, arrays in blocks(family, t, window.k_lo, window.k_hi, halo, suffix, dtype):
            if reader is not None:
                reader.fold(reader.partial(i, L, arrays.w_sq, arrays.s, norm_bufs))
            yield suffix, i, L, arrays, (
                (j, b, vals) for j, sweep in sweeps
                for b, vals in sweep.block(i, L, K, arrays, mode, bufs))


def band_norm_sq(b, vals, arrays, minus):
    m = vals.size
    if minus is not None:
        vals = vals - _sample(minus.by_band[b], arrays.w_sq[:m], np.empty(m), np.empty(m))
    return float(np.sum(band_weight(arrays.s, 0, abs(b), m) * vals * vals))


def qt_bands(elem, family, t, window, mode, dtype=np.float64):
    """{output band: values} of Q_t x, as apply_Qt stores them."""
    K = window.size
    bands = {b - 1: np.empty(max(K - abs(b - 1), 0), dtype=dtype) for b in elem.by_band}
    for _, i, _, _, outputs in qt_walks([elem], family, t, window, mode, dtype):
        for _, b, vals in outputs:
            bands[b][i:i + vals.size] = vals
    return bands


def qt_norm_sq(elem, family, t, window, mode, minus=None):
    total = 0.0
    for _, _, _, arrays, outputs in qt_walks([elem], family, t, window, mode):
        for _, b, vals in outputs:
            total += band_norm_sq(b, vals, arrays, minus)
    return total


def norm_pairs_sq(elems, family, t, window, mode):
    norms = _NormSums(elems, window.size)
    qt = [0.0] * len(elems)
    swept = [elem if elem.N <= MAX_BAND else LambdaElement() for elem in elems]
    for _, _, _, arrays, outputs in qt_walks(swept, family, t, window, mode, norms=norms):
        for j, b, vals in outputs:
            qt[j] += band_norm_sq(b, vals, arrays, None)
    for elem, total in zip(elems, norms.totals):
        if total > 0.0:
            _check_band_cap(elem)
    return list(zip(norms.totals, qt))


def dt_qt_residual(elem, family, t, window, mode):
    """Sup of |D_t(Q_t x) - x| over trusted entries; each band's entry
    across the block edge is kept from the block the walk has just left."""
    K, ld = window.size, np.longdouble
    n = min(elements.BLOCK, K)
    a = np.empty(n + 1, dtype=ld)
    below = np.zeros((2, n + elem.N + 4), dtype=ld)     # w and S from position i - 1
    edge, sup = {}, 0.0
    for suffix, i, L, arrays, outputs in qt_walks([elem], family, t, window, mode, ld):
        k = np.arange(window.k_lo + i, window.k_lo + i + L, dtype=np.float64)
        w_sq = family.weight_sq(t, k)
        if suffix:
            w, s = arrays.w, arrays.s
        else:
            below[:, 0] = below[:, n]
            below[0, 1:arrays.w.size + 1] = arrays.w
            below[1, 1:arrays.s.size + 1] = arrays.s
            w, s = below
        for _, c, q in outputs:
            m = q.size
            if suffix:
                a[:m], a[m] = q, edge.get(c, 0.0)
                edge[c] = q[0]
            else:
                a[0], a[1:m + 1] = edge.get(c, 0.0), q
                edge[c] = q[m - 1]
            lo, hi = max(i, 1) - i, min(L, K - abs(c + 1) - 1 - i)
            size = hi - lo
            if size <= 0:
                continue
            d = _dt_band(c, a[lo:], w, s, lo + max(0, -c), size, np.empty(size, dtype=ld))
            d -= _sample(elem.by_band[c + 1], w_sq[lo:hi], np.empty(size), np.empty(size))
            sup = np.maximum(sup, np.max(np.abs(d)))
    return float(sup)
