"""Adaptive Gauss-Kronrod quadrature (G7/K15).

`integrate` bisects the subinterval with the largest error estimate until the
summed estimate drops below an absolute tolerance.  Integrands must accept
numpy arrays of evaluation points (all 15 nodes of a panel are evaluated in
one call).  Kronrod nodes are interior, so integrable endpoint singularities
are never evaluated directly and are handled by the adaptive subdivision.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ParameterError, QuadratureError

# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299785, 0.0229353220105292,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892766, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892766,
    0.1294849661688697,
])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


def _panel(fn, a, b):
    """Single G7/K15 panel on [a, b]: returns (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * _XK
    fv = np.asarray(fn(nodes), dtype=np.float64)
    k15 = half * float(fv @ _WK)
    g7 = half * float(fv[_GAUSS_IDX] @ _WG)
    return k15, abs(k15 - g7)


def panel_integrals(fn, edges):
    """One K15 panel per consecutive edge pair (vectorized over panels).

    Returns (values, error_estimates), each of length len(edges) - 1.
    """
    edges = np.asarray(edges, dtype=np.float64)
    a = edges[:-1]
    half = 0.5 * (edges[1:] - a)
    nodes = (a + half)[:, None] + half[:, None] * _XK[None, :]
    fv = np.asarray(fn(nodes.ravel()), dtype=np.float64).reshape(nodes.shape)
    k15 = half * (fv @ _WK)
    g7 = half * (fv[:, _GAUSS_IDX] @ _WG)
    return k15, np.abs(k15 - g7)


def integrate_with_error(fn, a, b, tol=1e-12, max_panels=4096):
    """Adaptive integral of `fn` over [a, b]; returns (value, error estimate)."""
    if a > b:
        raise ParameterError(f"integration limits must satisfy a <= b; got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    val, err = _panel(fn, a, b)
    # heap of (-error, tiebreak, a, b, value); deterministic pop order
    heap = [(-err, 0, a, b, val)]
    count = 1
    while True:
        total_err = -sum(item[0] for item in heap)
        if total_err <= tol:
            return sum(item[4] for item in heap), total_err
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"quadrature budget ({max_panels} panels) exhausted with error "
                f"{total_err:.3e} > tol {tol:.3e}",
                best_estimate=sum(item[4] for item in heap),
                achieved_error=total_err)
        _, _, pa, pb, _ = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lval, lerr = _panel(fn, pa, mid)
        rval, rerr = _panel(fn, mid, pb)
        heapq.heappush(heap, (-lerr, count, pa, mid, lval))
        heapq.heappush(heap, (-rerr, count + 1, mid, pb, rval))
        count += 2


def integrate(fn, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive integral of a bounded (vectorized) integrand over [a, b]."""
    return integrate_with_error(fn, a, b, tol)[0]
