"""Classical-limit experiments: norm and parametrix convergence, inverse
residuals, norm-continuity scans, uniform-bound scans, and log-log rate fits.

Each driver walks a decreasing t-grid, solves the truncation window per grid
point, and records primary/reference values with the window's tail bound, so
truncation error stays auditable next to the measured convergence signal.
The streamed operator work (the Q_t walk, D_t on it, the norms) lives in
qdbar.operators and qdbar.elements, and the drivers call only their public
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import (
    DEFAULT_K_CAP, IndexWindow, classical_norm, lambda_norm_sq, truncation_window,
)
from .errors import CapabilityError, InsufficientDataError, ParameterError
from .operators import (
    QtKernelMode, dt_qt_residual, norm_pairs_sq, qt_norm_sq, schur_analytic_cap,
    tilde_element,
)

# machine epsilon of np.longdouble; inverse_residual needs it below float64's
LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)


@dataclass(frozen=True)
class SeriesRecord:
    t: float
    window_lo: int
    window_hi: int
    primary_value: float
    reference_value: float
    abs_error: float
    tail_bound: float


@dataclass(frozen=True)
class ConvergenceSeries:
    kind: str                 # 'norm' or 'parametrix'
    tail_tol: float
    records: tuple

    def __post_init__(self):
        ts = [r.t for r in self.records]
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ParameterError("series records must be sorted by descending t")
        for r in self.records:
            if r.abs_error < 0 or r.tail_bound > self.tail_tol * (1 + 1e-12):
                raise ParameterError("series record violates its invariants")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float           # rms misfit in log-log coordinates
    points_used: int


@dataclass(frozen=True)
class ContinuityRow:
    t: float
    norm: float
    forward_difference: float  # |norm(next) - norm(this)|; nan on the last row


@dataclass(frozen=True)
class UniformBoundRow:
    t: float
    max_ratio: float
    schur_cap: float
    within_cap: bool


def _check_grid(t_grid):
    ts = list(t_grid)
    if not ts:
        raise ParameterError("t_grid must be nonempty")
    if any(not (0.0 < t < 1.0) for t in ts):
        raise ParameterError("t_grid values must lie in (0, 1)")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ParameterError("t_grid must be strictly decreasing")
    return ts


def geometric_grid(head: float = 0.2, ratio: float = 0.5, count: int = 8):
    """Geometric t-grid head, head*ratio, ...; log-log fits need this spacing."""
    if not (0 < head < 1) or not (0 < ratio < 1) or count < 1:
        raise ParameterError("geometric grid needs head, ratio in (0,1) and count >= 1")
    return [head * ratio**j for j in range(count)]


def norm_convergence(elem, family, t_grid, tail_tol: float,
                     k_cap: int = DEFAULT_K_CAP) -> ConvergenceSeries:
    """Per t: quantum norm over the solved window against the t = 0 norm."""
    ts = _check_grid(t_grid)
    reference = classical_norm(elem, family)
    records = []
    for t in ts:
        win = truncation_window(family, t, tail_tol, k_cap)
        primary = float(np.sqrt(lambda_norm_sq(elem, family, t, win)))
        records.append(SeriesRecord(
            t=t, window_lo=win.k_lo, window_hi=win.k_hi, primary_value=primary,
            reference_value=reference, abs_error=abs(primary - reference),
            tail_bound=max(win.tail_bound_hi, win.tail_bound_lo)))
    return ConvergenceSeries(kind="norm", tail_tol=tail_tol, records=tuple(records))


def parametrix_convergence(elem, family, t_grid, tail_tol: float,
                           mode: QtKernelMode = QtKernelMode.CORRECTED,
                           k_cap: int = DEFAULT_K_CAP) -> ConvergenceSeries:
    """Per t: quantum norm of (parametrix applied at t) minus (classical
    parametrix image realized at t), matched kernel conventions, streamed
    by qt_norm_sq."""
    ts = _check_grid(t_grid)
    y = tilde_element(elem, family, mode)
    records = []
    for t in ts:
        win = truncation_window(family, t, tail_tol, k_cap)
        primary = float(np.sqrt(qt_norm_sq(elem, family, t, win, mode, minus=y)))
        records.append(SeriesRecord(
            t=t, window_lo=win.k_lo, window_hi=win.k_hi, primary_value=primary,
            reference_value=0.0, abs_error=primary,
            tail_bound=max(win.tail_bound_hi, win.tail_bound_lo)))
    return ConvergenceSeries(kind="parametrix", tail_tol=tail_tol, records=tuple(records))


def inverse_residual(elem, family, t: float, window: IndexWindow,
                     mode: QtKernelMode = QtKernelMode.CORRECTED) -> float:
    """Sup over trusted interior entries of D_t(Q_t x) - x on the window.

    Runs the parametrix/commutator pipeline in extended precision: the
    S^(-1/2) conjugation amplifies rounding by 1/S(k) near the window top,
    which at small tail tolerances would otherwise swamp the true residual.
    Where np.longdouble is no wider than float64 (MSVC, macOS arm64) it
    raises CapabilityError instead of returning a residual made of rounding.

    Streams on the Q_t walk of qdbar.operators (dt_qt_residual): the
    prefix bands c < 0 of Q_t x bottom-up, then the suffix bands c >= 0
    top-down, split between two workers where two CPUs are free.
    D_t maps Q_t band c to band c + 1 alone, so each block of a Q_t band
    gives that block's entries of D_t(Q_t x), less x sampled from float64
    w^2 as realize_quantum samples it, and their sup.  The one neighbour
    D_t reads across a block edge belongs to the block before it in its
    sweep and is handed on with the scan's carry: A_c[col] below it for
    c < 0, A_c[col + 1] above it for c >= 0.  An entry is trusted one index
    or more from either end of its band, the margin D_t adds, and only
    trusted entries are computed.  Nothing window-sized is allocated.  The
    residual is NaN when any trusted entry is, so a broken band fails the
    bound, and otherwise the float of apply_Dt, realize_quantum and
    BandMatrix.trusted chained over whole band matrices, at one worker or
    two.
    """
    if not LONGDOUBLE_EPS < np.finfo(np.float64).eps:
        raise CapabilityError(
            f"inverse residuals need an extended-precision np.longdouble; its "
            f"eps here is {LONGDOUBLE_EPS:.3g}, no smaller than float64's")
    return dt_qt_residual(elem, family, t, window, mode)


def inverse_residual_bound(elem, family, t: float, tail_tol: float, window) -> float:
    """Tail-propagation bound 10 tail_tol / w_t(min interior index + N)."""
    return 10.0 * tail_tol / float(family.weight(t, window.k_lo + 1 + elem.N))


def continuity_scan(elem, family, t_interval, steps: int, tail_tol: float,
                    k_cap: int = DEFAULT_K_CAP):
    """Sample t -> quantum norm on [t_lo, t_hi] and report forward differences."""
    t_lo, t_hi = t_interval
    if not (0.0 < t_lo < t_hi < 1.0):
        raise ParameterError("need 0 < t_lo < t_hi < 1")
    if steps < 2:
        raise ParameterError("steps must be >= 2")
    ts = np.linspace(t_lo, t_hi, steps)
    norms = []
    for t in ts:
        win = truncation_window(family, float(t), tail_tol, k_cap)
        norms.append(float(np.sqrt(lambda_norm_sq(elem, family, float(t), win))))
    rows = []
    for i, (t, nv) in enumerate(zip(ts, norms)):
        fd = abs(norms[i + 1] - nv) if i + 1 < len(norms) else float("nan")
        rows.append(ContinuityRow(t=float(t), norm=nv, forward_difference=fd))
    return rows


def uniform_bound_scan(elems, family, t_grid, tail_tol: float,
                       mode: QtKernelMode = QtKernelMode.CORRECTED,
                       k_cap: int = DEFAULT_K_CAP):
    """Per t: max over elements of |Q_t x| / |x| next to the analytic cap.

    The ratio is a supremum over x != 0, so an element that vanishes on the
    window (all-zero coefficients, or bands wider than the window) is left
    out; with none left the row reports 0.  Each t walks its window twice
    for all elements together (norm_pairs_sq).
    """
    if not elems:
        raise ParameterError("element list must be nonempty")
    ts = _check_grid(sorted(t_grid, reverse=True))
    cap = schur_analytic_cap(family)
    rows = []
    for t in ts:
        win = truncation_window(family, t, tail_tol, k_cap)
        worst = 0.0
        for norm_sq, qx_norm_sq in norm_pairs_sq(elems, family, t, win, mode):
            if norm_sq > 0.0:
                worst = max(worst, float(np.sqrt(qx_norm_sq)) / float(np.sqrt(norm_sq)))
        rows.append(UniformBoundRow(t=t, max_ratio=worst, schur_cap=cap,
                                    within_cap=worst <= cap * (1 + 1e-12)))
    return rows


def rate_fit(series: ConvergenceSeries, drop_head: int = 1,
             exclude_tail_floor: bool = True) -> RateFit:
    """Least-squares slope of log(abs_error) against log(t).

    The first `drop_head` records are burn-in; records whose error sits at
    the truncation floor (abs_error <= 10 * tail_bound) are excluded so the
    fit measures the model error, not the window.  `exclude_tail_floor=False`
    fits the measured curve as-is (floor included), which is the convention
    the acceptance slope bands were calibrated against.
    """
    usable = [r for r in series.records[drop_head:]
              if r.abs_error > 0.0
              and (not exclude_tail_floor or r.abs_error > 10.0 * r.tail_bound)]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"rate fit needs >= 3 usable points, found {len(usable)}")
    x = np.log([r.t for r in usable])
    y = np.log([r.abs_error for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=resid, points_used=len(usable))
