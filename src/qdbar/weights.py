"""Weight families for quantum disk/annulus coordinates.

A weight family assigns to each deformation parameter t in (0, 1) a strictly
increasing positive sequence w_t(k) over an index set (N for the disk, Z for
the annulus), with k -> +/-inf limits w_plus/w_minus independent of t.  The
derived diagonal S_t(k) = w_t(k)^2 - w_t(k-1)^2 is the commutator of the
weighted shift with its adjoint; it is trace class with trace
w_plus^2 - w_minus^2 and plays the role of a quantized area element.

Three built-in families are provided, one WeightFamily subclass each:

* ``unilateral_example``   w_t(k)^2 = (k+1)t / (1 + (k+1)t)        (disk)
* ``bilateral_rational``   w_t(k)^2 = alpha + beta*t*k/(1 + t|k|)  (annulus)
* ``bilateral_arctan``     w_t(k)^2 = alpha + beta*arctan(t*k)     (annulus)

All evaluators accept numpy integer arrays for k and are pure functions; t is
always a runtime argument so one family serves a whole t-grid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, WindowResourceError


class Domain(Enum):
    DISK = "disk"       # index set N, w_minus = 0 by convention
    ANNULUS = "annulus"  # index set Z, requires w_minus > 0


class FamilyKind(Enum):
    UNILATERAL_EXAMPLE = "unilateral_example"
    BILATERAL_RATIONAL = "bilateral_rational"
    BILATERAL_ARCTAN = "bilateral_arctan"


def _check_t(t):
    # t = 1 is admitted as a boundary case for testing closed forms.
    if not (0.0 < t <= 1.0):
        raise ParameterError(f"deformation parameter t must lie in (0, 1]; got {t}")


def _zero_below_disk(k, out, work):
    """`out` with 0 where k < 0; the mask lives in the bytes of `work`."""
    mask = work.reshape(-1).view(np.bool_)[:work.size].reshape(work.shape)
    np.less(k, 0.0, out=mask)
    np.copyto(out, 0.0, where=mask)
    return out


def _least_passing(passes, t, tol):
    """Least k in [0, 2^53] with passes(k), for a predicate false below and true above it.

    One bisection of the whole range: 54 calls, wherever the answer lies.
    Raises ParameterError for tol <= 0 and WindowResourceError when no index
    up to 2^53 passes, beyond which float indices no longer resolve single
    integers.
    """
    _check_t(t)
    if tol <= 0:
        raise ParameterError("tail tolerance must be positive")
    k = bisect.bisect_left(range(2**53 + 1), True, key=passes)
    if k > 2**53:
        raise WindowResourceError(
            f"window at t={t} needs indices beyond 2^53 for tail {tol}", needed=k, cap=2**53)
    return k


@dataclass(frozen=True)
class WeightFamily:
    """A weight family with its closed-form limits, tail bounds and moduli.

    Each built-in family is a subclass that sets the class attribute `kind`
    and owns its formulas: the `_weight_sq` and `_s` hooks, the tail bounds
    (closed forms that do not cancel, from which `solve_k_hi` and
    `solve_k_lo` bisect the window edges), the moduli and `wconst_analytic`.
    `_weight_sq(t, k, out, work)` and `_s` write their values into `out`,
    with `work` as the one intermediate, so a caller that walks many index
    blocks reuses both.  A bilateral family has w_t(k)^2 = alpha + beta g(tk)
    with an odd profile g and sets `_spread` = beta g(+inf), so w_plus^2,
    w_minus^2 = alpha +- spread; the base `_from_params` checks the
    parameters with it.  The base methods
    treat the index set as Z (`domain` is the annulus); the disk family
    overrides the ones that look below k = 0.  Build families with
    `make_family`, which validates the parameters.
    """

    alpha: float
    beta: float
    w_plus: float
    w_minus: float
    domain = Domain.ANNULUS

    # weight_sq, s and solve_k_hi are defined on this class only: the
    # benchmark tracer (perfbench/spans.py) wraps them here, so an override in
    # a subclass would bypass it and its weights.* metrics would read 0.
    # tests/test_weights.py fails on such an override.

    def weight_sq(self, t, k, dtype=np.float64, *, out=None, work=None):
        """w_t(k)^2, vectorized over k; disk indices k < 0 give 0.

        `dtype` selects the working precision (np.longdouble is used by the
        inverse-residual pipeline, where rounding is amplified by 1/S).
        `out` receives the values and `work` holds the formula's one
        intermediate: arrays of k's shape and `dtype`, distinct from k and
        from each other, allocated when not given.  Either way the values
        are the same bits.
        """
        _check_t(t)
        return self._evaluate(self._weight_sq, t, k, dtype, out, work)

    def weight(self, t, k):
        """w_t(k), vectorized over k."""
        return np.sqrt(self.weight_sq(t, k))

    def s(self, t, k, dtype=np.float64, *, out=None, work=None):
        """S_t(k) = w_t(k)^2 - w_t(k-1)^2 via cancellation-free closed forms.

        `out` and `work` as in weight_sq.
        """
        _check_t(t)
        return self._evaluate(self._s, t, k, dtype, out, work)

    @staticmethod
    def _evaluate(hook, t, k, dtype, out, work):
        """hook(t, k, out, work), which writes the values into `out`.

        A scalar k gives a scalar when `out` is allocated here.
        """
        k = np.asarray(k, dtype=dtype)
        val = hook(t, k, np.empty_like(k) if out is None else out,
                   np.empty_like(k) if work is None else work)
        return val if out is not None or val.ndim else val[()]

    def check_window(self, k_lo, k_hi):
        """(k_lo, k_hi) as ints; ParameterError unless a nonempty window of the index set."""
        k_lo, k_hi = int(k_lo), int(k_hi)
        if k_lo > k_hi:
            raise ParameterError(f"empty index window [{k_lo}, {k_hi}]")
        return k_lo, k_hi

    # -- tail bounds and truncation solves --------------------------------

    def tail_bound_hi(self, t, k_hi):
        """w_plus^2 - w_t(k_hi)^2, the omitted upper S-mass beyond k_hi."""
        return self.w_plus**2 - float(self.weight_sq(t, k_hi))

    def tail_bound_lo(self, t, k_lo):
        """w_t(k_lo)^2 - w_minus^2, the omitted lower S-mass below k_lo."""
        return float(self.weight_sq(t, k_lo)) - self.w_minus**2

    def solve_k_hi(self, t, tol):
        """Smallest k >= 0 with tail_bound_hi(t, k) <= tol (see _least_passing)."""
        return _least_passing(lambda k: self.tail_bound_hi(t, k) <= tol, t, tol)

    def solve_k_lo(self, t, tol):
        """Largest k <= 0 with tail_bound_lo(t, k) <= tol (see _least_passing)."""
        return -_least_passing(lambda j: self.tail_bound_lo(t, -j) <= tol, t, tol)

    # -- closed-form moduli (where the family admits them) -----------------

    def h2_closed(self, t):
        """sup_k |1 - S_t(k+1)/S_t(k)| in closed form, or None."""
        return None

    def h3_closed(self, k):
        """sup_t |1 - w_t(k-1)/w_t(k)| in closed form, or None."""
        return None

    def h3_closed_stable(self, k):
        """Cancellation-free rationalization of h3_closed, or None."""
        return None

    # -- parameters ---------------------------------------------------------

    @classmethod
    def _from_params(cls, alpha, beta):
        """The family with these parameters; ParameterError unless admissible.

        Rejects missing, bool, string and non-finite parameters, and ones whose
        limits come out as w_minus >= w_plus (or w_plus = inf) in floating point.
        """
        name = cls.kind.value
        if alpha is None or beta is None:
            raise ParameterError(f"{name} requires alpha and beta")
        if isinstance(alpha, (bool, str)) or isinstance(beta, (bool, str)):
            raise ParameterError(f"{name} alpha and beta must be numbers, got {alpha!r}, {beta!r}")
        alpha, beta = float(alpha), float(beta)
        spread = cls._spread(beta)      # w_plus^2 - alpha = alpha - w_minus^2
        if not (beta > 0 and alpha > spread):
            raise ParameterError(
                f"{name} requires alpha > {cls._spread_text} > 0 "
                f"(got alpha={alpha}, beta={beta}: w_minus^2 = {alpha - spread} "
                "must be positive)")
        w_plus, w_minus = math.sqrt(alpha + spread), math.sqrt(alpha - spread)
        # a non-finite parameter gets here as w_plus = inf (or fails above)
        if not w_minus < w_plus < math.inf:
            raise ParameterError(f"{name} needs finite alpha, beta and w_minus < w_plus; got alpha="
                                 f"{alpha}, beta={beta}: w_minus = {w_minus}, w_plus = {w_plus}")
        return cls(alpha, beta, w_plus, w_minus)


class UnilateralExample(WeightFamily):
    """w_t(k)^2 = (k+1)t / (1 + (k+1)t) on the disk (k >= 0)."""

    kind = FamilyKind.UNILATERAL_EXAMPLE
    domain = Domain.DISK

    @classmethod
    def _from_params(cls, alpha, beta):
        if alpha is not None or beta is not None:
            raise ParameterError("unilateral_example takes no alpha/beta parameters")
        return cls(alpha=0.0, beta=0.0, w_plus=1.0, w_minus=0.0)

    def _weight_sq(self, t, k, out, work):
        # m / (1 + m) with m = (k + 1) t
        np.add(k, 1.0, out=out)
        out *= t
        np.add(out, 1.0, out=work)
        out /= work
        return _zero_below_disk(k, out, work)

    def _s(self, t, k, out, work):
        # t / ((1 + k t) (1 + (k + 1) t))
        np.multiply(k, t, out=out)
        out += 1.0
        np.add(k, 1.0, out=work)
        work *= t
        work += 1.0
        out *= work
        np.divide(t, out, out=out)
        return _zero_below_disk(k, out, work)

    def check_window(self, k_lo, k_hi):
        k_lo, k_hi = super().check_window(k_lo, k_hi)
        if k_lo != 0:
            raise ParameterError("disk windows start at k_lo = 0")
        return k_lo, k_hi

    def tail_bound_hi(self, t, k_hi):
        _check_t(t)
        return 1.0 / (1.0 + (k_hi + 1.0) * t)

    def tail_bound_lo(self, t, k_lo):
        """w_t(k_lo)^2 - w_minus^2; zero at the disk's first index k_lo = 0."""
        _check_t(t)
        return float(self.weight_sq(t, k_lo)) if k_lo > 0 else 0.0

    def h1_closed(self, t):
        """sup_k S_t(k) in closed form."""
        return t / (1.0 + t)

    def h2_closed(self, t):
        return 2.0 * t / (1.0 + 2.0 * t)

    def h3_closed(self, k):
        k = np.asarray(k, dtype=np.float64)
        # attained as t -> 0+, where w_t(k-1)/w_t(k) -> sqrt(k/(k+1))
        return 1.0 - np.sqrt(np.maximum(k, 0.0) / (k + 1.0))

    def h3_closed_stable(self, k):
        k = np.asarray(k, dtype=np.float64)
        return 1.0 / (k + 1.0 + np.sqrt(np.maximum(k * k + k, 0.0)))

    def wconst_analytic(self):
        """t-independent upper bound on w_t(k)/w_t(k-1) over k >= 1.

        k = 0 is excluded, where w_t(-1) = 0 makes the ratio infinite.
        """
        return math.sqrt(2.0)  # sup_(k>=1) sqrt((k+1)/k) as t -> 0+


class BilateralRational(WeightFamily):
    """w_t(k)^2 = alpha + beta*t*k/(1 + t|k|) on the annulus, alpha > beta > 0."""

    kind = FamilyKind.BILATERAL_RATIONAL

    _spread_text = "beta"

    @staticmethod
    def _spread(beta):
        return beta

    def _weight_sq(self, t, k, out, work):
        # alpha + (beta t) k / (1 + t |k|)
        np.abs(k, out=work)
        work *= t
        work += 1.0
        np.multiply(k, self.beta * t, out=out)
        out /= work
        out += self.alpha
        return out

    def _s(self, t, k, out, work):
        # (beta t) / ((1 + t |k|) (1 + t |k - 1|))
        np.abs(k, out=out)
        out *= t
        out += 1.0
        np.subtract(k, 1.0, out=work)
        np.abs(work, out=work)
        work *= t
        work += 1.0
        out *= work
        np.divide(self.beta * t, out, out=out)
        return out

    def tail_bound_hi(self, t, k_hi):
        return self._tail(t, k_hi) if k_hi >= 0 else super().tail_bound_hi(t, k_hi)

    def tail_bound_lo(self, t, k_lo):
        return self._tail(t, k_lo) if k_lo <= 0 else super().tail_bound_lo(t, k_lo)

    def _tail(self, t, k):
        """beta/(1 + t|k|): both tails in closed form, from k = 0 outwards."""
        _check_t(t)
        return self.beta / (1.0 + t * abs(k))

    def h1_closed(self, t):
        """sup_k S_t(k) in closed form."""
        return self.beta * t / (1.0 + t)

    def h2_closed(self, t):
        return 2.0 * t

    def wconst_analytic(self):
        """t-independent upper bound on w_t(k)/w_t(k-1) over Z."""
        return math.sqrt(self.alpha / (self.alpha - self.beta / 2.0))


class BilateralArctan(WeightFamily):
    """w_t(k)^2 = alpha + beta*arctan(t*k) on the annulus, alpha > beta*pi/2 > 0."""

    kind = FamilyKind.BILATERAL_ARCTAN

    _spread_text = "beta*pi/2"

    @staticmethod
    def _spread(beta):
        return beta * math.pi / 2.0

    def _weight_sq(self, t, k, out, work):
        # alpha + beta arctan(t k)
        np.multiply(k, t, out=out)
        np.arctan(out, out=out)
        out *= self.beta
        out += self.alpha
        return out

    def _s(self, t, k, out, work):
        # arctan(a) - arctan(b) = arctan((a-b)/(1+ab)); here a*b >= 0.
        # beta arctan(t / (1 + (t t) k (k - 1)))
        np.multiply(k, t * t, out=out)
        np.subtract(k, 1.0, out=work)
        out *= work
        out += 1.0
        np.divide(t, out, out=out)
        np.arctan(out, out=out)
        out *= self.beta
        return out

    def tail_bound_hi(self, t, k_hi):
        """beta (pi/2 - arctan(t k_hi)) as beta atan2(1, t k_hi), which never cancels."""
        _check_t(t)
        return self.beta * math.atan2(1.0, t * k_hi)

    def tail_bound_lo(self, t, k_lo):
        """beta (arctan(t k_lo) + pi/2) as beta atan2(1, -t k_lo)."""
        _check_t(t)
        return self.beta * math.atan2(1.0, -t * k_lo)

    def h1_closed(self, t):
        """sup_k S_t(k) in closed form."""
        return self.beta * math.atan(t)

    def wconst_analytic(self):
        """t-independent upper bound on w_t(k)/w_t(k-1) over Z."""
        return math.sqrt(self.alpha / (self.alpha - self.beta * math.pi / 4.0))


_FAMILIES = {c.kind: c for c in (UnilateralExample, BilateralRational, BilateralArctan)}


def make_family(kind, alpha=None, beta=None, domain=None) -> WeightFamily:
    """Build a weight family, validating its parameter invariants.

    `kind` may be a FamilyKind or its string value.  `domain`, if given, must
    agree with the one the kind implies.  Adding a family means one
    WeightFamily subclass plus its entry in `_FAMILIES`.
    """
    try:
        kind = FamilyKind(kind)
    except ValueError:
        raise ParameterError(f"unknown weight family kind {kind!r}") from None
    fam = _FAMILIES[kind]._from_params(alpha, beta)
    if domain is not None and Domain(domain) is not fam.domain:
        raise ParameterError(f"{kind.value} lives on the {fam.domain.value}, "
                             f"not the {Domain(domain).value}")
    return fam


def s_ratio_margin(family: WeightFamily, t: float, n: int, window) -> float:
    """Certification margin for the S-ratio bound at band offset n.

    Returns  min over the window of  (2 + h2)^(n-1) * h2 - |S_t(k+n)/S_t(k) - 1|
    with h2 taken as the window supremum of the n = 1 ratio, so a nonnegative
    value certifies the bound numerically and the n = 1 margin is exactly 0.
    """
    if n < 1:
        raise ParameterError("band offset n must be >= 1")
    k_lo, k_hi = family.check_window(window[0], window[1])
    ks = np.arange(k_lo, k_hi + n + 1)
    s = family.s(t, ks)
    m = k_hi - k_lo + 1
    ratio1 = np.abs(s[1:m + 1] / s[:m] - 1.0)
    h2 = float(np.max(ratio1))
    ratio_n = np.abs(s[n:n + m] / s[:m] - 1.0)
    return (2.0 + h2) ** (n - 1) * h2 - float(np.max(ratio_n))


@dataclass(frozen=True)
class ConditionReport:
    """Numerical verification record for the weight-family conditions."""

    t_grid: tuple
    window: tuple
    tail_index: int
    h1_values: tuple          # per t: sup_k S_t(k)
    h2_values: tuple          # per t: sup_k |1 - S_t(k+1)/S_t(k)|
    h3_values: np.ndarray     # per k in window: sup over t-grid of |1 - w(k-1)/w(k)|
    h1_closed: tuple          # per t, or None entries when no closed form
    h2_closed: tuple
    h3_closed: np.ndarray     # per k, or None
    h3_closed_cross: float    # max |h3_closed - its rationalized form| (nan if none)
    monotonicity_ok: bool
    positivity_ok: bool
    limit_deviation_hi: tuple  # per t: max_{k >= M} |w_t(k) - w_plus|
    limit_deviation_lo: tuple  # per t (annulus only, else None)
    trace_deviation: tuple     # per t: |sum_window S_t - (w_plus^2 - w_minus^2)|
    trace_tail_bound: tuple    # per t: analytic bound the deviation must respect
    const_wratio: float        # empirical sup of w_t(k)/w_t(k-1) (k >= 1 on disk)
    const_wratio_identity: float  # 1/(1 - max_k h3(k)) over the same k-range

    def violations(self):
        """Names of violated conditions (empty when everything checks out)."""
        bad = []
        if not self.monotonicity_ok:
            bad.append("monotonicity")
        if not self.positivity_ok:
            bad.append("positivity")
        ts = np.array(self.t_grid)
        order = np.argsort(-ts)  # descending t
        for name, vals in (("h1_decay", self.h1_values), ("h2_decay", self.h2_values)):
            v = np.array(vals)[order]
            if np.any(np.diff(v) > 1e-15):
                bad.append(name)
        for dev, bound in zip(self.trace_deviation, self.trace_tail_bound):
            if dev > bound * (1.0 + 1e-12) + 1e-15:
                bad.append("trace_tail")
                break
        for emp, ref in ((self.h1_values, self.h1_closed), (self.h2_values, self.h2_closed)):
            for e, r in zip(emp, ref):
                if r is not None and abs(e - r) > 1e-12:
                    bad.append("closed_form_moduli")
                    break
        if abs(self.const_wratio - self.const_wratio_identity) > 1e-12:
            bad.append("wconst_identity")
        return bad


def _max_distance(vals, limit, out) -> float:
    """max |vals - limit|, computed in `out` (of vals' size); NaN for no vals."""
    if vals.size == 0:
        return float("nan")
    np.subtract(vals, limit, out=out)
    return float(np.max(np.abs(out, out=out)))


def condition_report(family: WeightFamily, t_grid, window, tail_index: int) -> ConditionReport:
    """Scan the weight conditions over a t-grid and an index window.

    Suprema over the infinite index set are evaluated on the window; for the
    built-in families the true sups are attained at small |k| (h1, h2) or in
    the t -> 0 limit (h3), so the report also carries closed-form reference
    values where the family provides them.

    Every array of a t is computed in buffers allocated once per call.
    """
    if len(t_grid) == 0:
        raise ParameterError("t_grid must be nonempty")
    k_lo, k_hi = family.check_window(window[0], window[1])
    M = int(tail_index)
    if not (k_lo <= M <= k_hi):
        raise ParameterError("tail_index must lie inside the window")
    ks = np.arange(k_lo, k_hi + 1)
    trace_total = family.w_plus**2 - family.w_minus**2
    k_ext = np.arange(k_lo - 1, k_hi + 2, dtype=np.float64)    # exact integers
    s, w_ext, work = np.empty((3, ks.size + 1))
    tmp = work[:ks.size]
    valid = np.empty(ks.size, dtype=bool)
    # ks increases, so ks >= M and ks <= -M select a suffix and a prefix
    tail_hi, tail_lo = slice(M - k_lo, None), slice(0, max(0, -M - k_lo + 1))

    h1, h2, lim_hi, lim_lo, tr_dev, tr_bound = [], [], [], [], [], []
    mono_ok = pos_ok = True
    h3 = np.zeros(ks.size)
    ratio_max = 0.0
    for t in t_grid:
        family.s(t, k_ext[1:], out=s, work=work)               # S(k_lo)..S(k_hi + 1)
        family.weight_sq(t, k_ext[:-1], out=w_ext, work=work)
        np.sqrt(w_ext, out=w_ext)                               # w(k_lo - 1)..w(k_hi)
        w, wm1 = w_ext[1:], w_ext[:-1]                          # w(k), w(k - 1)
        mono_ok = mono_ok and bool(np.all(np.greater(s[:-1], 0.0, out=valid)))
        pos_ok = pos_ok and bool(np.all(np.greater(w, 0.0, out=valid)))
        h1.append(float(np.max(s[:-1])))
        np.divide(s[1:], s[:-1], out=tmp)
        tmp -= 1.0
        h2.append(float(np.max(np.abs(tmp, out=tmp))))
        lim_hi.append(_max_distance(w[tail_hi], family.w_plus, tmp[tail_hi]))
        lim_lo.append(_max_distance(w[tail_lo], family.w_minus, tmp[tail_lo])
                      if family.domain is Domain.ANNULUS else None)
        tr_dev.append(abs(float(np.sum(s[:-1])) - trace_total))
        tr_bound.append(family.tail_bound_hi(t, k_hi) + family.tail_bound_lo(t, k_lo))
        np.greater(wm1, 0.0, out=valid)
        tmp.fill(1.0)                       # |1 - wm1 / max(w, 1e-300)| where valid, else 1
        np.maximum(w, 1e-300, out=tmp, where=valid)
        np.divide(wm1, tmp, out=tmp, where=valid)
        np.subtract(1.0, tmp, out=tmp, where=valid)
        np.abs(tmp, out=tmp, where=valid)
        np.maximum(h3, tmp, out=h3)
        tmp.fill(0.0)                       # w / wm1 where valid, else 0
        np.divide(w, wm1, out=tmp, where=valid)
        ratio_max = max(ratio_max, float(np.max(tmp)))

    h3_ref = family.h3_closed(ks)
    h3_stable = family.h3_closed_stable(ks)
    h3_cross = float(np.max(np.abs(h3_ref - h3_stable))) \
        if h3_ref is not None else float("nan")
    # on the disk k = 0 is left out, where w_t(-1) = 0 makes the ratio infinite
    h3_for_const = float(np.max(h3[ks >= 1] if family.domain is Domain.DISK else h3))
    return ConditionReport(
        t_grid=tuple(t_grid), window=(k_lo, k_hi), tail_index=M,
        h1_values=tuple(h1), h2_values=tuple(h2), h3_values=h3,
        h1_closed=tuple(family.h1_closed(t) for t in t_grid),
        h2_closed=tuple(family.h2_closed(t) for t in t_grid),
        h3_closed=h3_ref if h3_ref is not None else None,
        h3_closed_cross=h3_cross,
        monotonicity_ok=mono_ok, positivity_ok=pos_ok,
        limit_deviation_hi=tuple(lim_hi), limit_deviation_lo=tuple(lim_lo),
        trace_deviation=tuple(tr_dev), trace_tail_bound=tuple(tr_bound),
        const_wratio=ratio_max,
        const_wratio_identity=1.0 / (1.0 - h3_for_const),
    )
