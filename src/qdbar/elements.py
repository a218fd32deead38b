"""Finite band sums over a weight family and their two norms.

An element is a finite sum  sum_n U^n f_n(w_t(k)^2) + sum_n g_n(w_t(k)^2) (U*)^n
with continuous coefficient functions of s = r^2 on [w_minus^2, w_plus^2]
(U is the unweighted shift).  Realized at a parameter t it becomes a banded
matrix over a truncation window; at t = 0 it is the function
sum f_n(r^2) e^{i n phi} + sum g_n(r^2) e^{-i n phi} on the disk/annulus.
Bands are keyed by one signed index b, as in the banded matrix: b = n > 0
for f_n, b = -n < 0 for g_n and b = 0 for the diagonal.  The config's
(side, n) pairs are mapped to b in make_element and back in
export_band_spec.

The quantum norm is the weighted trace norm  tr(S^(1/2) a S^(1/2) a*)^(1/2);
the classical norm is L^2 with respect to d(r^2) x (dphi / 2 pi).  Both are
implemented band-wise with deterministic summation order.

Streamed band primitives walk the window in fixed blocks of BLOCK indices,
bottom-up or top-down.  Each block evaluates w^2 and S once for all bands,
over the block and the halo of indices its band offsets read, so the
working set is O(BLOCK x bands) whatever the window size; only the output
bands a caller asks for are window-sized.  The block size and the walk
order are fixed, so every sum comes out the same on every run.

The blocks of a walk are split between two workers where the process may
run on two CPUs (`_ordered_blocks`): the caller and one thread, taking
block numbers in walk order from one counter.  Each worker has its own
buffers, allocated once per walk, and refills them for every block.
A block's partial sums are returned in block order and added up by the
caller, and a value one block needs from the block before (the carry of a
Q_t scan in qdbar.operators) is handed on through a `_Relay` as soon as
it is ready.  So lambda_norm_sq and the Q_t walks give the same floats at
one worker or two.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapabilityError, DivergentIntegralError, ParameterError, WindowResourceError,
)
from .weights import WeightFamily

BLOCK = 1 << 16  # indices per streamed block: a walk's buffers are 512 KiB each in float64
DEFAULT_K_CAP = 20_000_000  # largest window index a run may need
# |min_power| of a half_power spec: its exact transforms hold one coefficient
# per half power between 0 and min_power, so this bounds their size
MAX_HALF_POWER = 1024


# ---------------------------------------------------------------------------
# coefficient functions
# ---------------------------------------------------------------------------

class PowerSum:
    """Finite sum  sum_j a_j s^(j/2)  over half-integer powers j/2.

    Polynomials in s use even j >= 0, sqrt(s)-scaled polynomials odd j >= 1.
    Negative powers appear only as images of the d-bar operator at t = 0.
    """

    def __init__(self, coeffs, min_power_half: int = 0):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.size == 0:
            raise ParameterError("empty polynomial coefficient list")
        # trim leading/trailing zeros but keep at least one coefficient
        nz = np.nonzero(coeffs)[0]
        if nz.size == 0:
            coeffs = np.zeros(1)
        else:
            min_power_half += int(nz[0])
            coeffs = coeffs[nz[0]:nz[-1] + 1]
        self.coeffs = coeffs
        self.min_power_half = min_power_half if nz.size else 0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def poly(coeffs):
        """Polynomial in s with ascending coefficients."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.size == 0:
            raise ParameterError("empty polynomial coefficient list")
        out = np.zeros(2 * coeffs.size - 1)
        out[::2] = coeffs
        return PowerSum(out, 0)

    @staticmethod
    def sqrt_poly(coeffs):
        """sqrt(s) times a polynomial in s, ascending coefficients."""
        return PowerSum.poly(coeffs).shift_half_power(1)

    # -- protocol ----------------------------------------------------------

    def __call__(self, s, out=None, work=None):
        """The sum at s (float64 unless s is longdouble).

        `out` receives the values and `work` holds sqrt(s) or the power
        factor: arrays of s's shape and dtype, allocated when not given.
        """
        s = np.asarray(s)
        if s.dtype != np.longdouble:
            s = s.astype(np.float64, copy=False)
        val = np.empty_like(s) if out is None else out
        odd = self.coeffs[1::2].any()
        m = self.min_power_half
        if work is None and (odd or m):
            work = np.empty_like(s)
        if odd:                         # both parities of j: Horner in r
            x, coeffs = np.sqrt(s, out=work), self.coeffs
        else:                           # poly and sqrt_poly: Horner in s
            x, coeffs = s, self.coeffs[::2]
        if coeffs.size == 1:
            val.fill(coeffs[0])
        else:
            np.multiply(x, coeffs[-1], out=val)
            val += coeffs[-2]
            for a in coeffs[-3::-1]:
                val *= x
                val += a
        if m and not val.ndim:          # numpy scalars: their power is not the array loop's
            val *= s ** (m // 2) if m % 2 == 0 else np.sqrt(s) ** m
        elif m:                         # times s^(m/2); x is no longer needed
            if m % 2 == 0:
                np.copyto(work, s)
                work **= m // 2         # the same fast paths as s ** (m // 2)
            else:
                np.sqrt(s, out=work)
                work **= m
            val *= work
        if out is not None or val.ndim:
            return val
        return val[()]                  # a scalar for a scalar input

    def derivative(self) -> "PowerSum":
        j = self.min_power_half + np.arange(self.coeffs.size)
        return PowerSum(self.coeffs * (j / 2.0), self.min_power_half - 2)

    def antiderivative(self):
        """(A, c) with A(s) + c log s an antiderivative.

        u^(j/2) integrates to u^(j/2+1) / (j/2+1), and to log u at j = -2.
        """
        e = (self.min_power_half + np.arange(self.coeffs.size)) / 2.0 + 1.0
        log_term = e == 0.0
        return (PowerSum(np.divide(self.coeffs, e, out=np.zeros_like(e),
                                   where=~log_term), self.min_power_half + 2),
                float(self.coeffs[log_term].sum()))

    def shift_half_power(self, shift: int) -> "PowerSum":
        """Multiply by s^(shift/2)."""
        return PowerSum(self.coeffs, self.min_power_half + shift)

    def scale(self, c: float) -> "PowerSum":
        return PowerSum(self.coeffs * c, self.min_power_half)

    def __add__(self, other):
        if not isinstance(other, PowerSum):
            return NotImplemented
        lo = min(self.min_power_half, other.min_power_half)
        hi = max(self.min_power_half + self.coeffs.size,
                 other.min_power_half + other.coeffs.size)
        out = np.zeros(hi - lo)
        out[self.min_power_half - lo:self.min_power_half - lo + self.coeffs.size] += self.coeffs
        out[other.min_power_half - lo:other.min_power_half - lo + other.coeffs.size] += other.coeffs
        return PowerSum(out, lo)

    def __mul__(self, other):
        if not isinstance(other, PowerSum):
            return NotImplemented
        return PowerSum(np.convolve(self.coeffs, other.coeffs),
                        self.min_power_half + other.min_power_half)

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))

    def __eq__(self, other):
        if not isinstance(other, PowerSum):
            return NotImplemented
        return (self.min_power_half == other.min_power_half
                and self.coeffs.shape == other.coeffs.shape
                and bool(np.all(self.coeffs == other.coeffs)))

    def __repr__(self):
        return f"PowerSum({self.coeffs.tolist()}, min_power_half={self.min_power_half})"

    @property
    def kind(self) -> str:
        j = self.min_power_half + np.arange(self.coeffs.size)
        used = j[self.coeffs != 0.0]
        if used.size == 0 or (np.all(used % 2 == 0) and np.all(used >= 0)):
            return "poly"
        if np.all(used % 2 == 1) and np.all(used >= 1):
            return "sqrt_poly"
        return "half_power"


class Transform:
    """Closed-form coefficient  P(s) + Q(s) log s  with PowerSums P and Q.

    Built as  scale * s^(p/2) * I(s)  over a PowerSum integrand phi, with
    I(s) = int_{c0}^{s} phi(u) du   (moving='upper')
    or I(s) = int_{s}^{c0} phi(u) du   (moving='lower').
    With (A, c) = phi.antiderivative(), I(s) = +-(A(s) + c log s - A(c0) -
    c log c0), so P carries A, the constant A(c0) + c log c0, the sign and
    `scale`, and Q = +-scale c s^(p/2).  The type is closed under
    `derivative`, `shift_half_power`, `scale` and `+`, so the classical d-bar
    operator maps it to itself exactly.  A fixed endpoint where the
    antiderivative is not finite (a term u^(j/2) with j <= -2 integrated from
    0) makes the integral diverge and raises DivergentIntegralError.
    """

    def __init__(self, prefactor_half_power: int, integrand, fixed_endpoint: float,
                 moving: str, scale: float = 1.0):
        if moving not in ("upper", "lower"):
            raise ParameterError("moving must be 'upper' or 'lower'")
        if not isinstance(integrand, PowerSum):
            raise CapabilityError("exact transforms need a PowerSum integrand")
        A, c = integrand.antiderivative()
        c0 = np.float64(fixed_endpoint)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a0 = float(A(c0) + (c * np.log(c0) if c else 0.0))
        if not math.isfinite(a0):
            raise DivergentIntegralError(
                f"integral of {integrand!r} diverges at the fixed endpoint {float(c0)}")
        sign = scale if moving == "upper" else -scale
        self.P = (A + PowerSum([-a0])).scale(sign).shift_half_power(prefactor_half_power)
        self.Q = PowerSum([sign * c], prefactor_half_power)

    @classmethod
    def _from_parts(cls, P: PowerSum, Q: PowerSum) -> "Transform":
        out = cls.__new__(cls)
        out.P, out.Q = P, Q
        return out

    def __call__(self, s, out=None, work=None):
        """P(s) + Q(s) log s in float64; `out` and `work` as in PowerSum.

        Only the log term allocates when both are given.
        """
        arr = np.asarray(s, dtype=np.float64)
        val = self.P(arr, out=out, work=work)
        if not self.Q.is_zero():
            val += self.Q(arr) * np.log(arr)
        return float(val) if np.isscalar(s) else val

    def derivative(self) -> "Transform":
        """(P + Q log s)' = P' + Q s^(-1) + Q' log s."""
        return Transform._from_parts(
            self.P.derivative() + self.Q.shift_half_power(-2), self.Q.derivative())

    def shift_half_power(self, shift: int) -> "Transform":
        """Multiply by s^(shift/2)."""
        return Transform._from_parts(self.P.shift_half_power(shift),
                                     self.Q.shift_half_power(shift))

    def scale(self, c: float) -> "Transform":
        return Transform._from_parts(self.P.scale(c), self.Q.scale(c))

    def __add__(self, other):
        if not isinstance(other, Transform):
            return NotImplemented
        return Transform._from_parts(self.P + other.P, self.Q + other.Q)

    def is_zero(self) -> bool:
        return self.P.is_zero() and self.Q.is_zero()


def is_integer(value) -> bool:
    """An integer (a numpy integer too) that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _coeff_from_spec(entry):
    if "fn" in entry:
        if not callable(entry["fn"]):
            raise ParameterError(f"a band's fn must be callable, got {entry['fn']!r}")
        return entry["fn"]
    kind = entry.get("kind")
    coeffs = entry.get("coeffs")
    if kind == "poly":
        coeff = PowerSum.poly(coeffs)
    elif kind == "sqrt_poly":
        coeff = PowerSum.sqrt_poly(coeffs)
    elif kind == "half_power":
        min_power = entry.get("min_power", 0)
        if not (is_integer(min_power) and abs(min_power) <= MAX_HALF_POWER):
            raise ParameterError("half_power min_power must be an integer within "
                                 f"+-{MAX_HALF_POWER}, got {min_power!r}")
        coeff = PowerSum(coeffs, int(min_power))
    else:
        raise ParameterError(f"unknown coefficient kind {kind!r}")
    if not np.isfinite(coeff.coeffs).all():
        raise ParameterError(f"coefficients must be finite, got {coeffs!r}")
    return coeff


def _sample(coeff, s, out, work):
    """coeff(s), written into `out` for the coefficient types that take it."""
    if isinstance(coeff, (PowerSum, Transform)):
        return coeff(s, out=out, work=work)
    return coeff(s)


def _add_coeffs(a, b):
    if a is None:
        return b
    if isinstance(a, PowerSum) and isinstance(b, PowerSum):
        return a + b
    raise ParameterError("only polynomial-type coefficients can be merged onto one band")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@dataclass
class LambdaElement:
    """Canonical finite band sum, one coefficient per signed band index b.

    The keys follow BandMatrix: b > 0 is f_b (entries (k+b, k)), b < 0 is
    g_|b| (entries (k, k+|b|)) and b = 0 is the diagonal.  The d-bar operator
    raises every key by one and the parametrix lowers it by one.
    """

    by_band: dict = field(default_factory=dict)   # b -> coefficient

    @property
    def N(self) -> int:
        return max([0, *map(abs, self.by_band)])

    def bands(self):
        """(b, coeff) in deterministic order: b = 0, 1, 2, ..., then -1, -2, ...."""
        for b in sorted(self.by_band, key=lambda b: (b < 0, abs(b))):
            yield b, self.by_band[b]

    def export_band_spec(self):
        """The config band spec ({side, n, kind, coeffs}) make_element reads back."""
        out = []
        for b, coeff in self.bands():
            if not isinstance(coeff, PowerSum):
                raise CapabilityError("only polynomial-type coefficients can be exported")
            kind = coeff.kind
            side = "diag" if b == 0 else "f" if b > 0 else "g"
            entry = {"side": side, "n": abs(b), "kind": kind}
            if kind in ("poly", "sqrt_poly"):   # s^0 or s^(1/2) times a polynomial in s
                entry["coeffs"] = [0.0] * (coeff.min_power_half // 2) + coeff.coeffs[::2].tolist()
            else:
                entry["coeffs"] = list(coeff.coeffs)
                entry["min_power"] = coeff.min_power_half
            out.append(entry)
        return out


def make_element(band_spec, name: str = "element") -> LambdaElement:
    """Build a canonical element from a band spec list.

    Entries are {side: f|g|diag, n, fn} (or kind/coeffs in place of fn); side
    f with n is band b = n, side g with n is band b = -n.  f/g entries with
    n = 0 are diagonal contributions and are merged into the single band
    b = 0; duplicate (side, n) pairs are rejected.  Error messages call the
    spec `name` and its entries name[i].
    """
    if not (isinstance(band_spec, (list, tuple)) and band_spec):
        raise ParameterError(f"{name} must be a nonempty list of band entries, got {band_spec!r}")
    seen = set()
    by_band = {}
    for i, entry in enumerate(band_spec):
        if not isinstance(entry, dict):
            raise ParameterError(f"{name}[{i}] must be an object, got {entry!r}")
        side = entry.get("side")
        n = entry.get("n", 0)
        if side not in ("f", "g", "diag"):
            raise ParameterError(f"{name}[{i}].side must be 'f', 'g' or 'diag', got {side!r}")
        if not (is_integer(n) and n >= 0):
            raise ParameterError(f"{name}[{i}].n must be a nonnegative integer, got {n!r}")
        n = int(n)
        if side == "diag" and n != 0:
            raise ParameterError(f"{name}[{i}] is diagonal and must have n = 0")
        key = (side, n)
        if key in seen:
            raise ParameterError(f"{name}[{i}] is a duplicate band side={side!r}, n={n}")
        seen.add(key)
        b = -n if side == "g" else n
        by_band[b] = _add_coeffs(by_band.get(b), _coeff_from_spec(entry))
    return LambdaElement(by_band)


def coordinate_element(name: str) -> LambdaElement:
    """The unit (band 0), the complex coordinate z (band 1) or its adjoint zbar (band -1)."""
    b = {"one": 0, "z": 1, "zbar": -1}.get(name)
    if b is None:
        raise ParameterError(f"unknown coordinate element {name!r}")
    return LambdaElement({b: PowerSum.sqrt_poly([1.0]) if b else PowerSum.poly([1.0])})


# ---------------------------------------------------------------------------
# truncation windows and band matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexWindow:
    """Finite index range with the omitted-S-mass bounds it guarantees."""

    k_lo: int
    k_hi: int
    tail_tol: float
    tail_bound_hi: float
    tail_bound_lo: float

    @property
    def size(self) -> int:
        return self.k_hi - self.k_lo + 1


def truncation_window(family: WeightFamily, t: float, tail_tol: float,
                      k_cap: int = DEFAULT_K_CAP) -> IndexWindow:
    """Smallest window whose tail bounds are <= tail_tol (closed-form solve).

    The cap is checked against the closed-form guess before the exact solve,
    so a window far beyond the cap fails without searching for its edge.
    """
    guess = family.k_hi_guess(t, tail_tol)   # raises on tail_tol <= 0
    if guess - 2.0 > k_cap:
        raise WindowResourceError(
            f"window at t={t} needs indices out to about {guess:.6g}, beyond the cap {k_cap}",
            needed=math.ceil(guess) if math.isfinite(guess) else guess, cap=k_cap)
    k_hi = family.solve_k_hi(t, tail_tol)
    k_lo = family.solve_k_lo(t, tail_tol)
    needed = max(k_hi, abs(k_lo))
    if needed > k_cap:
        raise WindowResourceError(
            f"window at t={t} needs indices out to {needed}, beyond the cap {k_cap}",
            needed=needed, cap=k_cap)
    return IndexWindow(k_lo=k_lo, k_hi=k_hi, tail_tol=tail_tol,
                       tail_bound_hi=family.tail_bound_hi(t, k_hi),
                       tail_bound_lo=family.tail_bound_lo(t, k_lo))


def window_from_range(family: WeightFamily, t: float, k_lo: int, k_hi: int) -> IndexWindow:
    """Window over an explicit range, carrying the bounds it actually achieves."""
    k_lo, k_hi = family.check_window(k_lo, k_hi)
    hi = family.tail_bound_hi(t, k_hi)
    lo = family.tail_bound_lo(t, k_lo)
    return IndexWindow(k_lo=k_lo, k_hi=k_hi, tail_tol=max(hi, lo),
                       tail_bound_hi=hi, tail_bound_lo=lo)


class BandMatrix:
    """Banded truncation of an operator over an index window.

    Band b holds the entries A[col + b, col]; the array for band b covers the
    columns [k_lo + max(0, -b), k_hi - max(0, b)] so every stored entry lies
    inside the window.  `valid_margin` counts how many indices near each
    window edge are untrusted after operator applications.
    """

    def __init__(self, window: IndexWindow, bands: dict, valid_margin: int = 0):
        self.window = window
        self.bands = dict(bands)
        self.valid_margin = valid_margin
        for b, arr in self.bands.items():
            lo, hi = self.band_col_range(b)
            if arr.shape != (max(0, hi - lo + 1),):
                raise ParameterError(f"band {b} array has wrong length {arr.shape}")

    def band_col_range(self, b: int):
        """Inclusive column range for band b."""
        return (self.window.k_lo + max(0, -b), self.window.k_hi - max(0, b))

    def band(self, b: int) -> np.ndarray:
        lo, hi = self.band_col_range(b)
        return self.bands.get(b, np.zeros(max(0, hi - lo + 1)))

    def trusted(self, b: int) -> np.ndarray:
        """Entries of band b with both indices >= valid_margin from the edges."""
        arr = self.band(b)
        m = self.valid_margin
        return arr[m:arr.size - m] if arr.size > 2 * m else arr[:0]

    def __sub__(self, other: "BandMatrix") -> "BandMatrix":
        if (self.window.k_lo, self.window.k_hi) != (other.window.k_lo, other.window.k_hi):
            raise ParameterError("band matrices live on different windows")
        keys = sorted(set(self.bands) | set(other.bands))
        out = {b: self.band(b) - other.band(b) for b in keys}
        return BandMatrix(self.window, out,
                          valid_margin=max(self.valid_margin, other.valid_margin))


class _WindowArrays:
    """w^2, S and (on first use) w = sqrt(w^2) over a range of indices.

    Band-level primitives build one per call (one per walker when
    streaming) and slice it for every band instead of re-evaluating the
    weights per band.  The arrays live in buffers of `capacity` entries
    allocated once: `fill` evaluates them over a range of at most
    `capacity` indices, again and again in the same buffers.
    """

    def __init__(self, family: WeightFamily, t: float, capacity: int, dtype=np.float64):
        self._family, self._t, self._dtype = family, t, dtype
        self._w_sq, self._s, self._w_buf = (np.empty(capacity, dtype=dtype) for _ in range(3))

    def fill(self, start: int, stop: int, k=None) -> "_WindowArrays":
        """Evaluate over [start, stop) in place; earlier views see the new values.

        `k` holds the indices start, ..., stop - 1 (allocated when not
        given); w's buffer is the formulas' work array until w is used.
        """
        n = stop - start
        if k is None:
            k = np.arange(start, stop, dtype=self._dtype)   # exact integers
        fam, t, dtype, work = self._family, self._t, self._dtype, self._w_buf[:n]
        self.w_sq = fam.weight_sq(t, k, dtype, out=self._w_sq[:n], work=work)
        self.s = fam.s(t, k, dtype, out=self._s[:n], work=work)
        self._w = None
        return self

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            self._w = np.sqrt(self.w_sq, out=self._w_buf[:self.w_sq.size])
        return self._w


def band_weight(s: np.ndarray, i: int, b: int, length: int, out=None) -> np.ndarray:
    """mu_b = sqrt(S(k) S(k+b)) at the `length` positions k from i of the array s."""
    mu = np.multiply(s[i:i + length], s[i + b:i + b + length], out=out)
    return np.sqrt(mu, out=mu)


def realize_quantum(elem: LambdaElement, family: WeightFamily, t: float,
                    window: IndexWindow) -> BandMatrix:
    """Sample the element's coefficients into a banded matrix at parameter t.

    Band b >= 0 holds f_b(w_t(col)^2) at (col+b, col); band b < 0 holds
    g_|b|(w_t(col+b)^2) at (col+b, col): each entry samples at its smaller index.
    """
    K = window.size
    w_sq = family.weight_sq(t, np.arange(window.k_lo, window.k_hi + 1))
    return BandMatrix(window, {b: coeff(w_sq[:K - abs(b)])
                               for b, coeff in elem.bands() if abs(b) < K})


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def quantum_norm(a: BandMatrix, family: WeightFamily, t: float) -> float:
    """Weighted trace norm sqrt(sum S(i)^(1/2) S(j)^(1/2) |a_ij|^2) on the window."""
    k_lo = a.window.k_lo
    s = family.s(t, np.arange(k_lo, a.window.k_hi + 1))
    total = 0.0
    for b in sorted(a.bands):
        arr = a.bands[b]
        if arr.size == 0:
            continue
        mu = band_weight(s, a.band_col_range(b)[0] - k_lo, b, arr.size)
        total += float(np.sum(mu * arr * arr))
    return float(np.sqrt(total))


class _NormSums:
    """Quantum norms squared of elements, summed over the blocks of a window.

    Each element keeps its own running total, which each block adds to band
    by band in `bands()` order.  mu_n is computed once per block for every
    band offset n, and serves f_n and g_n of every element.  `halo` is the
    widest offset.  A block's sums (`partial`) only read, so the blocks can
    be computed in any order; `fold` adds them to the totals in block order.
    """

    def __init__(self, elems, K: int):
        self.K = K
        self.totals = [0.0] * len(elems)
        self.by_offset = {}   # n -> [(element, position in its bands, coefficient)]
        for e, elem in enumerate(elems):
            bands = [(abs(b), coeff) for b, coeff in elem.bands() if abs(b) < K]
            for pos, (n, coeff) in enumerate(bands):
                self.by_offset.setdefault(n, []).append((e, pos, coeff))
        self.halo = max(self.by_offset, default=0)

    def partial(self, i: int, L: int, w_sq, s, bufs) -> dict:
        """{(element, band position): the block's sum}, from w^2 and S over
        the block at window position i and its halo; `bufs` is (mu, c,
        work), three arrays of at least L entries the sums are computed in."""
        mu_buf, c_buf, work = bufs
        sums = {}
        for n, users in self.by_offset.items():
            m = min(L, self.K - n - i)   # band n's columns in this block
            if m <= 0:
                continue
            mu = band_weight(s, 0, n, m, out=mu_buf[:m])
            for e, pos, coeff in users:
                c = _sample(coeff, w_sq[:m], c_buf[:m], work[:m])
                prod = np.multiply(mu, c, out=work[:m])   # the sample's work is spent
                prod *= c
                sums[e, pos] = float(np.sum(prod))
        return sums

    def fold(self, sums: dict):
        for e, pos in sorted(sums):     # each element's bands in bands() order
            self.totals[e] += sums[e, pos]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Relay:
    """Values each block of a walk hands on to the next block, put as they
    are ready.  `errors` holds the exception of every failed block."""

    def __init__(self):
        self.lock = threading.Condition()
        self.values, self.errors = {}, {}

    def put(self, j: int, key, value):
        """Hand `value` from block j on to block j + 1 under `key`."""
        with self.lock:
            self.values[j, key] = value
            self.lock.notify_all()

    def take(self, j: int, key):
        """Block j - 1's value under `key`, once it is put.

        Raises RuntimeError when block j - 1 failed instead, so block j
        fails too and the lower block's exception is the one raised.
        """
        with self.lock:
            self.lock.wait_for(lambda: (j - 1, key) in self.values or j - 1 in self.errors)
            if j - 1 in self.errors:
                raise RuntimeError(f"block {j - 1} failed")
            return self.values.pop((j - 1, key))


def _ordered_blocks(blocks: int, worker, window_blocks: int) -> list:
    """The partials of blocks 0, ..., blocks - 1, in block order.

    min(2, _cpus(), window_blocks) workers, the caller and at most one
    thread, take block numbers from one counter; the walk of a window of
    one block stays on the caller, where starting a thread and sharing the
    interpreter with it costs more than the thread saves.  worker(relay)
    gives a worker's function part(j), which computes block j's partial in
    that worker's own buffers; blocks pass values on to the next block
    through `relay` (a _Relay).  The caller makes both workers' functions,
    so the buffers of both come from the caller's allocator arena and are
    reused by its next walk.  A worker's exception stops the other before
    its next block, and the exception of the lowest failed block is
    raised: every lower block was taken, so it is the one a walk in block
    order would raise.
    """
    relay, parts = _Relay(), [None] * blocks
    todo = iter(range(blocks))

    def run(part):
        while True:
            with relay.lock:
                j = None if relay.errors else next(todo, None)
            if j is None:
                return
            try:
                parts[j] = part(j)
            except BaseException as exc:    # raised by the caller after the join
                with relay.lock:
                    relay.errors[j] = exc
                    relay.lock.notify_all()
                return

    helper = None
    if min(2, _cpus(), window_blocks) > 1:
        helper = threading.Thread(target=run, args=(worker(relay),))
        helper.start()
    try:
        run(worker(relay))
    finally:
        if helper is not None:
            helper.join()
    if relay.errors:
        raise relay.errors[min(relay.errors)]
    return parts


def lambda_norm_sq(elem: LambdaElement, family: WeightFamily, t: float,
                   window: IndexWindow) -> float:
    """Quantum norm squared of the element, streamed without realizing it.

    Evaluates the banded double sum directly, block by block, so windows of
    10^7-10^8 indices need O(BLOCK x bands) memory.  The blocks' sums are
    computed by two workers where two CPUs are free (`_ordered_blocks`) and
    added up in block order, so the result does not depend on the number of
    workers.  Each worker fills its own _WindowArrays and two more buffers,
    mu and c; c holds the block's indices until the coefficients are
    sampled into it.  Matches realize + quantum_norm to rounding.
    """
    sums = _NormSums([elem], window.size)
    if not sums.by_offset:
        return 0.0
    k_lo, size = window.k_lo, window.size
    cap = min(BLOCK, size) + sums.halo
    steps = np.arange(cap, dtype=np.float64)      # read by every worker

    def worker(relay):
        arrays = _WindowArrays(family, t, cap)
        mu, c = np.empty((2, cap))

        def part(j):
            i = j * BLOCK
            L = min(BLOCK, size - i)
            n = L + sums.halo
            k = np.add(steps[:n], k_lo + i, out=c[:n])      # exact integers
            arrays.fill(k_lo + i, k_lo + i + n, k)
            # the norms never read w, so its buffer is free work space
            return sums.partial(i, L, arrays.w_sq, arrays.s, (mu, c, arrays._w_buf))
        return part

    blocks = -(-size // BLOCK)
    for part in _ordered_blocks(blocks, worker, blocks):
        sums.fold(part)
    return sums.totals[0]


def classical_norm(elem: LambdaElement, family: WeightFamily) -> float:
    """L^2 norm of the t = 0 realization over [w_minus^2, w_plus^2].

    Each band contributes int c(s)^2 ds, a Transform of the PowerSum c * c
    evaluated exactly through its antiderivative.  On the disk a band whose
    square has a power of s at or below s^(-1) makes the integral diverge at
    0 and raises DivergentIntegralError.
    """
    lo, hi = family.w_minus**2, family.w_plus**2
    total = 0.0
    for b, coeff in elem.bands():
        if not isinstance(coeff, PowerSum):
            raise CapabilityError(
                f"classical norms need polynomial-type coefficients (band {b})")
        total += Transform(0, coeff * coeff, lo, "upper")(hi)
    return float(np.sqrt(total))
