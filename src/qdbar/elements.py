"""Finite band sums over a weight family and their two norms.

An element is a finite sum  sum_n U^n f_n(w_t(k)^2) + sum_n g_n(w_t(k)^2) (U*)^n
with continuous coefficient functions of s = r^2 on [w_minus^2, w_plus^2]
(U is the unweighted shift).  Realized at a parameter t it becomes a banded
matrix over a truncation window; at t = 0 it is the function
sum f_n(r^2) e^{i n phi} + sum g_n(r^2) e^{-i n phi} on the disk/annulus.

The quantum norm is the weighted trace norm  tr(S^(1/2) a S^(1/2) a*)^(1/2);
the classical norm is L^2 with respect to d(r^2) x (dphi / 2 pi).  Both are
implemented band-wise with deterministic summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CapabilityError, DivergentIntegralError, ParameterError, WindowResourceError,
)
from .weights import WeightFamily

CHUNK = 1 << 22  # fixed streaming block size; fixed => deterministic sums
DEFAULT_K_CAP = 20_000_000  # largest window index a run may need


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

    def __call__(self, s):
        s = np.asarray(s)
        if s.dtype != np.longdouble:
            s = s.astype(np.float64, copy=False)
        if self.coeffs[1::2].any():     # both parities of j: Horner in r
            x, coeffs = np.sqrt(s), self.coeffs
        else:                           # poly and sqrt_poly: Horner in s
            x, coeffs = s, self.coeffs[::2]
        val = np.full(s.shape, coeffs[-1], dtype=s.dtype)
        for a in coeffs[-2::-1]:        # in place: no temporaries
            val *= x
            val += a
        m = self.min_power_half
        if m:
            val *= s ** (m // 2) if m % 2 == 0 else np.sqrt(s) ** m
        return val if val.ndim else val[()]   # a scalar for a scalar input

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

    def __call__(self, s):
        arr = np.asarray(s, dtype=np.float64)
        out = self.P(arr)
        if not self.Q.is_zero():
            out = out + self.Q(arr) * np.log(arr)
        return float(out) if np.isscalar(s) else out

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


def _coeff_from_spec(entry):
    if "fn" in entry:
        return entry["fn"]
    kind = entry.get("kind")
    coeffs = entry.get("coeffs")
    if kind == "poly":
        coeff = PowerSum.poly(coeffs)
    elif kind == "sqrt_poly":
        coeff = PowerSum.sqrt_poly(coeffs)
    elif kind == "half_power":
        coeff = PowerSum(coeffs, int(entry.get("min_power", 0)))
    else:
        raise ParameterError(f"unknown coefficient kind {kind!r}")
    if not np.isfinite(coeff.coeffs).all():
        raise ParameterError(f"coefficients must be finite, got {coeffs!r}")
    return coeff


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
    """Canonical finite band sum: one optional diagonal, f-bands, g-bands."""

    f_bands: dict = field(default_factory=dict)   # n >= 1 -> coefficient
    g_bands: dict = field(default_factory=dict)   # n >= 1 -> coefficient
    diagonal: object = None

    @property
    def N(self) -> int:
        return max([0, *self.f_bands.keys(), *self.g_bands.keys()])

    def bands(self):
        """(side, n, coeff) in deterministic order: diag, f ascending, g ascending."""
        if self.diagonal is not None:
            yield ("diag", 0, self.diagonal)
        for n in sorted(self.f_bands):
            yield ("f", n, self.f_bands[n])
        for n in sorted(self.g_bands):
            yield ("g", n, self.g_bands[n])

    def export_band_spec(self):
        out = []
        for side, n, coeff in self.bands():
            if not isinstance(coeff, PowerSum):
                raise CapabilityError("only polynomial-type coefficients can be exported")
            kind = coeff.kind
            entry = {"side": side, "n": n, "kind": kind}
            if kind in ("poly", "sqrt_poly"):   # s^0 or s^(1/2) times a polynomial in s
                entry["coeffs"] = [0.0] * (coeff.min_power_half // 2) + coeff.coeffs[::2].tolist()
            else:
                entry["coeffs"] = list(coeff.coeffs)
                entry["min_power"] = coeff.min_power_half
            out.append(entry)
        return out

    def __eq__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        return (self.f_bands == other.f_bands and self.g_bands == other.g_bands
                and self.diagonal == other.diagonal)


def make_element(band_spec) -> LambdaElement:
    """Build a canonical element from a band spec list.

    Entries are {side: f|g|diag, n, fn} (or kind/coeffs in place of fn).
    f/g entries with n = 0 are diagonal contributions and are merged into the
    single stored diagonal; duplicate (side, n) pairs are rejected.
    """
    if not band_spec:
        raise ParameterError("empty band spec")
    seen = set()
    f_bands, g_bands, diagonal = {}, {}, None
    for entry in band_spec:
        side = entry["side"]
        n = int(entry.get("n", 0))
        if side not in ("f", "g", "diag"):
            raise ParameterError(f"unknown band side {side!r}")
        if side == "diag" and n != 0:
            raise ParameterError("diagonal entries must have n = 0")
        if n < 0:
            raise ParameterError("band index n must be nonnegative")
        key = (side, n)
        if key in seen:
            raise ParameterError(f"duplicate band for side={side!r}, n={n}")
        seen.add(key)
        coeff = _coeff_from_spec(entry)
        if side == "diag" or n == 0:
            diagonal = _add_coeffs(diagonal, coeff)
        elif side == "f":
            f_bands[n] = coeff
        else:
            g_bands[n] = coeff
    return LambdaElement(f_bands=f_bands, g_bands=g_bands, diagonal=diagonal)


def coordinate_element(name: str) -> LambdaElement:
    """The unit, the complex coordinate z, or its adjoint zbar."""
    if name == "one":
        return make_element([{"side": "diag", "n": 0, "fn": PowerSum.poly([1.0])}])
    if name == "z":
        return make_element([{"side": "f", "n": 1, "fn": PowerSum.sqrt_poly([1.0])}])
    if name == "zbar":
        return make_element([{"side": "g", "n": 1, "fn": PowerSum.sqrt_poly([1.0])}])
    raise ParameterError(f"unknown coordinate element {name!r}")


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
    whose local adjust steps crawl once indices pass 2^53.
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
    """w^2, S and (on first use) w = sqrt(w^2) over indices [start, stop).

    Band-level primitives build one per call (per block when streaming) and
    slice it for every band instead of re-evaluating the weights per band.
    """

    def __init__(self, family: WeightFamily, t: float, start: int, stop: int,
                 dtype=np.float64):
        ks = np.arange(start, stop, dtype=dtype)   # exact integers, no int64 copy
        self.w_sq = family.weight_sq(t, ks, dtype)
        self.s = family.s(t, ks, dtype)

    @cached_property
    def w(self) -> np.ndarray:
        return np.sqrt(self.w_sq)


def realize_quantum(elem: LambdaElement, family: WeightFamily, t: float,
                    window: IndexWindow) -> BandMatrix:
    """Sample the element's coefficients into a banded matrix at parameter t.

    Band +n holds f_n(w_t(col)^2) at (col+n, col); band -n holds
    g_n(w_t(col-n)^2) at (col-n, col); the diagonal samples its own function.
    """
    K = window.size
    w_sq = family.weight_sq(t, np.arange(window.k_lo, window.k_hi + 1))
    bands = {}
    for side, n, coeff in elem.bands():
        if n >= K:
            continue
        vals = coeff(w_sq[:K - n])           # sampled at the row index of each entry
        b = n if side in ("f", "diag") else -n
        if b in bands:
            bands[b] = bands[b] + vals
        else:
            bands[b] = vals
    return BandMatrix(window, bands, valid_margin=0)


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
        i = a.band_col_range(b)[0] - k_lo
        mu = np.sqrt(s[i + b:i + b + arr.size] * s[i:i + arr.size])
        total += float(np.sum(mu * arr * arr))
    return float(np.sqrt(total))


def lambda_norm_sq(elem: LambdaElement, family: WeightFamily, t: float,
                   window: IndexWindow) -> float:
    """Quantum norm squared of the element, streamed without realizing it.

    Evaluates the banded double sum directly in fixed-size blocks of CHUNK
    indices, so windows of 10^7-10^8 indices stay within memory.  Each block
    evaluates w^2 and S once for all bands.  Matches realize + quantum_norm
    to rounding.
    """
    k_lo, k_hi = window.k_lo, window.k_hi
    bands = [(n, coeff) for _, n, coeff in elem.bands() if k_hi - n >= k_lo]
    if not bands:
        return 0.0
    N = max(n for n, _ in bands)
    total = 0.0
    for start in range(k_lo, k_hi + 1, CHUNK):
        stop = min(start + CHUNK, k_hi + 1)
        arrays = _WindowArrays(family, t, start, stop + N)
        for n, coeff in bands:
            L = min(stop, k_hi - n + 1) - start   # band n's columns in this block
            if L <= 0:
                continue
            c = coeff(arrays.w_sq[:L])
            mu = arrays.s[n:n + L] * arrays.s[:L]
            np.sqrt(mu, out=mu)
            mu *= c
            mu *= c
            total += float(np.sum(mu))
            del c, mu      # peak memory: one band's temporaries at a time
        del arrays         # and one block's arrays
    return total


def classical_norm(elem: LambdaElement, family: WeightFamily) -> float:
    """L^2 norm of the t = 0 realization over [w_minus^2, w_plus^2].

    Each band contributes int c(s)^2 ds, a Transform of the PowerSum c * c
    evaluated exactly through its antiderivative.  On the disk a band whose
    square has a power of s at or below s^(-1) makes the integral diverge at
    0 and raises DivergentIntegralError.
    """
    lo, hi = family.w_minus**2, family.w_plus**2
    total = 0.0
    for side, n, coeff in elem.bands():
        if not isinstance(coeff, PowerSum):
            raise CapabilityError(
                f"classical norms need polynomial-type coefficients ({side}-band {n})")
        total += Transform(0, coeff * coeff, lo, "upper")(hi)
    return float(np.sqrt(total))
