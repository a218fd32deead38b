"""Properties over random (family, t, window, element) against the dense oracles.

An element has up to five bands with signed indices b in [-4, 4] (b > 0 the
f-bands, b < 0 the g-bands, 0 the diagonal) and random polynomial or
sqrt-polynomial coefficients; windows hold at most 60 indices.  The weight
formulas written in place are checked against fresh evaluations and the
whole-array expressions they replace.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    chained_inverse_residual, dense_Dt, dense_Qt, dense_realize, densify, realized_qt_norm,
)
from fixtures import admissible_families
from qdbar import elements
from qdbar.cli import emit_config, parse_config
from qdbar.elements import (
    lambda_norm_sq, make_element, quantum_norm, realize_quantum, window_from_range,
)
from qdbar.limits import inverse_residual
from qdbar.operators import (
    QtKernelMode, apply_Dt, apply_Qt, norm_pairs_sq, qt_norm_sq, tilde_element,
)
from qdbar.weights import Domain, FamilyKind

EPS = np.finfo(np.float64).eps


@st.composite
def band_specs(draw):
    """A config band spec: one {side, n, kind, coeffs} entry per drawn band b."""
    spec = []
    for b in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True)):
        side = "f" if b > 0 else "g" if b < 0 else draw(st.sampled_from(["diag", "f", "g"]))
        spec.append({"side": side, "n": abs(b),
                     "kind": draw(st.sampled_from(["poly", "sqrt_poly"])),
                     "coeffs": draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))})
    return spec


@st.composite
def cases(draw):
    """(family, t, window, element spec) with a window of 1 to 60 indices."""
    fam = draw(admissible_families())
    t = draw(st.floats(0.05, 1.0, exclude_max=True))
    size = draw(st.integers(1, 60))
    k_lo = 0 if fam.domain is Domain.DISK else draw(st.integers(-30, 30))
    return fam, t, window_from_range(fam, t, k_lo, k_lo + size - 1), draw(band_specs())


def assert_close(got, want, rel):
    """Entrywise |got - want| <= rel * max|want| (and <= rel on an all-zero want)."""
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    assert np.max(np.abs(got - want), initial=0.0) <= rel * scale


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_realize_matches_dense(case):
    fam, t, win, spec = case
    elem = make_element(spec)
    got = densify(realize_quantum(elem, fam, t, win))
    assert np.array_equal(got, dense_realize(elem, fam, t, win.k_lo, win.k_hi))


@settings(max_examples=200, deadline=None)
@given(case=cases(), mode=st.sampled_from(list(QtKernelMode)))
def test_qt_matches_dense(case, mode):
    fam, t, win, spec = case
    elem = make_element(spec)
    got = densify(apply_Qt(elem, fam, t, win, mode))
    assert_close(got, dense_Qt(elem, fam, t, win.k_lo, win.k_hi, mode), 1e-12)


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_dt_matches_dense(case):
    fam, t, win, spec = case
    elem = make_element(spec)
    got = densify(apply_Dt(realize_quantum(elem, fam, t, win), fam, t))
    want = dense_Dt(dense_realize(elem, fam, t, win.k_lo, win.k_hi), fam, t, win.k_lo, win.k_hi)
    K = win.size
    # away from the window edges, which the dense product corrupts too
    assert_close(got[4:K - 5, 4:K - 5], want[4:K - 5, 4:K - 5], 1e-12)


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_corrected_dt_qt_is_identity_inside(case):
    fam, t, win, spec = case
    elem = make_element(spec)
    back = apply_Dt(apply_Qt(elem, fam, t, win, QtKernelMode.CORRECTED), fam, t)
    x = densify(realize_quantum(elem, fam, t, win))
    K = win.size
    # the identity telescopes exactly; float64 rounding of Q_t x is amplified
    # by w_+/S (1.5 units of that at most in 3000 random cases)
    s_min = float(np.min(fam.s(t, np.arange(win.k_lo, win.k_hi + 1))))
    qx = densify(apply_Qt(elem, fam, t, win, QtKernelMode.CORRECTED))
    bound = 64 * EPS * fam.w_plus / s_min * max(1.0, float(np.max(np.abs(qx))))
    resid = densify(back)[3:K - 5, 3:K - 5] - x[3:K - 5, 3:K - 5]
    assert np.max(np.abs(resid), initial=0.0) <= bound


@settings(max_examples=200, deadline=None)
@given(case=cases(), block=st.integers(1, 16))
def test_streamed_norm_matches_realized(case, block):
    # a small streaming block, so windows straddle block boundaries
    fam, t, win, spec = case
    elem = make_element(spec)
    with mock.patch("qdbar.elements.BLOCK", block):
        streamed = lambda_norm_sq(elem, fam, t, win)
    realized = quantum_norm(realize_quantum(elem, fam, t, win), fam, t) ** 2
    assert streamed == pytest.approx(realized, rel=1e-13)


def same_values(a, b):
    """Equal entries, signed zeros included (x87 longdouble bytes carry padding)."""
    return a.dtype == b.dtype and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=200, deadline=None)
@given(case=cases(), block=st.integers(1, 16),
       dtype=st.sampled_from([np.float64, np.longdouble]))
def test_blocked_qt_equals_one_block(case, block, dtype):
    # the carried scan repeats the additions of one whole-window cumsum, so
    # the bands come out bitwise equal whatever the block size (windows hold
    # at most 60 indices, one block at the default size)
    fam, t, win, spec = case
    elem = make_element(spec)
    for mode in QtKernelMode:
        whole = apply_Qt(elem, fam, t, win, mode, dtype=dtype)
        with mock.patch("qdbar.elements.BLOCK", block):
            blocked = apply_Qt(elem, fam, t, win, mode, dtype=dtype)
        assert sorted(blocked.bands) == sorted(whole.bands)
        assert all(same_values(blocked.bands[b], whole.bands[b]) for b in whole.bands)


@settings(max_examples=200, deadline=None)
@given(case=cases(), block=st.integers(1, 16), mode=st.sampled_from(list(QtKernelMode)))
def test_streamed_qt_norms_match_realized_chain(case, block, mode):
    # |Q_t x - y_t| and |Q_t x| against apply_Qt, realize_quantum, BandMatrix
    # subtraction and quantum_norm; only the summation order differs
    fam, t, win, spec = case
    elem = make_element(spec)
    y = tilde_element(elem, fam, mode)
    with mock.patch("qdbar.elements.BLOCK", block):
        error_sq = qt_norm_sq(elem, fam, t, win, mode, minus=y)
        norm_sq = qt_norm_sq(elem, fam, t, win, mode)
    want = realized_qt_norm(elem, fam, t, win, mode, minus=y) ** 2
    assert error_sq == pytest.approx(want, rel=1e-12, abs=1e-300)
    want = realized_qt_norm(elem, fam, t, win, mode) ** 2
    assert norm_sq == pytest.approx(want, rel=1e-12, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(case=cases(), more=st.lists(band_specs(), max_size=3), block=st.integers(1, 16),
       mode=st.sampled_from(list(QtKernelMode)))
def test_shared_walks_equal_one_element_walks(case, more, block, mode):
    # each element keeps its own running sums in the one-element order
    fam, t, win, spec = case
    elems = [make_element(s) for s in (spec, *more)]
    with mock.patch("qdbar.elements.BLOCK", block):
        pairs = norm_pairs_sq(elems, fam, t, win, mode)
        want = [(lambda_norm_sq(e, fam, t, win), qt_norm_sq(e, fam, t, win, mode))
                for e in elems]
    assert pairs == want


@settings(max_examples=200, deadline=None)
@given(case=cases(), block=st.one_of(st.none(), st.integers(1, 16)))
def test_streamed_inverse_residual_equals_chained_band_matrices(case, block):
    # the walks carry the one neighbour D_t reads across a block edge, so the
    # sup is bitwise that of whole band matrices at any block size (None is
    # the default, one block here); windows of 1 to 60 indices include ones
    # narrower than the band offsets, and disk windows start at k = 0, where
    # D_t reads w(-1) times a zero pad
    fam, t, win, spec = case
    elem = make_element(spec)
    for mode in QtKernelMode:
        with mock.patch("qdbar.elements.BLOCK", block or elements.BLOCK):
            streamed = inverse_residual(elem, fam, t, win, mode)
        assert streamed == chained_inverse_residual(elem, fam, t, win, mode)


# the weight formulas as whole-array expressions, before they ran in place
EXPRESSIONS = {
    (FamilyKind.UNILATERAL_EXAMPLE, "weight_sq"):
        lambda f, t, k: np.where(k < 0, 0.0, (k + 1.0) * t / (1.0 + (k + 1.0) * t)),
    (FamilyKind.UNILATERAL_EXAMPLE, "s"):
        lambda f, t, k: np.where(k < 0, 0.0, t / ((1.0 + k * t) * (1.0 + (k + 1.0) * t))),
    (FamilyKind.BILATERAL_RATIONAL, "weight_sq"):
        lambda f, t, k: f.alpha + f.beta * t * k / (1.0 + t * np.abs(k)),
    (FamilyKind.BILATERAL_RATIONAL, "s"):
        lambda f, t, k: f.beta * t / ((1.0 + t * np.abs(k)) * (1.0 + t * np.abs(k - 1.0))),
    (FamilyKind.BILATERAL_ARCTAN, "weight_sq"):
        lambda f, t, k: f.alpha + f.beta * np.arctan(t * k),
    (FamilyKind.BILATERAL_ARCTAN, "s"):
        lambda f, t, k: f.beta * np.arctan(t / (1.0 + t * t * k * (k - 1.0))),
}
X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize > 10


def value_bytes(a):
    """The bytes of the values: an x87 longdouble's 10, not its padding."""
    a = np.ascontiguousarray(a).reshape(-1)
    if a.dtype == np.longdouble and X87:
        return a.view(np.uint8).reshape(a.size, a.itemsize)[:, :10].tobytes()
    return a.tobytes()


indices = st.one_of(st.integers(-50, 50), st.integers(-2**40, 2**40))


@settings(max_examples=200, deadline=None)
@given(fam=admissible_families(), t=st.floats(1e-6, 1.0),
       dtype=st.sampled_from([np.float64, np.longdouble]),
       k=st.one_of(indices, st.lists(indices, min_size=1, max_size=40)))
def test_in_place_weights_equal_fresh_evaluation(fam, t, dtype, k):
    # disk indices k < 0 are masked to 0; a scalar k takes a 0-d `out`
    ks = np.asarray(k, dtype=dtype)
    for name in ("weight_sq", "s"):
        method = getattr(fam, name)
        out, work = np.full(ks.shape, np.nan, dtype), np.full(ks.shape, np.nan, dtype)
        with np.errstate(divide="ignore", invalid="ignore"):
            fresh = np.asarray(method(t, k, dtype))
            got = method(t, k, dtype, out=out, work=work)
            want = np.asarray(EXPRESSIONS[fam.kind, name](fam, t, ks), dtype=dtype)
        assert got is out and fresh.dtype == want.dtype == dtype
        assert value_bytes(got) == value_bytes(fresh) == value_bytes(want)


def paper_exponents(n, mode):
    """(p, q) with the band-n parametrix image +-s^(p/2) int c(u) u^(q/2) du.

    From the paper's explicit inverse of d-bar: the printed f-side kernel
    r^(n-1)/rho^n, the corrected one r^n/rho^(n+1), and the g-side.
    """
    if n < 0:
        return n, -n - 1
    return (n - 1, -n) if mode is QtKernelMode.PRINTED else (n, -n - 1)


@settings(max_examples=200, deadline=None)
@given(fam=admissible_families(), spec=band_specs(), mode=st.sampled_from(list(QtKernelMode)))
def test_tilde_is_the_integral_with_aps_boundary(fam, spec, mode):
    # s^(-q/2) (s^(-p/2) y)' = c, and the integral vanishes at the outer
    # boundary for bands n >= 0 and at the inner one for n < 0
    elem = make_element(spec)
    y = tilde_element(elem, fam, mode)
    lo, hi = fam.w_minus**2, fam.w_plus**2
    s = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 50)
    assert sorted(y.by_band) == sorted(b - 1 for b in elem.by_band)
    for b, c in elem.bands():
        p, q = paper_exponents(b - 1, mode)
        integral = y.by_band[b - 1].shift_half_power(-p)
        back = integral.derivative().shift_half_power(-q)
        assert_close(back(s), c(s), 1e-9)
        if b - 1 >= 0 or fam.domain is not Domain.DISK:
            edge = hi if b - 1 >= 0 else lo
            assert abs(integral(edge)) <= 1e-9 * max(1.0, float(np.max(np.abs(integral(s)))))


@settings(max_examples=200, deadline=None)
@given(fam=admissible_families(), spec=band_specs(), t=st.floats(0.05, 0.95))
def test_band_spec_and_config_round_trips(fam, spec, t):
    elem = make_element(spec)
    exported = elem.export_band_spec()
    # the spec's (side, n) survive, the n = 0 ones as the diagonal
    want = sorted(("diag" if e["n"] == 0 else e["side"], e["n"]) for e in spec)
    assert sorted((e["side"], e["n"]) for e in exported) == want
    assert make_element(exported) == elem
    family = {"kind": fam.kind.value}
    if fam.domain is not Domain.DISK:
        family.update(alpha=fam.alpha, beta=fam.beta)
    config = parse_config(json.dumps({"experiment": "norms", "family": family,
                                      "element": exported, "t_grid": [t]}))
    assert parse_config(emit_config(config)) == config
    assert config.element() == elem and config.family() == fam
