import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import admissible_families, band_specs
from walk_oracle import norm_sq as sequential_norm_sq
from qdbar import elements
from qdbar.elements import (
    BandMatrix, LambdaElement, PowerSum, Transform, classical_norm,
    coordinate_element, lambda_norm_sq, make_element, quantum_norm,
    realize_quantum, truncation_window, window_from_range,
)
from qdbar.errors import (
    CapabilityError, DivergentIntegralError, ParameterError, WindowResourceError,
)
from qdbar.quadrature import integrate
from qdbar.weights import Domain, make_family


def disk():
    return make_family("unilateral_example")


def annulus():
    return make_family("bilateral_rational", alpha=1.0, beta=0.5)


def mixed_element():
    return make_element([
        {"side": "diag", "n": 0, "kind": "poly", "coeffs": [0.0, 1.0]},
        {"side": "f", "n": 1, "kind": "sqrt_poly", "coeffs": [1.0]},
        {"side": "f", "n": 2, "kind": "poly", "coeffs": [1.0, 1.0]},
        {"side": "g", "n": 1, "kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
        {"side": "g", "n": 2, "kind": "poly", "coeffs": [2.0, -1.0]},
    ])


class TestPowerSum:
    def test_poly_eval(self):
        p = PowerSum.poly([1.0, 2.0, 3.0])  # 1 + 2s + 3s^2
        assert p(2.0) == pytest.approx(17.0, abs=1e-13)

    def test_sqrt_poly_eval(self):
        q = PowerSum.sqrt_poly([2.0, 1.0])  # sqrt(s)(2 + s)
        assert q(4.0) == pytest.approx(12.0, abs=1e-13)

    def test_derivative(self):
        p = PowerSum.poly([0.0, 0.0, 1.0])  # s^2
        assert p.derivative()(3.0) == pytest.approx(6.0, abs=1e-13)
        q = PowerSum.sqrt_poly([1.0])  # sqrt(s)
        assert q.derivative()(4.0) == pytest.approx(0.25, abs=1e-14)

    def test_addition_mixes_parities(self):
        c = PowerSum.poly([1.0]) + PowerSum.sqrt_poly([1.0])
        assert c(4.0) == pytest.approx(3.0, abs=1e-13)
        assert c.kind == "half_power"

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            PowerSum.poly([])


class TestMakeElement:
    def test_single_f_band(self):
        e = make_element([{"side": "f", "n": 1, "fn": PowerSum.poly([1.0])}])
        assert e.N == 1 and e.by_band.keys() == {1}

    def test_diag_merge(self):
        e = make_element([
            {"side": "diag", "n": 0, "kind": "poly", "coeffs": [0.0, 1.0]},
            {"side": "g", "n": 0, "kind": "poly", "coeffs": [2.0]},
        ])
        assert e.by_band == {0: PowerSum.poly([2.0, 1.0])}  # s + 2

    def test_duplicate_band_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            make_element([
                {"side": "f", "n": 1, "kind": "poly", "coeffs": [1.0]},
                {"side": "f", "n": 1, "kind": "poly", "coeffs": [2.0]},
            ])

    def test_empty_spec_rejected(self):
        with pytest.raises(ParameterError):
            make_element([])

    def test_empty_poly_rejected(self):
        with pytest.raises(ParameterError):
            make_element([{"side": "f", "n": 1, "kind": "poly", "coeffs": []}])

    def test_roundtrip_idempotent(self):
        e = mixed_element()
        assert make_element(e.export_band_spec()) == e

    def test_coordinates(self):
        one, z, zbar = map(coordinate_element, ("one", "z", "zbar"))
        assert one.by_band == {0: PowerSum.poly([1.0])}
        assert z.by_band == {1: PowerSum.sqrt_poly([1.0])}
        assert zbar.by_band == {-1: PowerSum.sqrt_poly([1.0])}
        with pytest.raises(ParameterError):
            coordinate_element("w")


def search_window_size(family, t, tail_tol, k_cap=20_000_000):
    """Doubling-then-bisect solve for the upper window edge (closed-form oracle)."""
    hi = 1
    while family.tail_bound_hi(t, hi) > tail_tol:
        hi *= 2
        if hi > 4 * k_cap:
            raise WindowResourceError("window search exceeded cap", needed=hi, cap=k_cap)
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if family.tail_bound_hi(t, mid) <= tail_tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestTruncationWindow:
    def test_disk_closed_form(self):
        win = truncation_window(disk(), 0.1, 1e-4)
        assert win.k_lo == 0 and win.k_hi == 99_989
        assert win.tail_bound_hi <= 1e-4

    def test_whole_trace_fits(self):
        win = truncation_window(disk(), 0.5, 1.0)
        assert (win.k_lo, win.k_hi) == (0, 0)

    def test_annulus_symmetric(self):
        win = truncation_window(annulus(), 0.1, 1e-3)
        assert win.k_hi == 4990 and win.k_lo == -4990
        assert win.tail_bound_hi <= 1e-3 and win.tail_bound_lo <= 1e-3

    def test_resource_error(self):
        with pytest.raises(WindowResourceError) as exc:
            truncation_window(disk(), 0.001, 1e-6, k_cap=10_000)
        assert exc.value.needed > 10_000

    @pytest.mark.parametrize("fam", [
        disk(), annulus(), make_family("bilateral_arctan", alpha=1.0, beta=0.5)])
    @pytest.mark.parametrize("tol", [1e-22, 1e-300, 1e-320])
    def test_resource_error_in_bounded_time(self, fam, tol):
        # beyond 2^53 the exact solve's +-1 steps no longer move the float index
        started = time.perf_counter()
        with pytest.raises(WindowResourceError):
            truncation_window(fam, 0.5, tol, k_cap=1000)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("fam", [disk(), annulus()])
    @pytest.mark.parametrize("t", [0.5, 0.07])
    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 3.3e-5])
    def test_matches_search_oracle(self, fam, t, tol):
        assert truncation_window(fam, t, tol).k_hi == search_window_size(fam, t, tol)

    def test_monotone_in_tolerance(self):
        sizes = [truncation_window(disk(), 0.2, tol).k_hi
                 for tol in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert sizes == sorted(sizes)

    def test_tail_bound_dominates_omitted_mass(self):
        fam = annulus()
        t = 0.3
        win = truncation_window(fam, t, 1e-3)
        ks = np.arange(win.k_lo, win.k_hi + 1)
        inside = float(np.sum(fam.s(t, ks)))
        omitted = (fam.w_plus**2 - fam.w_minus**2) - inside
        assert omitted <= win.tail_bound_hi + win.tail_bound_lo + 1e-15


class TestRealize:
    def test_zbar_band_entries(self):
        fam, t = disk(), 0.4
        win = window_from_range(fam, t, 0, 50)
        a = realize_quantum(coordinate_element("zbar"), fam, t, win)
        rows = np.arange(0, 50)  # entries (j, j+1) = w(j)
        assert np.allclose(a.band(-1), fam.weight(t, rows), atol=1e-15, rtol=0)

    def test_one_is_all_ones(self):
        fam, t = disk(), 0.4
        win = window_from_range(fam, t, 0, 20)
        a = realize_quantum(coordinate_element("one"), fam, t, win)
        assert np.all(a.band(0) == 1.0)

    def test_constant_f_band(self):
        fam, t = disk(), 0.4
        e = make_element([{"side": "f", "n": 1, "kind": "poly", "coeffs": [1.0]}])
        a = realize_quantum(e, fam, t, window_from_range(fam, t, 0, 20))
        assert np.all(a.band(1) == 1.0)
        assert a.band(1).size == 20

    def test_band_col_ranges(self):
        fam, t = annulus(), 0.4
        win = window_from_range(fam, t, -5, 9)
        a = realize_quantum(mixed_element(), fam, t, win)
        assert a.band_col_range(2) == (-5, 7)
        assert a.band_col_range(-2) == (-3, 9)
        assert a.band(2).size == 13 and a.band(-2).size == 13


class TestQuantumNorm:
    def test_one_recovers_partial_trace(self):
        fam, t = disk(), 0.3
        win = truncation_window(fam, t, 1e-6)
        a = realize_quantum(coordinate_element("one"), fam, t, win)
        nsq = quantum_norm(a, fam, t) ** 2
        assert nsq == pytest.approx(1.0 - win.tail_bound_hi, abs=1e-12)

    def test_single_entry(self):
        fam, t = disk(), 0.5
        win = window_from_range(fam, t, 0, 10)
        arr = np.zeros(9)
        arr[3] = 2.0  # entry (5, 3) = 2
        a = BandMatrix(win, {2: arr})
        expected = math.sqrt(math.sqrt(fam.s(t, 5) * fam.s(t, 3)) * 4.0)
        assert quantum_norm(a, fam, t) == pytest.approx(expected, abs=1e-14)

    def test_zbar_riemann_limit(self):
        fam, t = disk(), 0.01
        win = truncation_window(fam, t, 1e-4)
        a = realize_quantum(coordinate_element("zbar"), fam, t, win)
        assert abs(quantum_norm(a, fam, t) ** 2 - 0.5) <= 2e-2

    def test_parseval_split(self):
        fam, t = annulus(), 0.2
        win = truncation_window(fam, t, 1e-5)
        e = mixed_element()
        total = quantum_norm(realize_quantum(e, fam, t, win), fam, t) ** 2
        parts = 0.0
        for b, coeff in e.bands():
            single = LambdaElement({b: coeff})
            parts += quantum_norm(realize_quantum(single, fam, t, win), fam, t) ** 2
        assert total == pytest.approx(parts, rel=1e-13)

    def test_streamed_matches_realized(self):
        for fam in (disk(), annulus()):
            t = 0.15
            win = truncation_window(fam, t, 1e-4)
            e = mixed_element()
            streamed = lambda_norm_sq(e, fam, t, win)
            realized = quantum_norm(realize_quantum(e, fam, t, win), fam, t) ** 2
            assert streamed == pytest.approx(realized, rel=1e-13)


    @pytest.mark.parametrize("fam, k_lo, k_hi", [
        (disk(), 0, 2), (disk(), 0, 42), (disk(), 0, 47),
        (annulus(), -20, 25), (annulus(), -9, 41)])
    def test_streamed_across_chunk_boundaries(self, monkeypatch, fam, k_lo, k_hi):
        # window sizes 3, 43, 48, 46, 51: none a multiple of the block, and the
        # last block of 43 holds fewer indices than the band offset 3
        monkeypatch.setattr("qdbar.elements.BLOCK", 7)
        t = 0.2
        win = window_from_range(fam, t, k_lo, k_hi)
        e = make_element([
            {"side": "diag", "n": 0, "kind": "poly", "coeffs": [0.5, 1.0]},
            {"side": "f", "n": 1, "kind": "sqrt_poly", "coeffs": [1.0, 2.0]},
            {"side": "f", "n": 3, "kind": "poly", "coeffs": [1.0, 0.0, 1.0]},
            {"side": "g", "n": 2, "kind": "poly", "coeffs": [2.0, -1.0]},
            {"side": "g", "n": 3, "kind": "poly", "coeffs": [1.0]},
        ])
        streamed = lambda_norm_sq(e, fam, t, win)
        realized = quantum_norm(realize_quantum(e, fam, t, win), fam, t) ** 2
        assert streamed == pytest.approx(realized, rel=1e-13)


def norm_sq_at(workers, *args):
    """lambda_norm_sq with the CPU count, and so the worker count, forced."""
    with mock.patch.object(elements, "_cpus", lambda: workers):
        return lambda_norm_sq(*args)


@st.composite
def multi_block_cases(draw):
    """(family, t, element, block, window) with a window of 2 to 8 blocks."""
    fam = draw(admissible_families())
    t = draw(st.floats(0.05, 1.0, exclude_max=True))
    block = draw(st.integers(1, 16))
    size = draw(st.integers(block + 1, 8 * block))
    k_lo = 0 if fam.domain is Domain.DISK else draw(st.integers(-30, 30))
    win = window_from_range(fam, t, k_lo, k_lo + size - 1)
    return fam, t, make_element(draw(band_specs())), block, win


class TestNormWorkers:
    """lambda_norm_sq's two workers add the blocks up in block order; the
    mutants that fold the blocks in the order they finish, or that share one
    set of buffers between the workers, fail these tests."""

    @settings(max_examples=200, deadline=None)
    @given(case=multi_block_cases())
    def test_worker_count_does_not_change_the_bits(self, case):
        fam, t, elem, block, win = case
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the workers often
        try:
            with mock.patch.object(elements, "BLOCK", block):
                want = sequential_norm_sq(elem, fam, t, win)
                assert norm_sq_at(1, elem, fam, t, win) == want
                assert norm_sq_at(2, elem, fam, t, win) == want
        finally:
            sys.setswitchinterval(switch)

    def test_worker_count_does_not_change_the_bits_of_a_long_window(self):
        # the norms-stream annulus window at its smallest t
        fam, t = annulus(), 0.03125
        win = truncation_window(fam, t, 1e-5)
        assert (win.size, math.ceil(win.size / elements.BLOCK)) == (3_199_937, 49)
        want = sequential_norm_sq(mixed_element(), fam, t, win)
        assert norm_sq_at(1, mixed_element(), fam, t, win) == want
        assert norm_sq_at(2, mixed_element(), fam, t, win) == want

    @staticmethod
    def failing_element(fam, t, win, fails):
        """An element whose callable band raises ValueError("block at p") on
        the block from window position p on when fails(p) is true."""
        w_sq = fam.weight_sq(t, np.arange(win.k_lo, win.k_hi + 1))

        def coeff(s):
            first = int(np.searchsorted(w_sq, s[0]))
            if fails(first):
                raise ValueError(f"block at {first}")
            return s

        return LambdaElement({0: PowerSum.poly([1.0]), 1: coeff})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_lowest_failed_block_raises(self, monkeypatch, workers):
        monkeypatch.setattr(elements, "BLOCK", 4)
        fam, t = disk(), 0.3
        win = window_from_range(fam, t, 0, 40)
        elem = self.failing_element(fam, t, win, lambda first: first >= 8)
        with pytest.raises(ValueError, match="^block at 8$"):
            sequential_norm_sq(elem, fam, t, win)
        with pytest.raises(ValueError, match="^block at 8$"):
            norm_sq_at(workers, elem, fam, t, win)

    def test_an_error_of_the_helper_thread_reaches_the_caller(self, monkeypatch):
        # the caller's first block waits until the helper has taken one, and
        # every block the helper takes fails
        monkeypatch.setattr(elements, "BLOCK", 4)
        fam, t = disk(), 0.3
        win = window_from_range(fam, t, 0, 40)
        helper_failed, failed = threading.Event(), []

        def fails(first):
            if threading.current_thread() is threading.main_thread():
                assert helper_failed.wait(timeout=30)
                return False
            failed.append(first)
            helper_failed.set()
            return True

        elem = self.failing_element(fam, t, win, fails)
        before = threading.active_count()
        with pytest.raises(ValueError) as got:
            norm_sq_at(2, elem, fam, t, win)
        assert failed and str(got.value) == f"block at {failed[0]}"
        assert threading.active_count() == before
        assert norm_sq_at(2, mixed_element(), fam, t, win) == \
            sequential_norm_sq(mixed_element(), fam, t, win)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_does_not_grow_with_the_window(self, workers):
        # each worker holds five block-sized float64 arrays (w^2, S, the work
        # array, mu and c) and the workers share the block's index steps, so
        # 2 blocks and 16 peak alike; at two workers how much of the helper's
        # buffers overlap the caller's on 2 blocks depends on timing
        fam = disk()
        wins = [truncation_window(fam, 0.5, tol) for tol in (2e-5, 2e-6)]
        assert [math.ceil(win.size / elements.BLOCK) for win in wins] == [2, 16]
        peaks = []
        tracemalloc.start()
        try:
            for win in wins:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                norm_sq_at(workers, mixed_element(), fam, 0.5, win)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= (5 * workers + 1.5) * 8 * elements.BLOCK, peaks
        if workers == 1:
            assert peaks[1] <= 1.1 * peaks[0], peaks


class TestClassicalNorm:
    def test_diagonal_s_on_disk(self):
        e = make_element([{"side": "diag", "n": 0, "kind": "poly", "coeffs": [0.0, 1.0]}])
        assert classical_norm(e, disk()) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_zbar_on_disk(self):
        e = coordinate_element("zbar")
        assert classical_norm(e, disk()) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_one_on_annulus(self):
        e = coordinate_element("one")
        fam = annulus()
        assert classical_norm(e, fam) ** 2 == pytest.approx(
            fam.w_plus**2 - fam.w_minus**2, abs=1e-12)

    def test_needs_power_sum(self):
        e = make_element([{"side": "f", "n": 1, "fn": np.sqrt}])
        with pytest.raises(CapabilityError):
            classical_norm(e, disk())

    @settings(max_examples=200, deadline=None)
    @given(bands=st.lists(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0),
                                             st.floats(-2.0, -1e-3)),
                                   min_size=1, max_size=4),
                          min_size=1, max_size=3),
           min_powers=st.lists(st.integers(-3, 4), min_size=3, max_size=3),
           on_disk=st.booleans())
    def test_random_half_power_sums(self, bands, min_powers, on_disk):
        # the exact sum of int c^2 over [w_-^2, w_+^2] against `integrate`
        fam = disk() if on_disk else annulus()
        lo, hi = fam.w_minus**2, fam.w_plus**2
        spec = [{"side": "g", "n": n, "kind": "half_power", "coeffs": coeffs,
                 "min_power": m}
                for n, (coeffs, m) in enumerate(zip(bands, min_powers), start=1)]
        e = make_element(spec)
        if on_disk and any(c.min_power_half < 0 and not c.is_zero()
                           for _, c in e.bands()):
            with pytest.raises(DivergentIntegralError):    # c^2 has s^(j) with j <= -1
                classical_norm(e, fam)
            return
        want = sum(integrate(lambda s, c=c: c(s) ** 2, lo, hi, tol=1e-14)
                   for _, c in e.bands())
        assert classical_norm(e, fam) ** 2 == pytest.approx(want, rel=1e-11, abs=1e-14)


class TestTransform:
    """The closed form against adaptive quadrature of its integrand."""

    @staticmethod
    def assert_matches_oracle(s, p_half, phi, c0, moving, scale=1.0, rtol=1e-10):
        """Transform(p_half, phi, c0, moving, scale) at s against
        scale * s^(p/2) * I(s) with I(s) from `integrate`; returns the transform.

        A point may differ by rtol times the size of its integral,
        |s^(p/2)| (hi - lo) max|phi|, plus the rounding of a difference of
        antiderivatives, 1e-13 |s^(p/2)| sum_j |a_j| (|A_j(s)| + |A_j(c0)|).
        """
        tr = Transform(p_half, phi, c0, moving, scale)
        e = (phi.min_power_half + np.arange(phi.coeffs.size)) / 2.0 + 1.0
        s = np.atleast_1d(s)
        for x, got in zip(s, np.atleast_1d(tr(s))):
            lo, hi = sorted((c0, float(x)))
            # |phi| sampled inside the interval, away from a singular endpoint
            size = (hi - lo) * float(np.max(np.abs(
                phi(lo + (hi - lo) * np.arange(1, 17) / 16.0))))
            with np.errstate(all="ignore"):
                terms = np.where(e == 0.0, np.abs(np.log([x, c0])).sum(),
                                 (x**e + c0**e) / np.abs(e))
            rounding = 1e-13 * float(np.abs(phi.coeffs) @ terms)
            sign = 1.0 if (x >= c0) == (moving == "upper") else -1.0
            pref = math.sqrt(x) ** p_half
            want = scale * sign * pref * integrate(phi, lo, hi, tol=1e-13 * size)
            assert abs(got - want) <= abs(pref) * (rtol * size + rounding), \
                (x, got, want)
        return tr

    def test_matches_pointwise_quadrature(self):
        # I(s) = int_0^s u du = s^2/2, value = s^(-1/2) * I(s)
        s = np.linspace(0.05, 1.0, 37)
        tr = self.assert_matches_oracle(s, -1, PowerSum.poly([0.0, 1.0]), 0.0, "upper")
        assert np.allclose(tr(s), 0.5 * s**1.5, atol=1e-12, rtol=0)

    def test_lower_moving_limit(self):
        # I(s) = int_s^1 du = 1 - s; the grid holds both endpoints 0 and 1
        s = np.linspace(0.0, 1.0, 11)
        tr = self.assert_matches_oracle(s, 0, PowerSum.poly([1.0]), 1.0, "lower")
        assert np.allclose(tr(s), 1.0 - s, atol=1e-13, rtol=0)

    def test_derivative_via_ftc(self):
        s = np.array([0.3, 0.7])   # s * int_0^s du = s^2
        tr = self.assert_matches_oracle(s, 2, PowerSum.poly([1.0]), 0.0, "upper")
        assert np.allclose(tr.derivative()(s), 2.0 * s, atol=1e-12, rtol=0)
        assert np.allclose(tr(s), s * s, atol=1e-13, rtol=0)

    def test_unsorted_queries(self):
        s = np.array([0.9, 0.1, 0.5])
        tr = self.assert_matches_oracle(s, 0, PowerSum.poly([0.0, 1.0]), 0.0, "upper")
        assert np.allclose(tr(s), 0.5 * s * s, atol=1e-13, rtol=0)

    def test_scalar_call(self):
        tr = self.assert_matches_oracle(0.6, 0, PowerSum.poly([0.0, 1.0]), 0.0, "upper")
        assert tr(0.6) == pytest.approx(0.18, abs=1e-13)

    def test_log_term(self):
        # corrected f-side of a constant f_2 on the annulus: -s^(1/2) int_s^{w_+^2} du/u
        fam = annulus()
        lo, hi = fam.w_minus**2, fam.w_plus**2
        s = np.linspace(lo, hi, 41)
        tr = self.assert_matches_oracle(
            s, 1, PowerSum.poly([1.0]).shift_half_power(-2), hi, "lower", scale=-1.0)
        assert tr.Q == PowerSum([1.0], 1)     # the s^(1/2) log s part
        assert np.allclose(tr(s), -np.sqrt(s) * np.log(hi / s), atol=1e-13, rtol=0)
        assert np.allclose(tr.derivative()(s),
                           -0.5 * np.log(hi / s) / np.sqrt(s) + 1.0 / np.sqrt(s),
                           atol=1e-13, rtol=0)

    @pytest.mark.parametrize("min_power", [-2, -3, -4])
    def test_divergent_integral_raises(self, min_power):
        # int_0 u^(j/2) du diverges for j <= -2 (j = -2 is the log term)
        with pytest.raises(DivergentIntegralError):
            Transform(prefactor_half_power=0,
                      integrand=PowerSum([1.0, 2.0], min_power),
                      fixed_endpoint=0.0, moving="upper")

    def test_needs_power_sum(self):
        with pytest.raises(CapabilityError):
            Transform(prefactor_half_power=0, integrand=np.sqrt,
                      fixed_endpoint=0.0, moving="upper")

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0),
                                     st.floats(-2.0, -1e-3)),
                           min_size=1, max_size=5),
           min_power=st.integers(-6, 6), p_half=st.integers(-4, 4),
           moving=st.sampled_from(["upper", "lower"]),
           on_disk=st.booleans(),
           interior=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4))
    def test_random_half_power_sums(self, coeffs, min_power, p_half, moving,
                                    on_disk, interior):
        # tilde_element's endpoints: upper from w_-^2, lower from w_+^2
        fam = disk() if on_disk else annulus()
        lo, hi = fam.w_minus**2, fam.w_plus**2
        phi = PowerSum(coeffs, min_power)
        if on_disk and moving == "upper" and phi.min_power_half < -1 \
                and not phi.is_zero():
            with pytest.raises(DivergentIntegralError):
                Transform(p_half, phi, lo, moving)
            return
        s = [*(lo + (hi - lo) * np.array(interior)), hi]
        if not on_disk or (p_half >= 0 and phi.min_power_half >= 0):
            s.append(lo)        # w_-^2 on the annulus; 0 where finite on the disk
        self.assert_matches_oracle(np.array(s), p_half, phi,
                                   lo if moving == "upper" else hi, moving,
                                   scale=-1.0 if moving == "lower" else 1.0, rtol=1e-9)
