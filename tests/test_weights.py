import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import admissible_families
from qdbar.errors import ParameterError, WindowResourceError
from qdbar.weights import (
    Domain, WeightFamily, condition_report, make_family,
    s_ratio_margin,
)

T_GRID = [0.5, 0.25, 0.1, 0.01]


def disk():
    return make_family("unilateral_example")


def annulus():
    return make_family("bilateral_rational", alpha=1.0, beta=0.5)


def annulus_arctan():
    return make_family("bilateral_arctan", alpha=1.0, beta=0.5)


class TestMakeFamily:
    def test_unilateral_limits(self):
        fam = disk()
        assert fam.domain is Domain.DISK
        assert fam.w_plus == 1.0 and fam.w_minus == 0.0

    def test_bilateral_rational_limits(self):
        fam = annulus()
        assert fam.domain is Domain.ANNULUS
        assert fam.w_plus**2 == pytest.approx(1.5, abs=1e-15)
        assert fam.w_minus**2 == pytest.approx(0.5, abs=1e-15)

    def test_bilateral_rational_rejects_negative_inner_radius(self):
        with pytest.raises(ParameterError, match="alpha > beta > 0"):
            make_family("bilateral_rational", alpha=1.0, beta=1.5)

    def test_bilateral_arctan_constraint(self):
        fam = annulus_arctan()
        assert fam.w_minus**2 == pytest.approx(1.0 - 0.25 * math.pi, abs=1e-15)
        with pytest.raises(ParameterError):
            make_family("bilateral_arctan", alpha=1.0, beta=0.7)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            make_family("unilateral_example", domain="annulus")

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            make_family("hexagonal")


class TestWeightValues:
    def test_boundary_t_one(self):
        assert float(disk().weight(1.0, 0)) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_negative_index_convention(self):
        for t in T_GRID:
            assert float(disk().weight(t, -1)) == 0.0

    def test_bilateral_center(self):
        assert float(annulus().weight(0.5, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_t_domain_error(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                float(disk().weight(bad, 3))

    @pytest.mark.parametrize("fam", [disk(), annulus(), annulus_arctan()])
    def test_strict_monotonicity(self, fam):
        ks = np.arange(0 if fam.domain is Domain.DISK else -200, 201)
        for t in T_GRID:
            w = fam.weight(t, ks)
            assert np.all(np.diff(w) > 0)


class TestSValues:
    def test_closed_form_t1(self):
        # t/((1+kt)(1+(k+1)t)) at t=1, k=1
        assert float(disk().s(1.0, 1)) == pytest.approx(1.0 / 6.0, abs=1e-16)

    def test_k0_equals_first_weight_squared(self):
        assert float(disk().s(1.0, 0)) == pytest.approx(0.5, abs=1e-16)

    @pytest.mark.parametrize("fam", [disk(), annulus(), annulus_arctan()])
    def test_strictly_positive(self, fam):
        ks = np.arange(0 if fam.domain is Domain.DISK else -500, 501)
        for t in T_GRID:
            assert np.all(fam.s(t, ks) > 0)

    @pytest.mark.parametrize("fam", [disk(), annulus(), annulus_arctan()])
    def test_matches_weight_squared_difference(self, fam):
        ks = np.arange(0 if fam.domain is Domain.DISK else -50, 51)
        for t in T_GRID:
            direct = fam.weight_sq(t, ks) - fam.weight_sq(t, ks - 1)
            assert np.max(np.abs(direct - fam.s(t, ks))) < 1e-14


class TestSolveKHi:
    @pytest.mark.parametrize("fam, tol", [
        (disk(), 1e-300),                                                  # k_hi ~ 2e300
        (make_family("bilateral_arctan", alpha=3.0, beta=1.0), 1e-320),    # k_hi ~ 2e320
    ], ids=["disk-beyond-2^53", "arctan-non-finite"])
    def test_resource_error_in_bounded_time(self, fam, tol):
        started = time.perf_counter()
        with pytest.raises(WindowResourceError):
            fam.solve_k_hi(0.5, tol)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("fam", [disk(), annulus(), annulus_arctan()])
    def test_rejects_nonpositive_tolerance(self, fam):
        for solve in (fam.solve_k_hi, fam.solve_k_lo):
            with pytest.raises(ParameterError, match="positive"):
                solve(0.5, 0.0)


class TestTailBounds:
    @pytest.mark.parametrize("t", [0.5, 1e-2, 1e-4])
    def test_arctan_tails_match_extended_precision(self, t):
        # beta (pi/2 -+ arctan(t k)) is beta atan2(1, +-t k); the difference
        # w_plus^2 - w_t(k)^2 would cancel to about 3e-4 relative here
        fam, ld = annulus_arctan(), np.longdouble
        for k in (0, 1, 7, 10**3, 10**6, 10**9, 10**11, 10**13):
            want = 0.5 * np.arctan2(ld(1), ld(t) * ld(k))
            for got in (fam.tail_bound_hi(t, k), fam.tail_bound_lo(t, -k)):
                assert abs(ld(got) - want) <= 1e-14 * want


class TestCommutationIdentity:
    def test_unilateral_commutator_diagonal(self):
        # S_t(k) = t (1 - w_t(k-1)^2)(1 - w_t(k)^2) for the disk example
        fam = disk()
        ks = np.arange(0, 1001)
        for t in T_GRID:
            lhs = fam.s(t, ks)
            rhs = t * (1.0 - fam.weight_sq(t, ks - 1)) * (1.0 - fam.weight_sq(t, ks))
            assert np.max(np.abs(lhs - rhs)) <= 1e-14


class TestTelescopingTrace:
    @pytest.mark.parametrize("fam", [disk(), annulus(), annulus_arctan()])
    def test_partial_trace_telescopes(self, fam):
        k_lo = 0 if fam.domain is Domain.DISK else -3000
        ks = np.arange(k_lo, 3001)
        for t in T_GRID:
            partial = float(np.sum(fam.s(t, ks)))
            expected = float(fam.weight_sq(t, ks[-1]) - fam.weight_sq(t, k_lo - 1))
            assert abs(partial - expected) < 1e-12


class TestConditionReport:
    def test_closed_form_moduli_disk(self):
        fam = disk()
        rep = condition_report(fam, T_GRID, (0, 10_000), tail_index=5000)
        for t, h1, h2, h1c, h2c in zip(T_GRID, rep.h1_values, rep.h2_values,
                                       rep.h1_closed, rep.h2_closed):
            assert abs(h1 - t / (1.0 + t)) < 1e-12
            assert abs(h2 - 2.0 * t / (1.0 + 2.0 * t)) < 1e-12
            assert abs(h1c - t / (1.0 + t)) < 1e-15
            assert abs(h2c - 2.0 * t / (1.0 + 2.0 * t)) < 1e-15
        # paper-style closed form for h3 against the code's expression
        ks = np.arange(0, 10_001)
        ref = 1.0 / (ks + 1.0 + np.sqrt(ks * ks + ks, dtype=np.float64))
        assert np.max(np.abs(rep.h3_closed - ref)) < 1e-12
        assert rep.h3_closed[0] == pytest.approx(1.0, abs=1e-15)
        assert rep.violations() == []

    def test_specific_moduli_values(self):
        fam = disk()
        rep = condition_report(fam, [0.5, 0.25], (0, 1000), tail_index=500)
        assert rep.h1_values[0] == pytest.approx(1.0 / 3.0, abs=1e-14)   # t = 0.5
        assert rep.h2_values[1] == pytest.approx(1.0 / 3.0, abs=1e-14)   # t = 0.25

    def test_bilateral_rational_closed_h1_h2(self):
        fam = annulus()
        rep = condition_report(fam, T_GRID, (-2000, 2000), tail_index=1000)
        for t, h1, h2 in zip(T_GRID, rep.h1_values, rep.h2_values):
            assert abs(h1 - 0.5 * t / (1.0 + t)) < 1e-12
            assert abs(h2 - 2.0 * t) < 1e-12
        assert rep.violations() == []

    def test_trace_deviation_within_bound(self):
        for fam in (disk(), annulus(), annulus_arctan()):
            win = (0, 5000) if fam.domain is Domain.DISK else (-5000, 5000)
            rep = condition_report(fam, T_GRID, win, tail_index=2500)
            for dev, bound in zip(rep.trace_deviation, rep.trace_tail_bound):
                assert dev <= bound * (1 + 1e-12) + 1e-15

    def test_wconst_identity(self):
        for fam in (disk(), annulus(), annulus_arctan()):
            win = (0, 300) if fam.domain is Domain.DISK else (-300, 300)
            rep = condition_report(fam, T_GRID, win, tail_index=100)
            assert abs(rep.const_wratio - rep.const_wratio_identity) < 1e-12
            assert rep.const_wratio <= fam.wconst_analytic() * (1 + 1e-12)

    def test_h3_decays_on_window(self):
        fam = disk()
        rep = condition_report(fam, T_GRID, (0, 500), tail_index=100)
        h3 = rep.h3_values[1:]  # k >= 1
        assert np.all(np.diff(h3) <= 1e-15)

    def test_limit_deviation(self):
        fam = disk()
        rep = condition_report(fam, [0.5], (0, 1000), tail_index=800)
        expected = 1.0 - float(fam.weight(0.5, 800))
        assert rep.limit_deviation_hi[0] == pytest.approx(expected, abs=1e-15)

    def test_empty_window_rejected(self):
        with pytest.raises(ParameterError):
            condition_report(disk(), [0.5], (10, 5), tail_index=7)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            condition_report(disk(), [], (0, 10), tail_index=5)


class TestSRatioMargin:
    def test_n1_margin_is_zero_by_construction(self):
        for fam in (disk(), annulus()):
            win = (0, 2000) if fam.domain is Domain.DISK else (-2000, 2000)
            assert abs(s_ratio_margin(fam, 0.5, 1, win)) < 1e-15

    @pytest.mark.parametrize("t", [0.5, 0.1])
    @pytest.mark.parametrize("n", [2, 3])
    def test_margin_nonnegative_disk(self, t, n):
        assert s_ratio_margin(disk(), t, n, (0, 100_000)) >= -1e-13

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            s_ratio_margin(disk(), 0.5, 0, (0, 100))


ts = st.floats(1e-3, 1.0)
tols = st.floats(1e-10, 0.5)


class TestFamilyProperties:
    @settings(max_examples=200, deadline=None)
    @given(fam=admissible_families(), t=ts, tol=tols)
    def test_window_is_minimal_at_both_ends(self, fam, t, tol):
        k_hi, k_lo = fam.solve_k_hi(t, tol), fam.solve_k_lo(t, tol)
        assert fam.tail_bound_hi(t, k_hi) <= tol
        assert k_hi == 0 or fam.tail_bound_hi(t, k_hi - 1) > tol
        assert fam.tail_bound_lo(t, k_lo) <= tol
        if fam.domain is Domain.DISK:
            assert k_lo == 0
        else:
            assert k_lo == 0 or fam.tail_bound_lo(t, k_lo + 1) > tol

    @settings(max_examples=200, deadline=None)
    @given(fam=admissible_families(), t=ts, tol=st.floats(1e-5, 0.5),
           shrink=st.floats(0.1, 1.0))
    def test_window_grows_as_tol_shrinks(self, fam, t, tol, shrink):
        assert fam.solve_k_hi(t, tol * shrink) >= fam.solve_k_hi(t, tol)
        assert fam.solve_k_lo(t, tol * shrink) <= fam.solve_k_lo(t, tol)

    @settings(max_examples=200, deadline=None)
    @given(fam=admissible_families(), t=ts, tol=tols)
    def test_s_is_the_weight_square_difference_at_the_edges(self, fam, t, tol):
        k_hi, k_lo = fam.solve_k_hi(t, tol), fam.solve_k_lo(t, tol)
        ks = np.concatenate([np.arange(k_lo, min(k_lo + 4, k_hi) + 1),
                             np.arange(max(k_hi - 4, k_lo), k_hi + 1)])
        direct = fam.weight_sq(t, ks) - fam.weight_sq(t, ks - 1)
        # both squares are within rounding of w_plus^2, so the difference
        # carries a few of its units in absolute terms
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(direct - fam.s(t, ks))) <= 8 * eps * fam.w_plus**2

    @settings(max_examples=200, deadline=None)
    @given(fam=admissible_families(), k_lo=st.integers(-10**6, 10**6),
           k_hi=st.integers(-10**6, 10**6))
    def test_check_window(self, fam, k_lo, k_hi):
        if k_lo > k_hi or (fam.domain is Domain.DISK and k_lo != 0):
            with pytest.raises(ParameterError):
                fam.check_window(k_lo, k_hi)
        else:
            assert fam.check_window(k_lo, k_hi) == (k_lo, k_hi)

    @pytest.mark.parametrize("tol, want", [(1e-9, 5_000_000_000_000),
                                           (1e-10, 50_000_000_000_000)])
    def test_arctan_solve_far_from_its_guess_is_fast(self, tol, want):
        # the minimal windows beta / (t tol) under the exact tail, trillions
        # of indices out: each solve is one bisection of 54 tail evaluations
        fam, t = annulus_arctan(), 1e-4
        for solve in (fam.solve_k_hi, fam.solve_k_lo):
            started = time.perf_counter()
            solve(t, tol)
            assert time.perf_counter() - started < 0.1
        k_hi, k_lo = fam.solve_k_hi(t, tol), fam.solve_k_lo(t, tol)
        assert k_hi == want == -k_lo
        assert fam.tail_bound_hi(t, k_hi) <= tol < fam.tail_bound_hi(t, k_hi - 1)
        assert fam.tail_bound_lo(t, k_lo) <= tol < fam.tail_bound_lo(t, k_lo + 1)

    def test_disk_window_at_zero(self):
        assert disk().check_window(0, 7) == (0, 7)
        with pytest.raises(ParameterError, match="empty"):
            disk().check_window(0, -1)


def test_traced_methods_are_not_overridden():
    # The benchmark tracer wraps these on WeightFamily itself; a subclass
    # override would bypass the wrapper and its per-layer metrics read 0.
    for cls in WeightFamily.__subclasses__():
        for name in ("weight_sq", "s", "solve_k_hi"):
            assert name not in vars(cls), f"{cls.__name__} overrides {name}"
