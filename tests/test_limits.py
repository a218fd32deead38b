import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dense_oracle import (
    brute_Qt, chained_inverse_residual, composed_uniform_bound_scan, realized_qt_norm,
)
from fixtures import (
    count_weight_evaluations, f_poly_element, g2_element, g_poly_element,
    inverse_fixtures, mixed_element, nan_diagonal_element, random_poly_element,
    weight_evaluation_log,
)
from qdbar.elements import (
    classical_norm, coordinate_element, make_element, truncation_window,
)
from qdbar import elements, limits
from qdbar.errors import (
    CapabilityError, InsufficientDataError, ParameterError, WindowResourceError,
)
from qdbar.limits import (
    ConvergenceSeries, SeriesRecord, continuity_scan, geometric_grid,
    inverse_residual, inverse_residual_bound, norm_convergence,
    parametrix_convergence, rate_fit, uniform_bound_scan,
)
from qdbar.operators import QtKernelMode, schur_analytic_cap, tilde_element
from qdbar.weights import make_family

CORRECTED = QtKernelMode.CORRECTED
PRINTED = QtKernelMode.PRINTED


def disk():
    return make_family("unilateral_example")


def annulus():
    return make_family("bilateral_rational", alpha=1.0, beta=0.5)


class TestNormConvergence:
    def test_unit_error_stays_below_tail(self):
        series = norm_convergence(coordinate_element("one"), disk(),
                                  geometric_grid(count=5), tail_tol=1e-5)
        for rec in series.records:
            assert rec.abs_error <= 1e-5

    def test_zbar_strictly_decreasing(self):
        series = norm_convergence(coordinate_element("zbar"), disk(),
                                  geometric_grid(count=6), tail_tol=1e-5)
        errs = [r.abs_error for r in series.records]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_zbar_rate_near_linear(self):
        # the zbar error on the disk family flattens at the truncation floor;
        # the calibrated slope band applies to the as-measured curve
        series = norm_convergence(coordinate_element("zbar"), disk(),
                                  geometric_grid(count=8), tail_tol=1e-5,
                                  k_cap=100_000_000)
        fit = rate_fit(series, drop_head=1, exclude_tail_floor=False)
        assert 0.7 <= fit.slope <= 1.3
        assert fit.points_used == 7

    def test_resource_error_names_t(self):
        with pytest.raises(WindowResourceError, match="t="):
            norm_convergence(coordinate_element("zbar"), disk(),
                             [0.001], tail_tol=1e-6, k_cap=10_000)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            norm_convergence(coordinate_element("one"), disk(), [0.1, 0.2], 1e-4)
        with pytest.raises(ParameterError):
            norm_convergence(coordinate_element("one"), disk(), [], 1e-4)

    def test_all_builtin_families_converge(self):
        # every built-in family, decreasing error for a signal-bearing element
        fam = make_family("bilateral_arctan", alpha=1.0, beta=0.5)
        tol = min(1e-4, 0.01 * classical_norm(mixed_element(), fam) ** 2)
        series = norm_convergence(mixed_element(), fam,
                                  geometric_grid(count=4), tol)
        errs = [r.abs_error for r in series.records]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_tail_honesty(self):
        # tightening the window tenfold moves the recorded errors by <= 10*tail
        elem = mixed_element()
        coarse = norm_convergence(elem, disk(), geometric_grid(count=4), 1e-4)
        fine = norm_convergence(elem, disk(), geometric_grid(count=4), 1e-5)
        for a, b in zip(coarse.records, fine.records):
            assert abs(a.abs_error - b.abs_error) <= 10.0 * 1e-4


class TestParametrixConvergence:
    def test_unit_error_is_tail_level(self):
        series = parametrix_convergence(coordinate_element("one"), disk(),
                                        geometric_grid(count=4), 1e-5, CORRECTED)
        for rec in series.records:
            assert rec.abs_error <= 1e-4

    @pytest.mark.parametrize("mode", [CORRECTED, PRINTED])
    def test_g2_errors_decrease(self, mode):
        series = parametrix_convergence(g2_element(), disk(),
                                        geometric_grid(count=5), 1e-4, mode)
        errs = [r.abs_error for r in series.records]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_fast_matches_brute_series(self):
        grid = [0.3, 0.15]
        fast = parametrix_convergence(g2_element(), disk(), grid, 1e-2, CORRECTED)
        y = tilde_element(g2_element(), disk(), CORRECTED)
        for rec in fast.records:
            win = truncation_window(disk(), rec.t, 1e-2)
            brute = realized_qt_norm(g2_element(), disk(), rec.t, win, CORRECTED,
                                     minus=y, qt=brute_Qt)
            assert rec.primary_value == pytest.approx(brute, rel=1e-11)


class TestInverseResidual:
    def test_pure_gside_both_modes(self):
        for mode in (CORRECTED, PRINTED):
            res = inverse_residual(g2_element(), disk(), 0.5,
                                   truncation_window(disk(), 0.5, 1e-4), mode)
            assert res <= 1e-10

    def test_mixed_corrected_within_bound(self):
        fam, t, tol = disk(), 0.1, 1e-4
        elem = mixed_element()
        win = truncation_window(fam, t, tol)
        res = inverse_residual(elem, fam, t, win, CORRECTED)
        assert res <= inverse_residual_bound(elem, fam, t, tol, win)

    def test_printed_fside_reported_failure(self):
        from fixtures import f1_constant_element
        res = inverse_residual(f1_constant_element(), disk(), 0.5,
                               truncation_window(disk(), 0.5, 1e-4), PRINTED)
        assert res >= 0.1

    @pytest.mark.parametrize("mode", [CORRECTED, PRINTED])
    @pytest.mark.parametrize("fam", [
        disk(), annulus(), make_family("bilateral_arctan", alpha=1.0, beta=0.5)])
    def test_equals_chained_band_matrices(self, fam, mode):
        for t, tol in ((0.5, 1e-4), (0.1, 1e-3)):
            win = truncation_window(fam, t, tol)
            for elem in inverse_fixtures():
                assert inverse_residual(elem, fam, t, win, mode) == \
                    chained_inverse_residual(elem, fam, t, win, mode)

    def test_nan_band_makes_the_residual_nan(self):
        # without its NaN diagonal the element's residual is 5.54e-17
        fam, t = disk(), 0.5
        win = truncation_window(fam, t, 1e-3)
        for residual in (inverse_residual, chained_inverse_residual):
            assert math.isnan(residual(nan_diagonal_element(), fam, t, win, CORRECTED))

    def test_peak_memory_below_chained_band_matrices(self):
        args = (mixed_element(), disk(), 0.5, truncation_window(disk(), 0.5, 1e-5),
                CORRECTED)
        peaks = []
        tracemalloc.start()
        try:
            for residual in (inverse_residual, chained_inverse_residual):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                residual(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 0.8 * peaks[1], peaks

    def test_peak_memory_does_not_grow_with_the_window(self):
        # the walks allocate block-sized buffers only: 2 blocks against 16
        fam = disk()
        wins = [truncation_window(fam, 0.5, tol) for tol in (2e-5, 2e-6)]
        assert [math.ceil(win.size / elements.BLOCK) for win in wins] == [2, 16]
        peaks = []
        tracemalloc.start()
        try:
            for win in wins:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                inverse_residual(mixed_element(), fam, 0.5, win, CORRECTED)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("fam", [disk(), annulus()])
    def test_weights_evaluated_once_per_block_and_direction(self, monkeypatch, fam):
        # per block of each walk: w^2 and S in longdouble for Q_t and D_t,
        # w^2 in float64 for x; mixed elements walk both ways, one-sided ones once
        t, tol = 0.5, 1e-5
        win = truncation_window(fam, t, tol)
        blocks = math.ceil(win.size / elements.BLOCK)
        assert blocks == 4
        for elem, walks in ((mixed_element(), 2), (g_poly_element(), 1), (f_poly_element(), 1)):
            log = weight_evaluation_log(monkeypatch)
            inverse_residual(elem, fam, t, win, CORRECTED)
            monkeypatch.undo()
            assert Counter((name, dtype) for name, dtype, _ in log) == {
                ("weight_sq", np.dtype(np.longdouble)): walks * blocks,
                ("s", np.dtype(np.longdouble)): walks * blocks,
                ("weight_sq", np.dtype(np.float64)): walks * blocks}
            # a block and the halo its band offsets read, never the window
            assert max(size for *_, size in log) <= elements.BLOCK + elem.N + 3

    def test_refuses_longdouble_no_wider_than_double(self, monkeypatch):
        monkeypatch.setattr(limits, "LONGDOUBLE_EPS", float(np.finfo(np.float64).eps))
        with pytest.raises(CapabilityError, match="extended-precision"):
            inverse_residual(g2_element(), disk(), 0.5,
                             truncation_window(disk(), 0.5, 1e-4), CORRECTED)


class TestContinuityScan:
    def test_unit_norm_flat(self):
        rows = continuity_scan(coordinate_element("one"), disk(), (0.1, 0.8),
                               steps=12, tail_tol=1e-6)
        diffs = [r.forward_difference for r in rows[:-1]]
        assert max(diffs) <= 2e-6

    def test_refinement_shrinks_modulus(self):
        elem = coordinate_element("zbar")
        prev = None
        for steps in (25, 50, 100):
            rows = continuity_scan(elem, disk(), (0.05, 0.9), steps, 1e-5)
            worst = max(r.forward_difference for r in rows[:-1])
            if prev is not None:
                assert worst <= 0.75 * prev
            prev = worst

    def test_agrees_with_norm_convergence(self):
        elem = mixed_element()
        rows = continuity_scan(elem, disk(), (0.1, 0.2), steps=2, tail_tol=1e-5)
        series = norm_convergence(elem, disk(), [0.2, 0.1], tail_tol=1e-5)
        assert rows[0].norm == pytest.approx(series.records[1].primary_value, abs=1e-13)
        assert rows[1].norm == pytest.approx(series.records[0].primary_value, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ParameterError):
            continuity_scan(coordinate_element("one"), disk(), (0.5, 0.2), 5, 1e-4)
        with pytest.raises(ParameterError):
            continuity_scan(coordinate_element("one"), disk(), (0.1, 0.5), 1, 1e-4)


class TestUniformBoundScan:
    def test_unit_ratio_below_w_plus(self):
        rows = uniform_bound_scan([coordinate_element("one")], disk(),
                                  [0.5, 0.1], 1e-5)
        for row in rows:
            assert row.max_ratio <= disk().w_plus * (1 + 1e-10)
            assert row.within_cap

    def test_ratios_below_cap_and_stable(self):
        fam = annulus()
        elems = [coordinate_element("one"), g2_element(), mixed_element()]
        rows = uniform_bound_scan(elems, fam, [0.5, 0.2, 0.1, 0.05], 1e-4)
        cap = schur_analytic_cap(fam)
        ratios = [r.max_ratio for r in rows]
        assert all(r.max_ratio <= cap for r in rows)
        assert max(ratios) <= 1.2 * min(ratios)

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            uniform_bound_scan([], disk(), [0.5], 1e-4)

    @staticmethod
    def scan_elements():
        zero = make_element([{"side": "f", "n": 1, "kind": "poly", "coeffs": [0.0]}])
        return [*inverse_fixtures(), random_poly_element(np.random.default_rng(5)), zero]

    @pytest.mark.parametrize("block", [None, *range(1, 17)])
    def test_equals_per_element_composition(self, monkeypatch, block):
        # one walk per direction for all elements keeps each element's sums
        # in their old order, so the rows are bitwise those of the old loop;
        # the default block gets windows of about 2e5 indices (four blocks)
        ts, tol = ([0.5, 0.05], 1e-4) if block is None else ([0.5, 0.3], 3e-2)
        if block is not None:
            monkeypatch.setattr(elements, "BLOCK", block)
        elems = self.scan_elements()
        for fam in (disk(), annulus(), make_family("bilateral_arctan", alpha=1.0, beta=0.5)):
            for mode in (CORRECTED, PRINTED):
                assert uniform_bound_scan(elems, fam, ts, tol, mode) == \
                    composed_uniform_bound_scan(elems, fam, ts, tol, mode)

    @pytest.mark.parametrize("fam", [disk(), annulus()])
    def test_weights_evaluated_once_per_block_and_direction(self, monkeypatch, fam):
        # both sides: one bottom-up and one top-down walk per t; g-side
        # (prefix) bands only: the bottom-up walk alone
        ts, tol = [0.5, 0.05], 1e-4
        blocks = {t: math.ceil(truncation_window(fam, t, tol).size / elements.BLOCK)
                  for t in ts}
        assert blocks[0.05] == 4
        for elems, walks in ((self.scan_elements(), 2), ([g2_element(), g_poly_element()], 1)):
            calls = count_weight_evaluations(monkeypatch)
            uniform_bound_scan(elems, fam, ts, tol)
            assert calls == {(name, t): walks * blocks[t]
                             for name in ("weight_sq", "s") for t in ts}
            monkeypatch.undo()

    def test_band_cap_only_for_a_nonzero_element(self):
        wide = make_element([{"side": "f", "n": 17, "kind": "poly", "coeffs": [1.0]}])
        # window [0, 2]: the band lies wholly outside it, the element is left out
        assert uniform_bound_scan([wide], disk(), [0.9], 0.3)[0].max_ratio == 0.0
        with pytest.raises(WindowResourceError, match="cap"):
            uniform_bound_scan([wide], disk(), [0.5], 1e-3)


class TestRateFit:
    def _series(self, errors, ts=None):
        ts = ts or [0.2 / 2**j for j in range(len(errors))]
        recs = tuple(SeriesRecord(t=t, window_lo=0, window_hi=100,
                                  primary_value=e, reference_value=0.0,
                                  abs_error=e, tail_bound=1e-12)
                     for t, e in zip(ts, errors))
        return ConvergenceSeries(kind="norm", tail_tol=1e-10, records=recs)

    def test_linear_slope(self):
        series = self._series([3.0 * 0.2 / 2**j for j in range(6)])
        fit = rate_fit(series, drop_head=0)
        assert fit.slope == pytest.approx(1.0, abs=1e-10)
        assert fit.residual < 1e-12

    def test_sqrt_slope(self):
        series = self._series([2.0 * np.sqrt(0.2 / 2**j) for j in range(6)])
        assert rate_fit(series, drop_head=0).slope == pytest.approx(0.5, abs=1e-10)

    def test_burn_in_dropped(self):
        errs = [99.0] + [0.2 / 2**j for j in range(1, 7)]
        fit = rate_fit(self._series(errs), drop_head=1)
        assert fit.slope == pytest.approx(1.0, abs=1e-10)
        assert fit.points_used == 6

    def test_tail_floor_excluded(self):
        recs = tuple(SeriesRecord(t=0.2 / 2**j, window_lo=0, window_hi=10,
                                  primary_value=1e-9, reference_value=0.0,
                                  abs_error=1e-9, tail_bound=1e-9)
                     for j in range(6))
        series = ConvergenceSeries(kind="norm", tail_tol=1e-8, records=recs)
        with pytest.raises(InsufficientDataError):
            rate_fit(series, drop_head=0)
