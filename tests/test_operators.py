import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    brute_Qt, dense_Dt, dense_Qt, dense_realize, dense_t_hat, densify,
)
from fixtures import (
    f1_constant_element, g_poly_element, inverse_fixtures, mixed_element,
    random_poly_element,
)
from qdbar.elements import (
    coordinate_element, make_element, realize_quantum, truncation_window,
    window_from_range,
)
from qdbar.errors import CapabilityError, ParameterError, WindowResourceError
from qdbar.operators import (
    KernelOperatorSpec, QtKernelMode, apply_D0, apply_Dt, apply_Qt,
    operator_norm_estimate, schur_analytic_cap, schur_young_bound,
    tilde_element,
)
from qdbar.weights import make_family

CORRECTED = QtKernelMode.CORRECTED
PRINTED = QtKernelMode.PRINTED


def disk():
    return make_family("unilateral_example")


def annulus():
    return make_family("bilateral_rational", alpha=1.0, beta=0.5)


class TestApplyDt:
    def test_zbar_maps_to_one(self):
        fam, t = disk(), 0.3
        win = window_from_range(fam, t, 0, 60)
        out = apply_Dt(realize_quantum(coordinate_element("zbar"), fam, t, win), fam, t)
        # rounding in D_t is amplified by 1/S near the window top
        assert np.max(np.abs(out.trusted(0) - 1.0)) < 1e-12

    def test_z_maps_to_zero(self):
        fam, t = disk(), 0.3
        win = window_from_range(fam, t, 0, 60)
        out = apply_Dt(realize_quantum(coordinate_element("z"), fam, t, win), fam, t)
        assert np.max(np.abs(out.trusted(2))) < 1e-14

    def test_one_maps_to_zero(self):
        fam, t = disk(), 0.3
        win = window_from_range(fam, t, 0, 60)
        out = apply_Dt(realize_quantum(coordinate_element("one"), fam, t, win), fam, t)
        assert np.max(np.abs(out.trusted(1))) < 1e-14

    def test_margin_grows(self):
        fam, t = disk(), 0.3
        win = window_from_range(fam, t, 0, 30)
        a = realize_quantum(coordinate_element("zbar"), fam, t, win)
        assert apply_Dt(apply_Dt(a, fam, t), fam, t).valid_margin == 2

    @pytest.mark.parametrize("fam", [disk(), annulus()])
    def test_matches_dense_commutator(self, fam):
        t = 0.35
        k_lo = 0 if fam.w_minus == 0 else -40
        win = window_from_range(fam, t, k_lo, 50)
        elem = mixed_element()
        out = apply_Dt(realize_quantum(elem, fam, t, win), fam, t)
        ref = dense_Dt(dense_realize(elem, fam, t, k_lo, 50), fam, t, k_lo, 50)
        got = densify(out)
        # compare away from the window edges (the dense product corrupts them too)
        sl = slice(4, 46 - k_lo)
        assert np.max(np.abs(got[sl, sl] - ref[sl, sl])) < 1e-12


class TestApplyQt:
    def test_one_on_disk_gives_zbar(self):
        fam, t = disk(), 0.4
        win = truncation_window(fam, t, 1e-6)
        out = apply_Qt(coordinate_element("one"), fam, t, win, CORRECTED)
        rows = np.arange(win.k_lo, win.k_hi)  # band -1 entries (j, j+1)
        assert np.max(np.abs(out.band(-1) - fam.weight(t, rows))) <= 1e-12

    def test_one_on_annulus_matches_classical_with_tail(self):
        fam, t = annulus(), 0.3
        win = truncation_window(fam, t, 1e-5)
        out = apply_Qt(coordinate_element("one"), fam, t, win, CORRECTED)
        rows = np.arange(win.k_lo, win.k_hi)
        w = fam.weight(t, rows)
        target = (fam.weight_sq(t, rows) - fam.w_minus**2) / w
        err = np.abs(out.band(-1) - target)
        assert np.all(err <= win.tail_bound_lo / w + 1e-14)

    @pytest.mark.parametrize("fam", [disk(), annulus()])
    @pytest.mark.parametrize("mode", [CORRECTED, PRINTED])
    def test_fast_equals_brute(self, fam, mode):
        t = 0.25
        k_lo = 0 if fam.w_minus == 0 else -1000
        win = window_from_range(fam, t, k_lo, 2000)
        elem = random_poly_element(np.random.default_rng(7), max_n=4)
        fast = apply_Qt(elem, fam, t, win, mode)
        brute = brute_Qt(elem, fam, t, win, mode)
        worst = 0.0
        for b in brute.bands:
            denom = np.abs(brute.band(b))
            rel = np.abs(fast.band(b) - brute.band(b)) / np.where(denom > 0, denom, 1.0)
            worst = max(worst, float(np.max(rel)))
        assert worst <= 1e-12

    def test_matches_dense_literal_sums(self):
        fam, t = disk(), 0.45
        win = window_from_range(fam, t, 0, 300)
        elem = mixed_element()
        for mode in (CORRECTED, PRINTED):
            got = densify(apply_Qt(elem, fam, t, win, mode))
            ref = dense_Qt(elem, fam, t, 0, 300, mode)
            assert np.max(np.abs(got - ref)) < 1e-11

    def test_band_cap(self):
        spec = [{"side": "f", "n": 17, "kind": "poly", "coeffs": [1.0]}]
        fam, t = disk(), 0.4
        win = window_from_range(fam, t, 0, 50)
        with pytest.raises(WindowResourceError):
            apply_Qt(make_element(spec), fam, t, win)

    def test_window_narrower_than_output_band(self):
        # output band -4 has no entries on a window of 3 indices
        fam, t = disk(), 0.5
        elem = make_element([{"side": "g", "n": 3, "kind": "poly", "coeffs": [1.0]}])
        out = apply_Qt(elem, fam, t, window_from_range(fam, t, 0, 2))
        assert out.band(-4).size == 0

    def test_gside_mode_independent(self):
        fam, t = annulus(), 0.3
        win = window_from_range(fam, t, -300, 300)
        elem = mixed_element()
        a = apply_Qt(elem, fam, t, win, CORRECTED)
        b = apply_Qt(elem, fam, t, win, PRINTED)
        for band in a.bands:
            if band < 0:
                assert np.array_equal(a.band(band), b.band(band))
            else:
                assert not np.allclose(a.band(band), b.band(band))


class TestInverseProperty:
    @pytest.mark.parametrize("t", [0.5, 0.1])
    @pytest.mark.parametrize("elem_idx", range(6))
    def test_corrected_right_inverse(self, t, elem_idx):
        fam = disk()
        elem = inverse_fixtures()[elem_idx]
        win = truncation_window(fam, t, 1e-4)
        back = apply_Dt(apply_Qt(elem, fam, t, win, CORRECTED, dtype=np.longdouble),
                        fam, t)
        target = realize_quantum(elem, fam, t, win)
        diff = back - target
        sup = max((float(np.max(np.abs(diff.trusted(b)))) if diff.trusted(b).size else 0.0)
                  for b in diff.bands)
        # extended-precision noise floor: eps_ld / S(k_hi) ~ 1e-10 at t = 0.1
        assert sup <= 1e-9

    def test_printed_gside_still_exact(self):
        fam, t = disk(), 0.5
        elem = g_poly_element()
        win = truncation_window(fam, t, 1e-4)
        back = apply_Dt(apply_Qt(elem, fam, t, win, PRINTED, dtype=np.longdouble),
                        fam, t)
        diff = back - realize_quantum(elem, fam, t, win)
        sup = max(float(np.max(np.abs(diff.trusted(b))))
                  for b in diff.bands if diff.trusted(b).size)
        assert sup <= 1e-10

    def test_printed_fside_fails_visibly(self):
        fam, t = disk(), 0.5
        elem = f1_constant_element()
        win = truncation_window(fam, t, 1e-6)
        back = apply_Dt(apply_Qt(elem, fam, t, win, PRINTED), fam, t)
        diff = back - realize_quantum(elem, fam, t, win)
        assert float(np.max(np.abs(diff.trusted(1)))) >= 0.1

    def test_dense_end_to_end(self):
        fam, t = disk(), 0.4
        elem = mixed_element()
        K = 400
        Q = dense_Qt(elem, fam, t, 0, K, CORRECTED)
        resid = dense_Dt(Q, fam, t, 0, K) - dense_realize(elem, fam, t, 0, K)
        interior = resid[3:K - 5, 3:K - 5]
        # the dense tail is truncated at K, so only tail-sized residuals remain
        assert np.max(np.abs(interior)) < 1e-10


class TestTilde:
    def test_unit_gives_zbar_classically(self):
        out = tilde_element(coordinate_element("one"), disk())
        s = np.linspace(1e-6, 1.0, 101)
        assert np.max(np.abs(out.by_band[-1](s) - np.sqrt(s))) < 1e-12

    def test_unit_on_annulus(self):
        fam = annulus()
        out = tilde_element(coordinate_element("one"), fam)
        s = np.linspace(fam.w_minus**2, fam.w_plus**2, 101)
        target = (s - fam.w_minus**2) / np.sqrt(s)
        assert np.max(np.abs(out.by_band[-1](s) - target)) < 1e-12

    def test_corrected_f1_constant(self):
        out = tilde_element(f1_constant_element(), disk(), CORRECTED)
        s = np.linspace(1e-4, 1.0, 101)
        assert np.max(np.abs(out.by_band[0](s) - (-2.0 * (1.0 - np.sqrt(s))))) < 1e-12
        back = apply_D0(out, disk())
        assert np.max(np.abs(back.by_band[1](s) - 1.0)) < 1e-10

    def test_printed_f1_residual_formula(self):
        out = tilde_element(f1_constant_element(), disk(), PRINTED)
        back = apply_D0(out, disk())
        s = np.linspace(0.05, 0.95, 73)
        assert np.max(np.abs(back.by_band[1](s) - 0.5 * (1.0 + 1.0 / s))) < 1e-10


class TestApplyD0:
    def test_coordinates(self):
        fam = disk()
        s = np.linspace(0.01, 1.0, 50)
        one_img = apply_D0(coordinate_element("zbar"), fam)
        assert np.max(np.abs(one_img.by_band[0](s) - 1.0)) < 1e-14
        zero_img = apply_D0(coordinate_element("z"), fam)
        assert zero_img.by_band == {}
        z_img = apply_D0(make_element(
            [{"side": "diag", "n": 0, "kind": "poly", "coeffs": [0.0, 1.0]}]), fam)
        assert np.max(np.abs(z_img.by_band[1](s) - np.sqrt(s))) < 1e-14

    @pytest.mark.parametrize("fam", [disk(), annulus()])
    @pytest.mark.parametrize("elem_idx", range(6))
    def test_classical_right_inverse(self, fam, elem_idx):
        elem = inverse_fixtures()[elem_idx]
        y = tilde_element(elem, fam, CORRECTED)
        back = apply_D0(y, fam)
        lo, hi = fam.w_minus**2, fam.w_plus**2
        span = hi - lo
        s = np.linspace(lo + 1e-3 * span, hi - 1e-3 * span, 100)
        for b, coeff in elem.bands():
            got = back.by_band[b](s)
            assert np.max(np.abs(got - coeff(s))) <= 1e-9

    def test_missing_derivative_raises(self):
        e = make_element([{"side": "f", "n": 1, "fn": np.sqrt}])
        with pytest.raises(CapabilityError, match="band"):
            apply_D0(e, disk())

    @staticmethod
    def band_values(elem, s):
        """Band index b -> coefficient samples."""
        return {b: coeff(s) for b, coeff in elem.bands()}

    @settings(max_examples=100, deadline=None)
    @given(bands=st.lists(
        st.tuples(st.sampled_from(["f", "g"]), st.integers(0, 4),
                  st.sampled_from(["poly", "sqrt_poly"]),
                  st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)),
        min_size=1, max_size=5, unique_by=lambda b: (b[0] if b[1] else "f", b[1])),
        on_disk=st.booleans())
    def test_random_elements_exact(self, bands, on_disk):
        # D0 Q0 x = x pointwise, and D0 maps the image of a Transform again
        fam = disk() if on_disk else annulus()
        x = make_element([{"side": side if n else "diag", "n": n, "kind": kind,
                           "coeffs": coeffs} for side, n, kind, coeffs in bands])
        lo, hi = fam.w_minus**2, fam.w_plus**2
        s = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 100)
        back = apply_D0(tilde_element(x, fam, CORRECTED), fam)
        for want, got in ((self.band_values(x, s), self.band_values(back, s)),
                          (self.band_values(apply_D0(x, fam), s),
                           self.band_values(apply_D0(back, fam), s))):
            for key in want.keys() | got.keys():
                assert np.max(np.abs(got.get(key, 0.0) - want.get(key, 0.0))) <= 1e-9, key


class TestSchur:
    def test_t2_rows_telescope(self):
        fam, t = disk(), 0.5
        win = window_from_range(fam, t, 0, 400)
        spec = KernelOperatorSpec(kind="T2", n=1, t=t, family=fam, window=win)
        sb = schur_young_bound(spec)
        ks = np.arange(0, 401)
        assert np.max(np.abs(sb.rows - fam.weight(t, ks))) < 1e-12
        assert sb.row_sup <= 1.0
        assert np.isfinite(sb.bound)

    @pytest.mark.parametrize("fam", [disk(), annulus()])
    @pytest.mark.parametrize("mode", [CORRECTED, PRINTED])
    def test_numeric_below_analytic_cap(self, fam, mode):
        cap = schur_analytic_cap(fam)
        for t in (0.5, 0.1, 0.01):
            win = truncation_window(fam, t, 1e-3)
            for n in range(1, 9):
                for kind in ("T1", "T2"):
                    spec = KernelOperatorSpec(kind=kind, n=n, t=t, family=fam, window=win,
                                              mode=mode)
                    assert schur_young_bound(spec).bound <= cap * (1 + 1e-12)

    def test_power_iteration_against_dense_svd(self):
        fam, t = disk(), 0.4
        win = window_from_range(fam, t, 0, 499)
        for kind, n in (("T1", 0), ("T1", 2), ("T2", 1), ("T2", 3)):
            spec = KernelOperatorSpec(kind=kind, n=n, t=t, family=fam, window=win)
            sv = np.linalg.svd(dense_t_hat(spec), compute_uv=False)[0]
            est = operator_norm_estimate(spec, iters=2000)
            assert est.converged
            assert abs(est.value - sv) <= 1e-8

    def test_estimate_below_schur_bound(self):
        fam = annulus()
        for t in (0.5, 0.1):
            win = truncation_window(fam, t, 1e-3)
            for kind, n in (("T1", 1), ("T1", 4), ("T2", 2), ("T2", 5)):
                spec = KernelOperatorSpec(kind=kind, n=n, t=t, family=fam, window=win)
                sb = schur_young_bound(spec)
                est = operator_norm_estimate(spec, iters=800)
                assert est.value <= sb.bound * (1 + 1e-10)

    def test_bad_kernel_args(self):
        fam, t = disk(), 0.5
        win = window_from_range(fam, t, 0, 10)
        with pytest.raises(ParameterError):
            schur_young_bound(KernelOperatorSpec("T2", 0, t, fam, win))
        with pytest.raises(ParameterError):
            schur_young_bound(KernelOperatorSpec("T9", 1, t, fam, win))
