import numpy as np
import pytest

from qdbar.errors import ParameterError, QuadratureError
from qdbar.quadrature import integrate, integrate_with_error, panel_integrals


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda s: s * s, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_inverse_power(self):
        # antiderivative -2 u^(-1/2): 2/sqrt(0.01) - 2 = 18
        val = integrate(lambda u: u**-1.5, 0.01, 1.0, tol=1e-10)
        assert val == pytest.approx(18.0, abs=1e-10)

    def test_sqrt(self):
        assert integrate(np.sqrt, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_endpoint_singularity(self):
        # integrable singularity at the lower endpoint; nodes never touch it
        val = integrate(lambda u: 1.0 / np.sqrt(u), 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_empty_interval(self):
        assert integrate(np.sin, 2.0, 2.0) == 0.0

    def test_reversed_limits_rejected(self):
        with pytest.raises(ParameterError):
            integrate(np.sin, 1.0, 0.0)

    def test_budget_exhaustion_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as exc:
            integrate_with_error(lambda u: 1.0 / np.sqrt(np.abs(u)), 0.0, 1.0,
                                 tol=1e-15, max_panels=8)
        assert exc.value.best_estimate == pytest.approx(2.0, abs=0.1)
        assert exc.value.achieved_error > 1e-15

    def test_oscillatory(self):
        val = integrate(lambda x: np.sin(40.0 * x), 0.0, np.pi, tol=1e-12)
        assert val == pytest.approx((1.0 - np.cos(40.0 * np.pi)) / 40.0, abs=1e-11)


class TestPanels:
    def test_panel_integrals_match_sum(self):
        edges = np.linspace(0.0, 2.0, 257)
        vals, errs = panel_integrals(lambda x: np.exp(-x) * x, edges)
        total = float(np.sum(vals))
        exact = 1.0 - 3.0 * np.exp(-2.0)
        assert total == pytest.approx(exact, abs=1e-13)
        assert np.all(errs < 1e-12)

    def test_gauss_and_kronrod_degree(self):
        # K15 integrates degree-13 polynomials exactly; error estimate ~ 0
        edges = np.array([-1.0, 1.0])
        vals, errs = panel_integrals(lambda x: x**13 + x**12, edges)
        assert vals[0] == pytest.approx(2.0 / 13.0, abs=1e-14)
        assert errs[0] < 1e-14
