"""Shared test elements: coordinates plus small polynomial band mixes."""

import math
from collections import Counter

import numpy as np
from hypothesis import strategies as st

from qdbar.elements import LambdaElement, PowerSum, coordinate_element, make_element
from qdbar.weights import FamilyKind, WeightFamily, make_family


def f_poly_element():
    """Pure f-side bands with degree <= 2 polynomial coefficients, N = 3."""
    return make_element([
        {"side": "f", "n": 1, "kind": "poly", "coeffs": [1.0, 1.0]},
        {"side": "f", "n": 2, "kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
        {"side": "f", "n": 3, "kind": "poly", "coeffs": [1.0]},
    ])


def g_poly_element():
    """Pure g-side bands with degree <= 2 polynomial coefficients, N = 3."""
    return make_element([
        {"side": "g", "n": 1, "kind": "poly", "coeffs": [2.0, -1.0]},
        {"side": "g", "n": 2, "kind": "poly", "coeffs": [0.0, 1.0]},
        {"side": "g", "n": 3, "kind": "poly", "coeffs": [1.0, 0.0, 1.0]},
    ])


def mixed_element():
    """Diagonal plus f and g bands, polynomial degree <= 2, N = 2."""
    return make_element([
        {"side": "diag", "n": 0, "kind": "poly", "coeffs": [0.0, 1.0]},
        {"side": "f", "n": 1, "kind": "sqrt_poly", "coeffs": [1.0, 1.0]},
        {"side": "f", "n": 2, "kind": "poly", "coeffs": [1.0, 1.0]},
        {"side": "g", "n": 1, "kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
        {"side": "g", "n": 2, "kind": "poly", "coeffs": [2.0, -1.0]},
    ])


def g2_element():
    """Single g-band at n = 2 (the parametrix-convergence workhorse)."""
    return make_element([{"side": "g", "n": 2, "kind": "poly", "coeffs": [1.0, 1.0]}])


def f2_element():
    """Single f-band at n = 2 (parametrix-convergence fixture)."""
    return make_element([{"side": "f", "n": 2, "kind": "poly", "coeffs": [0.0, 1.0]}])


def f1_constant_element():
    """f_1 = 1: the fixture whose PRINTED-mode inverse residual is the known failure."""
    return make_element([{"side": "f", "n": 1, "kind": "poly", "coeffs": [1.0]}])


def nan_diagonal_element():
    """f_1 = 1 plus a diagonal callable that is NaN above s = 0.9 (0 below):
    a broken band, which the inverse check must not pass."""
    return LambdaElement({1: PowerSum.poly([1.0]),
                          0: lambda s: np.where(s > 0.9, np.nan, 0.0)})


def inverse_fixtures():
    """The six elements the inverse-property checks run over."""
    return [
        coordinate_element("one"),
        coordinate_element("z"),
        coordinate_element("zbar"),
        f_poly_element(),
        g_poly_element(),
        mixed_element(),
    ]


def random_poly_element(rng: np.random.Generator, max_n=4):
    """Random positive-coefficient poly bands (positivity avoids zero crossings)."""
    spec = [{"side": "diag", "n": 0, "kind": "poly",
             "coeffs": list(rng.uniform(0.5, 1.5, size=2))}]
    for n in range(1, max_n + 1):
        spec.append({"side": "f", "n": n, "kind": "poly",
                     "coeffs": list(rng.uniform(0.5, 1.5, size=3))})
        spec.append({"side": "g", "n": n, "kind": "poly",
                     "coeffs": list(rng.uniform(0.5, 1.5, size=3))})
    return make_element(spec)


@st.composite
def admissible_families(draw):
    """A random family of any kind with admissible alpha, beta."""
    kind = draw(st.sampled_from(list(FamilyKind)))
    if kind is FamilyKind.UNILATERAL_EXAMPLE:
        return make_family(kind)
    beta = draw(st.floats(0.01, 10.0))
    spread = beta if kind is FamilyKind.BILATERAL_RATIONAL else beta * math.pi / 2.0
    return make_family(kind, alpha=spread * draw(st.floats(1.01, 10.0)), beta=beta)


def _record_weight_evaluations(monkeypatch, record):
    """Call record(name, t, values) after each array evaluation of
    WeightFamily.weight_sq or .s, for the rest of the test; scalar calls
    (tail bounds) are not recorded."""
    for name in ("weight_sq", "s"):
        def recorded(self, t, k, *args, _name=name, _orig=getattr(WeightFamily, name),
                     **kwargs):
            values = _orig(self, t, k, *args, **kwargs)
            if np.ndim(k):
                record(_name, t, values)
            return values
        monkeypatch.setattr(WeightFamily, name, recorded)


def count_weight_evaluations(monkeypatch):
    """Counter of ("weight_sq" or "s", t): array evaluations from now on."""
    calls = Counter()
    _record_weight_evaluations(monkeypatch, lambda name, t, values: calls.update([(name, t)]))
    return calls


def weight_evaluation_log(monkeypatch):
    """List of (name, dtype, size), one per array evaluation from now on."""
    log = []
    _record_weight_evaluations(
        monkeypatch, lambda name, t, values: log.append((name, values.dtype, values.size)))
    return log
