"""Shared test elements: coordinates plus small polynomial band mixes."""

import json
import math
from collections import Counter

import numpy as np
from hypothesis import strategies as st

from qdbar import cli
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
def family_specs(draw):
    """The config spec {kind, alpha, beta} of a random admissible family."""
    kind = draw(st.sampled_from(list(FamilyKind)))
    if kind is FamilyKind.UNILATERAL_EXAMPLE:
        return {"kind": kind.value}
    beta = draw(st.floats(0.01, 10.0))
    spread = beta if kind is FamilyKind.BILATERAL_RATIONAL else beta * math.pi / 2.0
    return {"kind": kind.value, "alpha": spread * draw(st.floats(1.01, 10.0)), "beta": beta}


def admissible_families():
    """A random family of any kind with admissible alpha, beta."""
    return family_specs().map(lambda spec: make_family(**spec))


# ---------------------------------------------------------------------------
# run configs for the CLI fuzzer
# ---------------------------------------------------------------------------

FUZZ_K_CAP = 200_000   # largest k_cap of a fuzzed config (drawn log-uniformly): it bounds a run

# stand-ins for one field of a near-miss config: wrong types, boundary values,
# huge and tiny numbers, and the NaN/Infinity literals Python's json accepts
NEAR_MISS_VALUES = [
    None, True, False, "x", "0.5", [], {}, [0.5], 0, 1, -1, 0.0, 1.0, 0.5, 2,
    2**53, -2**53, 2**53 + 1, 10**400, -10**400, 1e308, -1e308, 5e-324, 1e-300,
    float("nan"), float("inf"), float("-inf"),
]


@st.composite
def band_specs(draw):
    """A band spec list of one to three entries with distinct (side, n)."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["f", "g"]), st.integers(0, 3))
                         | st.just(("diag", 0)), min_size=1, max_size=3, unique=True))
    spec = []
    for side, n in keys:
        entry = {"side": side, "n": n,
                 "kind": draw(st.sampled_from(["poly", "sqrt_poly", "half_power"])),
                 "coeffs": draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))}
        if entry["kind"] == "half_power":
            entry["min_power"] = draw(st.integers(-4, 4))
        spec.append(entry)
    return spec


def _t_grids():
    ts = st.floats(0.01, 0.95)
    return st.one_of(
        st.lists(ts, min_size=1, max_size=3),
        st.fixed_dictionaries({"kind": st.just("explicit"),
                               "values": st.lists(ts, min_size=1, max_size=3)}),
        st.fixed_dictionaries({"kind": st.just("geometric"), "head": st.floats(0.1, 0.9),
                               "ratio": st.floats(0.2, 0.9), "count": st.integers(1, 3)}))


@st.composite
def _sections(draw, experiment, family):
    """The experiment's own section (possibly empty), or {} if it has none."""
    if experiment == "check-weights":
        lo = 0 if family["kind"] == "unilateral_example" else draw(st.integers(-2000, 0))
        hi = draw(st.integers(max(lo, 1), 2000))
        section = {"window": [lo, hi], "tail_index": draw(st.integers(lo, hi))}
        key = "weights_check"
    elif experiment == "schur":
        section = {"max_n": draw(st.integers(0, 3)), "iters": draw(st.integers(1, 40)),
                   "kinds": draw(st.sampled_from([["T1"], ["T2"], ["T1", "T2"]]))}
        key = "schur"
    elif experiment == "continuity":
        section = {"t_lo": draw(st.floats(0.05, 0.5)), "t_hi": draw(st.floats(0.55, 0.95)),
                   "steps": draw(st.integers(2, 4))}
        key = "continuity"
    else:
        return {}
    # each key of the section may fall back to its default
    return {key: {k: v for k, v in section.items() if draw(st.booleans())}}


def _containers(node):
    """Every (container, key) slot of a JSON document, outermost first."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _containers(value)


@st.composite
def run_configs(draw):
    """(experiment, config text): a config of the README grammar for any
    experiment of the CLI's table, with its own section and the element or
    elements it reads; half of them are near-misses, where one field is
    replaced by a NEAR_MISS_VALUES entry, one key or list entry is dropped, or
    an extra key or entry is added.  The invalid values of k_cap itself are
    left to test_cli's explicit cases."""
    experiment = draw(st.sampled_from(cli.EXPERIMENTS))
    family = draw(family_specs())
    elements = {"element": band_specs(),
                "elements": st.lists(band_specs(), min_size=1, max_size=3)}
    config = {"family": family, "t_grid": draw(_t_grids()),
              "truncation": {"tail_tol": 10.0 ** draw(st.floats(-6.0, -0.5)),
                             "k_cap": round(FUZZ_K_CAP ** draw(st.floats(0.0, 1.0)))},
              **draw(_sections(experiment, family))}
    for key in ("element", "elements"):
        if key in cli._TABLE[experiment].reads:
            config[key] = draw(elements.pop(key))
    optional = {
        **elements,
        "experiment": st.just(experiment),
        "qt_kernel": st.sampled_from(["corrected", "printed"]),
        "expect_failure": st.booleans(),
        "output": st.fixed_dictionaries({"format": st.sampled_from(["csv", "json"])}),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            config[key] = draw(values)
    if draw(st.booleans()):
        # k_cap bounds the run, so neither it nor its section is touched
        slots = [(c, k) for c, k in _containers(config)
                 if k not in ("truncation", "k_cap")]
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "replace":
            container[key] = draw(st.sampled_from(NEAR_MISS_VALUES))
        elif action == "drop":
            del container[key]
        elif isinstance(container, dict):
            container["extra_key"] = draw(st.sampled_from(NEAR_MISS_VALUES))
        else:
            container.append(draw(st.sampled_from(NEAR_MISS_VALUES)))
    return experiment, json.dumps(config)


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
