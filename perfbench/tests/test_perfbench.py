"""Self-tests of the benchmark: span arithmetic, generator, correctness gate."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qdbar import cli, elements  # noqa: E402


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    trace = [
        spans.Span(2, 1, "elements.c", 2.0, 3.0),
        spans.Span(1, 0, "operators.a", 1.0, 4.0),
        spans.Span(3, 0, "operators.b", 5.0, 9.0),
        spans.Span(0, None, "cli.root", 0.0, 10.0),
    ]
    stats = spans.self_times(trace)
    assert stats["cli.root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert stats["operators.a"]["self_s"] == 2.0
    assert stats["elements.c"]["self_s"] == 1.0
    assert stats["operators.b"]["self_s"] == 4.0
    total_self = sum(rec["self_s"] for rec in stats.values())
    assert total_self == 10.0   # self times partition the root span
    inclusive = spans.layer_inclusive(trace)
    assert inclusive == {"cli": 10.0, "operators": 7.0, "elements": 1.0}


def test_self_time_merges_overlapping_children():
    trace = [spans.Span(0, None, "a", 0.0, 10.0),
             spans.Span(1, 0, "b", 1.0, 5.0),
             spans.Span(2, 0, "c", 4.0, 12.0)]   # overlaps b, ends after a
    assert spans.self_times(trace)["a"]["self_s"] == 1.0


def test_instrument_restores_the_package():
    before = (cli.run_experiment, elements.PowerSum.__call__,
              elements.truncation_window)
    tracer = spans.Tracer()
    text = json.dumps({"experiment": "check-weights",
                       "family": workloads.DISK, "t_grid": [0.5, 0.1]})
    with spans.instrument(tracer):
        cli.parse_config(text)
    assert [s.name for s in tracer.spans] == ["cli.parse_config"]
    assert (cli.run_experiment, elements.PowerSum.__call__,
            elements.truncation_window) == before


# ---------------------------------------------------------------------------
# seeded generator
# ---------------------------------------------------------------------------

def _structure(text):
    """Config text with every nonzero coefficient value blanked out."""
    config = json.loads(text)
    for spec in [config.get("element", [])] + config.get("elements", []):
        for band in spec:
            band["coeffs"] = [c != 0.0 for c in band["coeffs"]]
    return config


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_work_does_not_depend_on_seed(name):
    a, b = workloads.generate(name, 1), workloads.generate(name, 2)
    assert [label for label, _ in a] == [label for label, _ in b]
    assert [_structure(t) for _, t in a] == [_structure(t) for _, t in b]
    work = [sum(run.band_indices(cli.parse_config(t)) for _, t in cfgs)
            for cfgs in (a, b)]
    assert work[0] == work[1] > 0
    if any('"coeffs"' in t for _, t in a):
        assert a != b   # the seed does reach the coefficients


def test_coefficients_in_range():
    for name in workloads.WORKLOADS:
        for _, text in workloads.generate(name, 3):
            for value in re.findall(r'"coeffs": \[([^\]]*)\]', text):
                for c in json.loads(f"[{value}]"):
                    assert c == 0.0 or 0.5 <= c <= 1.5


def test_workload_reasons_are_recorded():
    for w in workloads.WORKLOADS.values():
        assert w.why and "\n" not in w.why and len(w.why) <= 200


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

NORMS = {"experiment": "norms"}
NORM_ROWS = [{"t": 0.4 * 0.5 ** j, "k_hi": 1000 * 2 ** j,
              "quantum_norm": 1.0, "classical_norm": 1.0,
              "abs_error": 0.1 * 0.5 ** j, "tail_bound": 1e-5}
             for j in range(4)]
OK_MANIFEST = {"status": "ok",
               "points": [{"t": r["t"], "k_lo": 0, "k_hi": r["k_hi"],
                           "status": "ok"} for r in NORM_ROWS]}
NORM_REF = {"points": gate.window_points(OK_MANIFEST), "rows": NORM_ROWS}


def test_gate_accepts_a_clean_run():
    assert gate.check_run(NORMS, 0, OK_MANIFEST, NORM_ROWS) == []
    assert gate.compare_reference(OK_MANIFEST, NORM_ROWS, NORM_REF) == []


def test_gate_rejects_a_wrong_exit_code():
    assert gate.check_run(NORMS, 4, OK_MANIFEST, NORM_ROWS)
    bad_manifest = {"status": "ok", "points": [{"status": "violation"}] * 4}
    assert gate.check_run(NORMS, 0, bad_manifest, NORM_ROWS)


def test_gate_rejects_a_broken_property():
    rows = [dict(r) for r in NORM_ROWS]
    rows[2]["abs_error"] = rows[1]["abs_error"]     # no longer decreasing
    assert gate.check_run(NORMS, 0, OK_MANIFEST, rows)
    flat = [dict(r, abs_error=0.1 * 0.9 ** j) for j, r in enumerate(NORM_ROWS)]
    assert any("slope" in b for b in gate.check_run(NORMS, 0, OK_MANIFEST, flat))


def test_gate_rejects_a_perturbed_report():
    rows = [dict(r) for r in NORM_ROWS]
    rows[3]["quantum_norm"] *= 1 + 1e-4
    assert gate.compare_reference(OK_MANIFEST, rows, NORM_REF)
    rows[3]["quantum_norm"] = NORM_ROWS[3]["quantum_norm"] * (1 + 1e-12)
    assert gate.compare_reference(OK_MANIFEST, rows, NORM_REF) == []  # reordered sums
    rows[3]["k_hi"] += 1
    assert gate.compare_reference(OK_MANIFEST, rows, NORM_REF)


def test_gate_checks_the_work_for_every_seed():
    # another seed: coefficient-dependent values may differ from the reference
    rows = [dict(r, quantum_norm=2.0, abs_error=2 * r["abs_error"])
            for r in NORM_ROWS]
    assert gate.compare_reference(OK_MANIFEST, rows, NORM_REF, full=False) == []
    # ... but a dropped grid point, a smaller window or a moved t may not
    dropped = {"status": "ok", "points": OK_MANIFEST["points"][:3]}
    assert gate.compare_reference(dropped, rows[:3], NORM_REF, full=False)
    shrunk = {"status": "ok", "points": [dict(p) for p in OK_MANIFEST["points"]]}
    shrunk["points"][3]["k_hi"] -= 1
    assert gate.compare_reference(shrunk, rows, NORM_REF, full=False)
    rows[3]["k_hi"] -= 1
    assert gate.compare_reference(OK_MANIFEST, rows, NORM_REF, full=False)
    rows[3]["k_hi"] += 1
    rows[3]["t"] *= 1.01
    assert gate.compare_reference(OK_MANIFEST, rows, NORM_REF, full=False)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_covers_every_config(name):
    reference = json.loads(run.REFERENCE.read_text())[name]
    assert sorted(reference) == sorted(label for label, _ in
                                       workloads.generate(name, 1))
    for stored in reference.values():
        assert stored["points"] and stored["rows"]


def test_gate_inverse_expectations():
    corrected = {"experiment": "inverse"}
    printed = {"experiment": "inverse", "expect_failure": True}
    small = [{"t": 0.5, "k_hi": 10, "residual": 1e-9, "bound": 1e-5,
              "status": "ok"}]
    large = [dict(small[0], residual=0.3, status="expected-failure")]
    point = {"t": 0.5, "k_lo": 0, "k_hi": 10}
    ok = {"status": "ok", "points": [dict(point, status="ok")]}
    expected = {"status": "ok",
                "points": [dict(point, status="expected-failure")]}
    ref = {"points": gate.window_points(ok), "rows": small}
    assert gate.check_run(corrected, 0, ok, small) == []
    assert gate.check_run(printed, 0, expected, large) == []
    assert gate.check_run(printed, 0, ok, large)          # status mismatch
    assert gate.check_run(printed, 0, expected, small)    # residual too small
    # residuals sit at rounding level: compared to within bound / 100
    moved = [dict(small[0], residual=5e-8)]
    assert gate.compare_reference(ok, moved, ref) == []
    assert gate.compare_reference(ok, [dict(small[0], residual=2e-7)], ref)


def test_read_report_round_trip(tmp_path):
    path = tmp_path / "norms.csv"
    cli.write_report(NORM_ROWS, list(NORM_ROWS[0]), path, "csv")
    assert gate.read_report(path) == NORM_ROWS
