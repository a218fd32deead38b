import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from fixtures import count_weight_evaluations, nan_diagonal_element, run_configs
from qdbar import cli, limits
from qdbar.cli import (
    EXIT_INTERNAL, EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, EXIT_PROPERTY,
    EXIT_SYNTAX, emit_config, main, parse_config, run_experiment,
)
from qdbar.errors import ConfigInvalidError, ConfigSyntaxError
from qdbar.weights import condition_report

ZBAR = [{"side": "g", "n": 1, "kind": "sqrt_poly", "coeffs": [1.0]}]
F1 = [{"side": "f", "n": 1, "kind": "poly", "coeffs": [1.0]}]


def minimal_config(**extra):
    cfg = {"family": {"kind": "unilateral_example"}, "element": ZBAR,
           "experiment": "norms"}
    cfg.update(extra)
    return json.dumps(cfg)


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(minimal_config())
        assert cfg.tail_tol == 1e-5
        assert cfg.k_cap == 20_000_000
        assert cfg.data["qt_kernel"] == "corrected"
        grid = cfg.t_grid()
        assert len(grid) == 8 and grid[0] == 0.2

    def test_invalid_family(self):
        with pytest.raises(ConfigInvalidError, match="alpha > beta"):
            parse_config(json.dumps({
                "family": {"kind": "bilateral_rational", "alpha": 1, "beta": 1.5},
                "element": ZBAR, "experiment": "norms"}))

    def test_explicit_grid_sorted(self):
        cfg = parse_config(minimal_config(t_grid=[0.1, 0.5, 0.01]))
        assert cfg.t_grid() == [0.5, 0.1, 0.01]

    def test_syntax_error(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("{not json")

    def test_experiment_mismatch(self):
        with pytest.raises(ConfigInvalidError, match="does not match"):
            parse_config(minimal_config(), experiment="schur")

    def test_round_trip(self):
        cfg = parse_config(minimal_config(t_grid=[0.5, 0.1]))
        assert parse_config(emit_config(cfg)) == cfg

    def test_unknown_experiment(self):
        with pytest.raises(ConfigInvalidError):
            parse_config(minimal_config(experiment="frobnicate"))

    @pytest.mark.parametrize("extra", [
        {"truncation": {"k_cap": "abc"}},
        {"truncation": {"k_cap": 0}},
        {"truncation": {"k_cap": -5}},
        {"truncation": {"k_cap": 1.5e7}},
        {"truncation": {"k_cap": True}},
        {"truncation": {"tail_tol": "abc"}},
        {"element": [{"side": "g", "n": 1, "kind": "poly", "coeffs": [float("nan")]}]},
        {"element": [{"side": "f", "n": 2, "kind": "poly", "coeffs": [1.0, float("inf")]}]},
        {"element": [{"side": "f", "n": 17, "kind": "poly", "coeffs": [1.0]}]},
        {"output": "x"},
        {"output": {"directory": 5}},
        {"truncation": "x"},
        {"t_grid": {"kind": "explicit", "values": ["a"]}},
        {"t_grid": {"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": "3"}},
        {"t_grid": {"kind": "geometric", "head": "0.2", "ratio": 0.5, "count": 3}},
        {"t_grid": {"kind": "geometric", "head": 0.2, "ratio": None, "count": 3}},
        {"t_grid": {"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": 0}},
        {"t_grid": {"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": 2.0}},
        {"t_grid": {"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": True}},
        {"family": {"kind": "bilateral_arctan", "alpha": float("inf"), "beta": 1.0}},
        {"family": {"kind": "bilateral_rational", "alpha": "2", "beta": 0.5}},
        {"family": {"kind": "bilateral_rational", "alpha": True, "beta": 0.5}},
        {"family": {"kind": "bilateral_arctan", "alpha": 1e20, "beta": 1.0}},
        {"family": {"kind": "bilateral_rational", "alpha": 1e308, "beta": 1e-300}},
        {"family": {"kind": "bilateral_rational", "alpha": 10**400, "beta": 0.5}},
        {"experiment": "check-weights", "weights_check": "x"},
        {"experiment": "check-weights", "weights_check": {"window": "ab"}},
        {"experiment": "check-weights", "weights_check": {"tail_index": "x"}},
        {"experiment": "check-weights", "truncation": {"k_cap": 1000},
         "weights_check": {"window": [0, 1000]}},
        {"experiment": "check-weights", "weights_check": {"window": [5, 100]}},
        {"experiment": "check-weights", "weights_check": {"window": [2**70, 2**70 + 4],
                                                          "tail_index": 2**70 + 2},
         "family": {"kind": "bilateral_rational", "alpha": 1.0, "beta": 0.5}},
        {"experiment": "schur", "schur": "x"},
        {"experiment": "schur", "schur": {"max_n": 17}},
        {"experiment": "schur", "schur": {"iters": 0}},
        {"experiment": "schur", "schur": {"kinds": ["T3"]}},
        {"experiment": "schur", "schur": {"kinds": []}},
        {"experiment": "schur", "schur": {"kinds": ["T2"], "max_n": 0}},
        {"experiment": "schur", "schur": {"kinds": ["T1", "T2", "T1"]}},
        {"experiment": "continuity", "continuity": {"t_lo": "a"}},
        {"experiment": "continuity", "continuity": [1]},
        {"experiment": "continuity", "continuity": {"t_lo": 0.5, "t_hi": 0.2}},
        {"experiment": "continuity", "continuity": {"steps": 1}},
        {"truncation": {"tail_tol": 10**400}},
        {"t_grid": [0.5, 10**400]},
        {"t_grid": {"kind": "geometric", "head": 10**400, "ratio": 0.5, "count": 3}},
        {"t_grid": {"kind": "geometric", "head": 0.2, "ratio": 10**400, "count": 3}},
        {"experiment": "inverse", "element": [{"side": "f", "n": 1, "fn": 5}]},
        {"experiment": "uniform-bound", "elements": [[{"side": "f", "n": 1, "fn": 5}]]},
        {"element": [{"side": "diag", "kind": "half_power", "coeffs": [1.0],
                      "min_power": 1e20}]},
        {"element": [{"side": "diag", "kind": "half_power", "coeffs": [1.0],
                      "min_power": -1e20}]},
        {"element": [{"side": "diag", "kind": "half_power", "coeffs": [1.0],
                      "min_power": 10**20}]},
        {"element": [{"side": "diag", "kind": "half_power", "coeffs": [1.0],
                      "min_power": 1.5}]},
        {"element": [{"side": "diag", "kind": "half_power", "coeffs": [1.0],
                      "min_power": "3"}]},
        {"element": [{"side": "g", "n": 1.7, "kind": "poly", "coeffs": [1.0]}]},
        {"element": [{"side": "g", "n": True, "kind": "poly", "coeffs": [1.0]}]},
        {"experiment": "inverse", "expect_failure": "false"},
        {"experiment": "inverse", "expect_failure": 0},
        {"t_grid": [0.5, 0.2, 0.5]},
        {"t_grid": {"kind": "geometric", "head": 0.5, "ratio": 1e-200, "count": 3}},
        {"t_grid": {"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": 10**9}},
        {"t_grid": [0.9 - i * 1e-5 for i in range(10_001)]},
        {"experiment": "continuity", "continuity": {"steps": 10**9}},
        {"experiment": "schur", "schur": {"iters": 2**53}},
    ], ids=["k_cap-str", "k_cap-zero", "k_cap-negative", "k_cap-float",
            "k_cap-bool", "tail_tol-str", "coeff-nan", "coeff-inf", "N-over-cap",
            "output-str", "output-directory-int", "truncation-str", "values-str",
            "count-str", "head-str", "ratio-null", "count-zero", "count-float",
            "count-bool", "alpha-inf", "alpha-str", "alpha-bool",
            "arctan-w_minus-equals-w_plus", "rational-w_minus-equals-w_plus",
            "alpha-overflows", "weights_check-str", "window-str",
            "tail_index-str", "window-wider-than-k_cap", "disk-window-not-at-0",
            "window-beyond-2^53",
            "schur-str", "max_n-17", "iters-zero", "kinds-T3", "kinds-empty",
            "T2-only-max_n-zero", "kinds-repeated", "t_lo-str",
            "continuity-list", "t_lo-above-t_hi", "steps-one",
            "tail_tol-overflows", "t_grid-value-overflows", "head-overflows",
            "ratio-overflows", "fn-int-inverse", "fn-int-uniform-bound",
            "min_power-1e20", "min_power-minus-1e20", "min_power-int-1e20",
            "min_power-float", "min_power-str", "n-float", "n-bool",
            "expect_failure-str", "expect_failure-int", "t_grid-repeats",
            "geometric-underflows", "count-huge", "values-over-10000", "steps-huge",
            "iters-huge"])
    def test_rejects_invalid_values(self, tmp_path, extra):
        text = minimal_config(**extra)
        with pytest.raises(ConfigInvalidError):
            parse_config(text)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(text)
        experiment = json.loads(text)["experiment"]
        assert main([experiment, "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_INVALID

    @pytest.mark.parametrize("experiment", ["norms", "parametrix", "inverse", "continuity"])
    def test_elements_only_config_is_invalid(self, tmp_path, experiment):
        # these drivers read `element`; a config with only `elements` must not
        # parse and then fail in the run
        text = json.dumps({"experiment": experiment,
                           "family": {"kind": "unilateral_example"},
                           "elements": [ZBAR], "t_grid": [0.5],
                           "truncation": {"tail_tol": 1e-3}})
        with pytest.raises(ConfigInvalidError, match="needs an 'element'"):
            parse_config(text)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(text)
        assert main([experiment, "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_INVALID

    @pytest.mark.parametrize("extra, field", [
        ({"family": None}, "family must be an object"),
        ({"element": [{"n": 1, "kind": "poly", "coeffs": [1.0]}]}, r"element\[0\]\.side"),
        ({"element": 5}, "element must be a nonempty list"),
        ({"experiment": "uniform-bound", "elements": [ZBAR, [5]]}, r"elements\[1\]\[0\]"),
    ], ids=["family-null", "band-without-side", "element-number", "elements-entry-number"])
    def test_invalid_structure_names_the_field(self, tmp_path, capsys, extra, field):
        text = minimal_config(**extra)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(text)
        assert main([json.loads(text)["experiment"], "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_INVALID
        assert re.search(field, capsys.readouterr().err)

    @pytest.mark.parametrize("experiment, unread", [
        ("continuity", {"t_grid": [0.5, 0.2, 0.5]}),
        ("continuity", {"t_grid": "x", "qt_kernel": "x"}),
        ("check-weights", {"qt_kernel": "x"}),
    ], ids=["continuity-t_grid-repeats", "continuity-t_grid-and-kernel-str",
            "check-weights-kernel-str"])
    def test_keys_the_driver_does_not_read_are_not_checked(self, tmp_path, experiment, unread):
        # the run ends as it does without the key, in its own exit code
        base = {"experiment": experiment, "family": {"kind": "unilateral_example"},
                "element": ZBAR, "t_grid": [0.5], "truncation": {"tail_tol": 1e-3},
                "continuity": {"t_lo": 0.3, "t_hi": 0.6, "steps": 2},
                "weights_check": {"window": [0, 200], "tail_index": 50}}
        codes = []
        for cfg in (base, {**base, **unread}):
            cfgfile = tmp_path / "run.json"
            cfgfile.write_text(json.dumps(cfg))
            codes.append(main([experiment, "--config", str(cfgfile),
                               "--out", str(tmp_path / "o")]))
        assert codes[0] == codes[1] != EXIT_INVALID

    def test_expect_failure_string_is_invalid(self, tmp_path):
        # "false" is a truthy string: read as a flag it would turn the printed
        # f_1 violation (residual 0.301, bound 0.0129) into an expected failure
        base = {"family": {"kind": "unilateral_example"}, "element": F1,
                "experiment": "inverse", "qt_kernel": "printed",
                "t_grid": [0.5], "truncation": {"tail_tol": 1e-3}}
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({**base, "expect_failure": "false"}))
        assert main(["inverse", "--config", str(cfgfile),
                     "--out", str(tmp_path / "a")]) == EXIT_INVALID
        cfgfile.write_text(json.dumps({**base, "expect_failure": False}))
        assert main(["inverse", "--config", str(cfgfile),
                     "--out", str(tmp_path / "b")]) == EXIT_PROPERTY

    def test_kernel_bounds_sections_stay_valid(self):
        cfg = parse_config(json.dumps({
            "family": {"kind": "bilateral_rational", "alpha": 1.0, "beta": 0.5},
            "experiment": "check-weights",
            "weights_check": {"window": [-50_000, 50_000], "tail_index": 25_000}}))
        assert cli._weights_check_settings(cfg) == (-50_000, 50_000, 25_000)
        cfg = parse_config(minimal_config(experiment="schur",
                                          schur={"max_n": 8, "iters": 600}))
        assert cli._schur_settings(cfg) == (8, 600, ["T1", "T2"])

    def test_section_defaults(self):
        disk = parse_config(minimal_config(experiment="check-weights"))
        assert cli._weights_check_settings(disk) == (0, 10_000, 5000)
        annulus = parse_config(minimal_config(
            experiment="check-weights",
            family={"kind": "bilateral_rational", "alpha": 1.0, "beta": 0.5}))
        assert cli._weights_check_settings(annulus) == (-10_000, 10_000, 5000)
        assert cli._continuity_settings(
            parse_config(minimal_config(experiment="continuity"))) == (0.05, 0.9, 100)


class TestRunExperiment:
    def test_norms_report(self, tmp_path):
        cfg = parse_config(minimal_config(
            t_grid={"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": 4},
            truncation={"tail_tol": 1e-4}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_OK
        lines = art.report_path.read_text().splitlines()
        assert lines[0] == "t,k_hi,quantum_norm,classical_norm,abs_error,tail_bound"
        assert len(lines) == 5
        errs = [float(line.split(",")[4]) for line in lines[1:]]
        assert errs == sorted(errs, reverse=True)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert len(manifest["points"]) == 4
        assert manifest["points"][0]["k_hi"] == 49994

    def test_manifest_windows_match_truncation(self, tmp_path):
        from qdbar.elements import truncation_window
        from qdbar.weights import make_family
        cfg = parse_config(minimal_config(
            t_grid=[0.4, 0.2], truncation={"tail_tol": 1e-4}))
        run_experiment(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        fam = make_family("unilateral_example")
        for point in manifest["points"]:
            win = truncation_window(fam, point["t"], 1e-4)
            assert point["k_hi"] == win.k_hi and point["k_lo"] == win.k_lo

    def test_determinism(self, tmp_path):
        raw = minimal_config(
            t_grid={"kind": "geometric", "head": 0.2, "ratio": 0.5, "count": 3},
            truncation={"tail_tol": 1e-4})
        a = run_experiment(parse_config(raw), out_dir=tmp_path / "a")
        b = run_experiment(parse_config(raw), out_dir=tmp_path / "b")
        assert a.report_path.read_bytes() == b.report_path.read_bytes()

    def test_json_mirror(self, tmp_path):
        cfg = parse_config(minimal_config(t_grid=[0.3], truncation={"tail_tol": 1e-3}))
        art = run_experiment(cfg, out_dir=tmp_path, fmt="json")
        rows = json.loads(art.report_path.read_text())
        assert list(rows[0]) == ["t", "k_hi", "quantum_norm", "classical_norm",
                                 "abs_error", "tail_bound"]

    def test_check_weights_ok(self, tmp_path):
        cfg = parse_config(json.dumps({
            "family": {"kind": "unilateral_example"},
            "experiment": "check-weights",
            "t_grid": [0.5, 0.25, 0.1, 0.01],
            "weights_check": {"window": [0, 2000], "tail_index": 1000}}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_OK
        for row in art.rows:
            assert row["h1_closed_delta"] <= 1e-12
            assert row["h2_closed_delta"] <= 1e-12
            assert row["h3_closed_delta_max"] <= 1e-12

    def test_check_weights_window_without_lower_tail(self, tmp_path):
        # no index k <= -tail_index lies in [-3, 200]: the lower limit
        # deviation is NaN, and the run still gives its report
        raw = json.dumps({
            "family": {"kind": "bilateral_rational", "alpha": 1, "beta": 0.5},
            "experiment": "check-weights",
            "weights_check": {"window": [-3, 200], "tail_index": 50}})
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(raw)
        assert main(["check-weights", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert (tmp_path / "o" / "check-weights.csv").exists()
        cfg = parse_config(raw)
        rep = condition_report(cfg.family(), cfg.t_grid(), (-3, 200), 50)
        assert all(math.isnan(d) for d in rep.limit_deviation_lo)

    def test_inverse_nan_band_is_a_violation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.RunConfig, "element", lambda self: nan_diagonal_element())
        art = run_experiment(parse_config(json.dumps({
            "family": {"kind": "unilateral_example"}, "element": F1,
            "experiment": "inverse", "t_grid": [0.5],
            "truncation": {"tail_tol": 1e-3}})), out_dir=tmp_path)
        assert art.exit_code == EXIT_PROPERTY
        assert math.isnan(art.rows[0]["residual"])
        assert art.rows[0]["status"] == "violation"

    def test_inverse_printed_expected_failure_flag(self, tmp_path):
        base = {"family": {"kind": "unilateral_example"}, "element": F1,
                "experiment": "inverse", "qt_kernel": "printed",
                "t_grid": [0.5], "truncation": {"tail_tol": 1e-4}}
        art = run_experiment(parse_config(json.dumps(
            {**base, "expect_failure": True})), out_dir=tmp_path / "flagged")
        assert art.exit_code == EXIT_OK
        assert art.rows[0]["status"] == "expected-failure"
        art2 = run_experiment(parse_config(json.dumps(base)),
                              out_dir=tmp_path / "unflagged")
        assert art2.exit_code == EXIT_PROPERTY
        assert art2.rows[0]["status"] == "violation"

    def test_inverse_solves_each_window_once(self, tmp_path, monkeypatch):
        # the window solved for the bound and the manifest is the one the
        # residual runs on
        solved, solve = [], cli.truncation_window

        def counted(family, t, *args, **kwargs):
            solved.append(t)
            return solve(family, t, *args, **kwargs)
        for module in (cli, limits):
            monkeypatch.setattr(module, "truncation_window", counted)
        art = run_experiment(parse_config(json.dumps({
            "family": {"kind": "unilateral_example"}, "element": ZBAR,
            "experiment": "inverse", "t_grid": [0.5, 0.25],
            "truncation": {"tail_tol": 1e-4}})), out_dir=tmp_path)
        assert art.exit_code == EXIT_OK
        assert solved == [0.5, 0.25]

    def test_numerical_failure_manifest(self, tmp_path):
        cfg = parse_config(minimal_config(
            t_grid=[0.001], truncation={"tail_tol": 1e-6, "k_cap": 1000}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"].startswith("numerical-failure")

    @pytest.mark.parametrize("experiment", ["inverse", "schur"])
    def test_window_failure_names_t(self, tmp_path, experiment):
        # these drivers solve their windows directly, not through limits;
        # the window is beyond k_cap at tail 1e-6 and beyond 2^53 at 1e-300
        for tail in (1e-6, 1e-300):
            cfg = parse_config(minimal_config(
                experiment=experiment, t_grid=[0.001],
                truncation={"tail_tol": tail, "k_cap": 1000}))
            art = run_experiment(cfg, out_dir=tmp_path / str(tail))
            assert art.exit_code == EXIT_NUMERICAL
            manifest = json.loads(art.manifest_path.read_text())
            assert manifest["status"].startswith("numerical-failure")
            assert "t=0.001" in manifest["status"]

    def test_divergent_classical_norm_manifest(self, tmp_path):
        # c = s^(-1/2): int_0 c^2 ds = int_0 ds / s diverges on the disk
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(minimal_config(
            t_grid=[0.4, 0.2], truncation={"tail_tol": 1e-4},
            element=[{"side": "diag", "n": 0, "kind": "half_power",
                      "coeffs": [1.0], "min_power": -1}]))
        assert main(["norms", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["status"].startswith("numerical-failure")
        assert "diverges" in manifest["status"]

    def test_divergent_transform_manifest(self, tmp_path):
        # the classical parametrix integrates u^(-3/2) from w_-^2 = 0
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(minimal_config(
            experiment="parametrix", t_grid=[0.4, 0.2],
            truncation={"tail_tol": 1e-4},
            element=[{"side": "diag", "n": 0, "kind": "half_power",
                      "coeffs": [1.0], "min_power": -3}]))
        assert main(["parametrix", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["status"].startswith("numerical-failure")
        assert "diverges" in manifest["status"]

    def test_internal_error_manifest(self, tmp_path, monkeypatch):
        def broken(config, points):
            raise TypeError("unsupported operand")
        monkeypatch.setitem(cli._TABLE, "norms", replace(cli._TABLE["norms"], driver=broken))
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(minimal_config(t_grid=[0.3]))
        assert main(["norms", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == EXIT_INTERNAL
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "internal-error: TypeError: unsupported operand"
        assert "TypeError" in manifest["traceback"]
        assert manifest["report"] is None

    def test_uniform_bound(self, tmp_path):
        cfg = parse_config(json.dumps({
            "family": {"kind": "unilateral_example"},
            "element": ZBAR,
            "elements": [ZBAR, [{"side": "diag", "n": 0, "kind": "poly",
                                 "coeffs": [1.0]}]],
            "experiment": "uniform-bound",
            "t_grid": [0.5, 0.1],
            "truncation": {"tail_tol": 1e-4}}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_OK
        assert all(row["within_cap"] for row in art.rows)

    @pytest.mark.parametrize("band, t, tail_tol", [
        ({"side": "f", "n": 1, "kind": "poly", "coeffs": [0.0]}, 0.5, 1e-3),
        # window [0, 2]: the band lies wholly outside it
        ({"side": "f", "n": 5, "kind": "poly", "coeffs": [1.0]}, 0.9, 0.3)])
    def test_uniform_bound_skips_zero_element(self, tmp_path, band, t, tail_tol):
        cfg = parse_config(json.dumps({
            "family": {"kind": "unilateral_example"},
            "elements": [[band]],
            "experiment": "uniform-bound",
            "t_grid": [t],
            "truncation": {"tail_tol": tail_tol}}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_OK
        assert [row["max_ratio"] for row in art.rows] == [0.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the intended overflow
    def test_uniform_bound_overflow_is_a_property_failure(self, tmp_path):
        # |x|^2 and |Q_t x|^2 overflow to inf, so the ratio is inf/inf = NaN
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "family": {"kind": "unilateral_example"}, "experiment": "uniform-bound",
            "elements": [[{"side": "f", "n": 1, "kind": "poly", "coeffs": [1e200]}]],
            "t_grid": [0.5, 0.2], "truncation": {"tail_tol": 1e-3}}))
        out = tmp_path / "o"
        assert main(["uniform-bound", "--config", str(cfgfile),
                     "--out", str(out)]) == EXIT_PROPERTY
        rows = (out / "uniform-bound.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1::2] for row in rows] == [["nan", "false"]] * 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "property-failure"

    @pytest.mark.parametrize("experiment, extra", [
        ("parametrix", {"element": [{"side": "g", "n": 2, "kind": "poly",
                                     "coeffs": [0.0, 1.0]},
                                    {"side": "f", "n": 1, "kind": "sqrt_poly",
                                     "coeffs": [1.0, 0.5]}],
                        "qt_kernel": "printed"}),
        ("uniform-bound", {"elements": [ZBAR, F1, [{"side": "g", "n": 3, "kind": "poly",
                                                    "coeffs": [1.0, 1.0]}]]})])
    def test_streamed_reports_byte_identical(self, tmp_path, experiment, extra):
        # the streamed Q_t norms sum in a fixed block order; windows here span
        # several blocks
        raw = json.dumps({"family": {"kind": "unilateral_example"},
                          "experiment": experiment, "t_grid": [0.3, 0.05, 0.01],
                          "truncation": {"tail_tol": 1e-4}, **extra})
        a = run_experiment(parse_config(raw), out_dir=tmp_path / "a")
        b = run_experiment(parse_config(raw), out_dir=tmp_path / "b")
        assert a.exit_code == b.exit_code == EXIT_OK
        assert a.report_path.read_bytes() == b.report_path.read_bytes()

    def test_schur_small(self, tmp_path):
        cfg = parse_config(json.dumps({
            "family": {"kind": "unilateral_example"},
            "element": ZBAR,
            "experiment": "schur",
            "t_grid": [0.5],
            "truncation": {"tail_tol": 1e-3},
            "schur": {"max_n": 2, "iters": 400}}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_OK
        assert all(row["ok"] for row in art.rows)

    def test_schur_evaluates_weights_once_per_t(self, tmp_path, monkeypatch):
        # every kernel (kind, n) of one t shares one evaluation over the window
        calls = count_weight_evaluations(monkeypatch)
        art = run_experiment(parse_config(json.dumps({
            "family": {"kind": "bilateral_rational", "alpha": 1.0, "beta": 0.5},
            "experiment": "schur", "t_grid": [0.5, 0.1],
            "truncation": {"tail_tol": 1e-3},
            "schur": {"max_n": 3, "iters": 300}})), out_dir=tmp_path)
        assert art.exit_code == EXIT_OK and len(art.rows) == 2 * 7
        assert calls == {(name, t): 1 for name in ("weight_sq", "s") for t in (0.5, 0.1)}

    def test_continuity(self, tmp_path):
        cfg = parse_config(json.dumps({
            "family": {"kind": "unilateral_example"}, "element": ZBAR,
            "experiment": "continuity",
            "continuity": {"t_lo": 0.2, "t_hi": 0.6, "steps": 5},
            "truncation": {"tail_tol": 1e-4}}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_OK
        assert len(art.rows) == 5


# the section or elements that make each experiment's run small
SMALL_RUNS = {
    "check-weights": {"weights_check": {"window": [0, 200], "tail_index": 100}},
    "norms": {}, "parametrix": {}, "inverse": {},
    "schur": {"schur": {"max_n": 1, "iters": 50}},
    "continuity": {"continuity": {"t_lo": 0.4, "t_hi": 0.6, "steps": 2}},
    "uniform-bound": {"elements": [ZBAR, F1]},
}


class TestMain:
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_report_columns_match_the_table(self, tmp_path, capsys, experiment):
        columns = cli._TABLE[experiment].columns
        text = minimal_config(experiment=experiment, t_grid=[0.5],
                              truncation={"tail_tol": 1e-3}, **SMALL_RUNS[experiment])
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(text)
        assert main([experiment, "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        header = (tmp_path / "o" / f"{experiment}.csv").read_text().splitlines()[0]
        assert header == ",".join(columns)
        art = run_experiment(parse_config(text), out_dir=tmp_path / "j", fmt="json")
        assert art.rows and all(list(row) == list(columns) for row in art.rows)
        assert all(list(row) == list(columns)
                   for row in json.loads(art.report_path.read_text()))
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert re.search(re.escape(f"{experiment} -> {', '.join(columns)}") + "[;.]",
                         help_text)

    def test_cli_exit_codes(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(minimal_config(
            t_grid=[0.3], truncation={"tail_tol": 1e-3}))
        rc = main(["norms", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert (tmp_path / "o" / "norms.csv").exists()

    def test_cli_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["norms", "--config", str(bad)]) == EXIT_SYNTAX

    def test_cli_invalid_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "family": {"kind": "bilateral_rational", "alpha": 1.0, "beta": 2.0},
            "element": ZBAR}))
        assert main(["norms", "--config", str(bad)]) == EXIT_INVALID

    def test_cli_missing_config(self, tmp_path):
        assert main(["norms", "--config", str(tmp_path / "nope.json")]) == EXIT_SYNTAX

    def test_cli_out_naming_a_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(minimal_config(t_grid=[0.3], truncation={"tail_tol": 1e-3}))
        assert main(["norms", "--config", str(cfgfile), "--out", str(cfgfile)]) == EXIT_SYNTAX
        err = capsys.readouterr().err
        assert err.startswith("qdbar: cannot write") and err.count("\n") == 1

    def test_schur_report_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the benchmark's kernel-bounds schur config; the power iteration's
        # dot products must not follow BLAS's thread count, which is fixed
        # when numpy loads, so each count runs in a process of its own
        cfgfile = tmp_path / "schur.json"
        cfgfile.write_text(json.dumps({
            "experiment": "schur",
            "family": {"kind": "bilateral_rational", "alpha": 1.0, "beta": 0.5},
            "t_grid": [0.5, 0.1, 0.01], "truncation": {"tail_tol": 1e-3},
            "qt_kernel": "corrected", "schur": {"max_n": 8, "iters": 600}}))
        src = str(Path(cli.__file__).resolve().parent.parent)
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "qdbar.cli", "schur", "--config", str(cfgfile),
                            "--out", str(out)], env=env, check=True, capture_output=True,
                           timeout=120)
            reports.append((out / "schur.csv").read_bytes())
        assert reports[0] == reports[1]


def _fuzz_example(experiment, **config):
    return example(fuzz=(experiment, json.dumps({"experiment": experiment, **config})))


UNILATERAL = {"kind": "unilateral_example"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # overflow in drawn coefficients
@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzz=run_configs())
# the configs that once ended in exit 70 or in a wrong verdict
@_fuzz_example("norms", family=UNILATERAL, elements=[ZBAR], t_grid=[0.5],
               truncation={"tail_tol": 1e-3})
@_fuzz_example("inverse", family=UNILATERAL, t_grid=[0.5], truncation={"tail_tol": 1e-3},
               element=[{"side": "f", "n": 1, "fn": 5}])
@_fuzz_example("uniform-bound", family=UNILATERAL, t_grid=[0.5],
               truncation={"tail_tol": 1e-3}, elements=[[{"side": "f", "n": 1, "fn": 5}]])
@_fuzz_example("norms", family=UNILATERAL, t_grid=[0.5], truncation={"tail_tol": 1e-3},
               element=[{"side": "diag", "kind": "half_power", "coeffs": [1.0],
                         "min_power": 1e20}])
@_fuzz_example("parametrix", family=UNILATERAL, t_grid=[0.5],
               truncation={"tail_tol": 1e-3},
               element=[{"side": "diag", "kind": "half_power", "coeffs": [1.0],
                         "min_power": -10**20}])
@_fuzz_example("inverse", family=UNILATERAL, element=F1, qt_kernel="printed",
               t_grid=[0.5], truncation={"tail_tol": 1e-3}, expect_failure="false")
@_fuzz_example("check-weights", family={"kind": "bilateral_rational", "alpha": 1, "beta": 0.5},
               weights_check={"window": [-3, 200], "tail_index": 50})
# the configs that once ended in exit 65 on a key their driver does not read
@_fuzz_example("continuity", family=UNILATERAL, element=ZBAR, t_grid=[0.5, 0.2, 0.5],
               truncation={"tail_tol": 1e-3}, continuity={"t_lo": 0.3, "t_hi": 0.6,
                                                           "steps": 2})
def test_every_config_ends_in_a_documented_outcome(fuzz):
    experiment, text = fuzz
    try:
        parse_config(text, experiment=experiment)
        parses = True
    except (ConfigSyntaxError, ConfigInvalidError):
        parses = False
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile, out = Path(tmp) / "run.json", Path(tmp) / "out"
        cfgfile.write_text(text)
        code = main([experiment, "--config", str(cfgfile), "--out", str(out)])
        assert code in (EXIT_OK, 2, EXIT_NUMERICAL, EXIT_PROPERTY, EXIT_SYNTAX, EXIT_INVALID)
        if parses:
            status = json.loads((out / "manifest.json").read_text())["status"]
            assert (status == "ok") == (code == EXIT_OK), status
            # a config that parses runs: only a platform without an extended
            # np.longdouble ends one in 65
            assert code != EXIT_INVALID or "longdouble" in status, status
        else:
            assert code in (EXIT_SYNTAX, EXIT_INVALID) and not out.exists()
