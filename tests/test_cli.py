import json

import pytest

from qdbar import cli
from qdbar.cli import (
    EXIT_INTERNAL, EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, EXIT_PROPERTY,
    EXIT_SYNTAX, emit_config, main, parse_config, run_experiment,
)
from qdbar.errors import ConfigInvalidError, ConfigSyntaxError

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
        {"experiment": "continuity", "continuity": {"t_lo": "a"}},
        {"experiment": "continuity", "continuity": [1]},
        {"experiment": "continuity", "continuity": {"t_lo": 0.5, "t_hi": 0.2}},
        {"experiment": "continuity", "continuity": {"steps": 1}},
    ], ids=["k_cap-str", "k_cap-zero", "k_cap-negative", "k_cap-float",
            "k_cap-bool", "tail_tol-str", "coeff-nan", "coeff-inf", "N-over-cap",
            "output-str", "output-directory-int", "truncation-str", "values-str",
            "count-str", "head-str", "ratio-null", "count-zero", "count-float",
            "count-bool", "alpha-inf", "alpha-str", "alpha-bool",
            "arctan-w_minus-equals-w_plus", "rational-w_minus-equals-w_plus",
            "alpha-overflows", "weights_check-str", "window-str",
            "tail_index-str", "window-wider-than-k_cap", "disk-window-not-at-0",
            "window-beyond-2^53",
            "schur-str", "max_n-17", "iters-zero", "kinds-T3", "t_lo-str",
            "continuity-list", "t_lo-above-t_hi", "steps-one"])
    def test_rejects_invalid_values(self, tmp_path, extra):
        text = minimal_config(**extra)
        with pytest.raises(ConfigInvalidError):
            parse_config(text)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(text)
        experiment = json.loads(text)["experiment"]
        assert main([experiment, "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_INVALID

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

    def test_numerical_failure_manifest(self, tmp_path):
        cfg = parse_config(minimal_config(
            t_grid=[0.001], truncation={"tail_tol": 1e-6, "k_cap": 1000}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"].startswith("numerical-failure")

    @pytest.mark.parametrize("experiment", ["inverse", "schur"])
    def test_window_failure_names_t(self, tmp_path, experiment):
        # these drivers solve their windows directly, not through limits
        cfg = parse_config(minimal_config(
            experiment=experiment, t_grid=[0.001],
            truncation={"tail_tol": 1e-6, "k_cap": 1000}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "manifest.json").read_text())
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
        monkeypatch.setitem(cli._DRIVERS, "norms", broken)
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

    def test_continuity(self, tmp_path):
        cfg = parse_config(json.dumps({
            "family": {"kind": "unilateral_example"}, "element": ZBAR,
            "experiment": "continuity",
            "continuity": {"t_lo": 0.2, "t_hi": 0.6, "steps": 5},
            "truncation": {"tail_tol": 1e-4}}))
        art = run_experiment(cfg, out_dir=tmp_path)
        assert art.exit_code == EXIT_OK
        assert len(art.rows) == 5


class TestMain:
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
