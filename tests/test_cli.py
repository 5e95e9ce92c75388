"""Config validation, round-trips, CSV tables, exit codes, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pnk import ConfigError, continue_branch, parse_config
from pnk.cli import main, run_config
from pnk.config import build_run, eps_grid_values, load_config
from pnk.flow import MIN_TOL
from pnk.report import emit_branch_table, strip_volatile

CONFIG_DIR = Path(__file__).resolve().parent.parent / "run_configs"


def _hopf_config(analysis="monodromy", options=None, output=None):
    return {
        "system": {"name": "hopf", "params": {"omega": 1.0, "eps0": 0.1}},
        "torus": {"kind": "catalog"},
        "analysis": analysis,
        "options": options if options is not None else {"alpha": [1]},
        "output": output or {},
    }


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestParseConfig:
    def test_roundtrip_is_identity(self):
        cfg = parse_config(_hopf_config())
        again = parse_config(cfg.normalized)
        assert again.normalized == cfg.normalized

    def test_unknown_keys_rejected(self):
        doc = _hopf_config()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc)
        doc = _hopf_config()
        doc["options"]["typo"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc)
        # continuation runs have no thread switch
        doc = _hopf_config(analysis="continue", options={
            "alpha": [1], "parallel": True,
            "eps_grid": {"start": [0.1], "stop": [0.2], "num": 3}})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc)
        # no floquet pipeline reads a resonance tolerance
        doc = _hopf_config(analysis="floquet", options={
            "alpha": [1], "resonance_tol": 1e-8})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc)
        # the return solve has no trust radius
        for analysis in ("continue", "bifurcate"):
            doc = _hopf_config(analysis=analysis, options={
                "alpha": [1], "trust_radius": 0.5,
                "eps_grid": {"start": [0.1], "stop": [0.2], "num": 3}})
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(doc)

    @pytest.mark.parametrize("name", ["hopf", "uncoupled_oscillators",
                                      "pitchfork", "flip", "neimark"])
    def test_catalog_system_built_from_table_defaults(self, name):
        cfg = parse_config({"system": {"name": name}, "analysis": "verify"})
        setup = build_run(cfg)
        assert setup.catalog.params == cfg.system_params

    def test_zero_alpha_rejected(self):
        with pytest.raises(ConfigError, match="zero"):
            parse_config(_hopf_config(options={"alpha": [0]}))

    def test_alpha_length_checked_at_build(self):
        cfg = parse_config(_hopf_config(options={"alpha": [1, 1]}))
        with pytest.raises(ConfigError, match="winding"):
            build_run(cfg)

    def test_unknown_system_rejected(self):
        doc = _hopf_config()
        doc["system"]["name"] = "wat"
        with pytest.raises(ConfigError, match="unknown system"):
            parse_config(doc)

    def test_grid_expansion(self):
        cfg = parse_config(_hopf_config(
            analysis="continue",
            options={"alpha": [1],
                     "eps_grid": {"start": [0.1], "stop": [0.2], "num": 3}}))
        vals = eps_grid_values(cfg.options)
        np.testing.assert_allclose(np.array(vals).ravel(), [0.1, 0.15, 0.2])

    def test_polynomial_system_evaluates(self):
        # planar Hopf normal form written as polynomials, eps-coupled
        doc = {
            "system": {"name": "polynomial", "params": {
                "n": 2, "k": 1, "p": 1,
                "fields": [[
                    [[1.0, [1, 0], [1]], [-1.0, [0, 1], [0]],
                     [-1.0, [3, 0], [0]], [-1.0, [1, 2], [0]]],
                    [[1.0, [1, 0], [0]], [1.0, [0, 1], [1]],
                     [-1.0, [2, 1], [0]], [-1.0, [0, 3], [0]]],
                ]],
            }},
            "torus": {"kind": "circle", "center": [0.0, 0.0],
                      "radius": math.sqrt(0.1), "plane": [0, 1],
                      "eps0": [0.1]},
            "analysis": "monodromy",
            "options": {"alpha": [1]},
        }
        setup = build_run(parse_config(doc))
        x = np.array([0.2, -0.1])
        eps = np.array([0.1])
        want = np.array([0.1 * 0.2 + 0.1 - 0.2 * (0.05),
                         0.2 - 0.01 - (-0.1) * 0.05])
        np.testing.assert_allclose(setup.family.eval(0, x, eps), want,
                                   atol=1e-14)
        jac = setup.family.jacobian(0, x, eps)
        from pnk import numdiff
        fd = numdiff.jacobian(lambda z: setup.family.eval(0, z, eps), x)
        np.testing.assert_allclose(jac, fd, atol=1e-9)

    def test_polynomial_requires_explicit_torus(self):
        doc = {
            "system": {"name": "polynomial", "params": {
                "n": 2, "k": 1, "p": 0, "fields": [[[], []]]}},
            "analysis": "verify",
            "options": {},
        }
        with pytest.raises(ConfigError, match="catalog"):
            parse_config(doc)


class TestBranchTable:
    def test_rows_and_header(self, tmp_path, straight_sys):
        path = [np.array([e]) for e in np.linspace(0.0, 0.05, 4)]
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], path)
        out = tmp_path / "branch.csv"
        emit_branch_table(branch, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("eps_0,u_0,u_1,abs_lambda_0,abs_lambda_1,"
                            "dist_from_one,newton_iters,residual")
        assert len(lines) == 5

    def test_empty_branch_rejected(self, straight_sys):
        from pnk.continuation import ContinuationBranch
        empty = ContinuationBranch([], "diverged", "nope", np.array([1, 0]),
                                   None)
        with pytest.raises(ValueError):
            emit_branch_table(empty, "/tmp/never.csv")

    def test_17_digit_roundtrip(self, tmp_path, straight_sys):
        path = [np.array([e]) for e in np.linspace(0.0, 0.03, 3)]
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], path)
        out = tmp_path / "branch.csv"
        emit_branch_table(branch, out)
        rows = out.read_text().strip().splitlines()[1:]
        for row, pt in zip(rows, branch.points):
            cells = row.split(",")
            assert float(cells[0]) == pt.eps[0]
            assert float(cells[1]) == pt.u[0]


class TestExitCodes:
    def test_success_and_report(self, tmp_path):
        path = _write(tmp_path, _hopf_config(output={"dir": str(tmp_path)}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        got = rep["results"]["transversal_moduli"][0]
        assert got == pytest.approx(math.exp(-0.4 * math.pi), rel=1e-8)

    def test_validation_error_is_2(self, tmp_path):
        path = _write(tmp_path, _hopf_config(options={"alpha": [0]}))
        assert main(["run", str(path)]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_numerical_failure_is_3(self, tmp_path):
        # circle of the wrong radius: the loop does not close -> OpenLoop
        doc = _hopf_config()
        doc["torus"] = {"kind": "circle", "center": [0.0, 0.0],
                        "radius": 0.5, "plane": [0, 1], "eps0": [0.1]}
        path = _write(tmp_path, doc)
        out = tmp_path / "o3"
        assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"]["type"] == "OpenLoop"

    def test_torus_collapsed_to_equilibrium_is_3(self, tmp_path):
        # at eps -7 the loop flow lands on the Hopf equilibrium, where the
        # fields vanish and the section pairing is singular
        doc = _hopf_config("torus", {"alpha": [1], "eps": [-7]})
        path = _write(tmp_path, doc)
        out = tmp_path / "o3"
        assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"]["type"] == "SingularGeometry"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_field_not_finite_at_base_is_3(self, tmp_path):
        # 1 / omega overflows, so the Hopf field is nan on the seed circle
        doc = _hopf_config("torus", {"alpha": [1], "eps": [0.15]})
        doc["system"]["params"]["omega"] = 5e-324
        path = _write(tmp_path, doc)
        out = tmp_path / "o3"
        assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"]["type"] == "NonFinite"

    def test_stiff_hopf_stops_at_the_evaluation_budget(self, tmp_path):
        # the Hopf field scales with 1 / omega; without a budget this run
        # takes minutes of ever smaller steps
        doc = json.loads((CONFIG_DIR / "hopf_monodromy.json").read_text())
        doc["system"]["params"]["omega"] = 1e-6
        doc["output"] = {}
        path = _write(tmp_path, doc)
        out = tmp_path / "o3"
        assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"]["type"] == "StepFailure"

    def test_noncommuting_is_4(self, tmp_path):
        doc = {
            "system": {"name": "polynomial", "params": {
                "n": 2, "k": 2, "p": 0,
                "fields": [
                    [[[1.0, [0, 0]]], []],
                    [[[1.0, [1, 0]]], []],
                ]}},
            "torus": {"kind": "flat", "angle_coords": [0, 1],
                      "values": [0.0, 0.0], "eps0": []},
            "analysis": "verify",
            "options": {},
        }
        path = _write(tmp_path, doc)
        out = tmp_path / "o4"
        assert main(["run", str(path), "--out", str(out)]) == 4
        rep = json.loads((out / "report.json").read_text())
        assert not rep["results"]["commutation"]["passed"]

    @pytest.mark.parametrize("grid", [0, 1])
    def test_torus_grid_below_two_is_2(self, tmp_path, grid):
        doc = _hopf_config("torus", {"alpha": [1], "eps": [0.15],
                                     "grid_per_angle": grid})
        path = _write(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("search_radius", 0), ("search_radius", -0.5), ("probe_tol", 0),
        ("tol", -1)])
    def test_probe_option_not_positive_is_2(self, tmp_path, key, value):
        doc = {"system": {"name": "pitchfork", "params": {"eps0": -0.05}},
               "analysis": "bifurcate",
               "options": {"alpha": [1], "probe_offsets": [0.04],
                           "eps_grid": {"start": [-0.05], "stop": [0.05],
                                        "num": 4},
                           key: value}}
        path = _write(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_monodromy_tol_not_positive_is_2(self, tmp_path):
        path = _write(tmp_path, _hopf_config(options={"alpha": [1],
                                                      "tol": -1}))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("analysis, key, bad, least", [
        ("floquet", "n_samples", 0, 1), ("floquet", "n_out", 0, 1),
        ("verify", "grid", 2, 4), ("verify", "grid", 3, 4),
        ("verify", "samples", 0, 1)])
    def test_integer_below_minimum_is_2(self, tmp_path, analysis, key, bad,
                                        least):
        alpha = {"alpha": [1]} if analysis == "floquet" else {}
        path = _write(tmp_path, _hopf_config(analysis, {**alpha, key: bad}))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        path = _write(tmp_path, _hopf_config(analysis, {**alpha, key: least}),
                      "least.json")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("analysis, key", [
        ("verify", "commutation_tol"), ("verify", "invariance_tol"),
        ("monodromy", "unit_tol"), ("monodromy", "spectrum_tol"),
        ("continue", "delta_min"), ("continue", "trust_radius"),
        ("bifurcate", "circle_tol"), ("bifurcate", "eps_tol"),
        ("bifurcate", "angle_tol"), ("bifurcate", "delta_min"),
        ("bifurcate", "trust_radius"), ("torus", "closure_tol")])
    @pytest.mark.parametrize("value", [0, -1])
    def test_tolerance_not_positive_is_2(self, tmp_path, capsys, analysis,
                                         key, value):
        # trust_radius is no longer an option: a config that still sets it
        # is refused as an unknown key, whatever its value
        options = {"verify": {}, "monodromy": {"alpha": [1]},
                   "torus": {"alpha": [1], "eps": [0.15]}}.get(
            analysis, {"alpha": [1], "eps_grid": {"start": [0.1],
                                                  "stop": [0.2], "num": 3}})
        path = _write(tmp_path, _hopf_config(analysis,
                                             {**options, key: value}))
        assert main(["validate", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("analysis, key", [
        ("monodromy", "tol"), ("floquet", "tol"), ("continue", "tol"),
        ("bifurcate", "tol"), ("bifurcate", "probe_tol"), ("torus", "tol")])
    def test_tolerance_below_scipy_floor_is_2(self, tmp_path, capsys,
                                              analysis, key):
        options = {"monodromy": {"alpha": [1]}, "floquet": {"alpha": [1]},
                   "torus": {"alpha": [1], "eps": [0.15]}}.get(
            analysis, {"alpha": [1], "eps_grid": {"start": [0.1],
                                                  "stop": [0.2], "num": 3}})
        path = _write(tmp_path, _hopf_config(analysis,
                                             {**options, key: 1e-16}))
        assert main(["validate", str(path)]) == 2
        assert f"options.{key}" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        path = _write(tmp_path, _hopf_config(analysis,
                                             {**options, key: MIN_TOL}),
                      "floor.json")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("angles", [[[0.0, 1.0]], [[]], [[0.0], []]],
                             ids=["two-angles", "empty", "second-empty"])
    def test_sample_angles_wrong_length_is_2(self, tmp_path, capsys, angles):
        path = _write(tmp_path, _hopf_config(options={
            "alpha": [1], "sample_angles": angles}))
        assert main(["validate", str(path)]) == 2
        assert "options.sample_angles[" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("system", [
        {"name": "hopf", "params": {"omega": 0.0, "eps0": 0.1}},
        {"name": "straightened", "params": {
            "A": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "C": [[0.5], [0.25]]}},
        {"name": "straightened", "params": {
            "A": [[[-0.3, 0.0], [0.0, 0.2]], [[0.1, 0.0], [0.0, -0.4]]],
            "C": [[0.5], [0.25], [0.0]]}},
    ], ids=["hopf-omega-0", "straightened-noncommuting",
            "straightened-C-rows"])
    def test_catalog_parameter_rejected_is_2(self, tmp_path, capsys, system):
        doc = _hopf_config()
        doc["system"] = system
        doc["options"]["alpha"] = [1] * (1 if system["name"] == "hopf" else 2)
        path = _write(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert "system.params" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    @staticmethod
    def _pitchfork_grid(analysis, grid):
        options = {"alpha": [1], "eps_grid": grid}
        if analysis == "bifurcate":
            options["probe_offsets"] = [0.04]
        return {"system": {"name": "pitchfork", "params": {"eps0": -0.05}},
                "analysis": analysis, "options": options}

    @pytest.mark.parametrize("analysis", ["continue", "bifurcate"])
    @pytest.mark.parametrize("grid", [
        {"start": [0.0], "stop": [0.05], "num": 4},
        {"values": [[-0.05, 0.0], [0.0, 0.0]]},
    ], ids=["start-off-seed", "wrong-width"])
    def test_eps_grid_not_from_seed_is_2(self, tmp_path, capsys, analysis,
                                         grid):
        path = _write(tmp_path, self._pitchfork_grid(analysis, grid))
        assert main(["validate", str(path)]) == 2
        assert "options.eps_grid" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_torus_eps_wrong_width_is_2(self, tmp_path, capsys):
        doc = _hopf_config("torus", {"alpha": [1], "eps": [0.15, 0.2]})
        path = _write(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert "options.eps" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_repeated_grid_parameter_runs(self, tmp_path):
        grid = {"start": [-0.05], "stop": [-0.05], "num": 4}
        path = _write(tmp_path, self._pitchfork_grid("continue", grid))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["branch"]["status"] == "completed"
        assert len(rep["results"]["branch"]["points"]) == 4

    def test_validate_subcommand(self, tmp_path):
        path = _write(tmp_path, _hopf_config())
        assert main(["validate", str(path)]) == 0
        bad = _write(tmp_path, {"analysis": "monodromy"}, "bad.json")
        assert main(["validate", str(bad)]) == 2


class TestDeterminism:
    def test_same_config_same_numbers(self, tmp_path):
        doc = _hopf_config(options={"alpha": [1],
                                    "sample_angles": [[0.0], [2.0]]})
        path = _write(tmp_path, doc)
        cfg = load_config(path)
        rep1, code1 = run_config(cfg, tmp_path / "a")
        rep2, code2 = run_config(cfg, tmp_path / "b")
        assert code1 == code2 == 0
        from pnk.report import canonical_json
        assert canonical_json(strip_volatile(rep1)) == \
            canonical_json(strip_volatile(rep2))

    def test_config_echo_reparses_identically(self, tmp_path):
        path = _write(tmp_path, _hopf_config())
        cfg = load_config(path)
        rep, _ = run_config(cfg, tmp_path / "o")
        echoed = json.loads((tmp_path / "o" / "report.json").read_text())
        again = parse_config(echoed["config"])
        assert again.normalized == cfg.normalized

    def test_verify_uses_seeded_rng(self, tmp_path):
        doc = {
            "system": {"name": "straightened", "params": {
                "A": [[[-0.3, 0.0], [0.0, 0.2]], [[0.1, 0.0], [0.0, -0.4]]],
                "C": [[0.5], [0.25]]}},
            "torus": {"kind": "catalog"},
            "analysis": "verify",
            "options": {"samples": 10, "seed": 7},
        }
        cfg = parse_config(doc)
        rep1, _ = run_config(cfg, tmp_path / "a")
        rep2, _ = run_config(cfg, tmp_path / "b")
        from pnk.report import canonical_json
        assert canonical_json(strip_volatile(rep1)) == \
            canonical_json(strip_volatile(rep2))


class TestStoppedBranchArtifacts:
    def test_rows_up_to_stop_and_status_in_report(self, tmp_path):
        # an eigenvalue exp(2 pi (eps - 0.05)) hits 1 on the fourth slice
        doc = {
            "system": {"name": "polynomial", "params": {
                "n": 2, "k": 1, "p": 1,
                "fields": [[
                    [[1.0, [0, 0], [0]]],
                    [[1.0, [0, 1], [1]], [-0.05, [0, 1], [0]]],
                ]]}},
            "torus": {"kind": "flat", "angle_coords": [0],
                      "values": [0.0, 0.0], "eps0": [0.0]},
            "analysis": "continue",
            "options": {"alpha": [1],
                        "eps_grid": {"start": [0.0], "stop": [0.1],
                                     "num": 5}},
        }
        cfg = parse_config(doc)
        out = tmp_path / "stopped"
        rep, code = run_config(cfg, out)
        assert code == 0
        assert rep["results"]["branch"]["status"] == "stopped_at_critical"
        n_points = rep["results"]["branch"]["n_points"]
        assert n_points == 3  # stops on the critical slice eps = 0.05
        rows = (out / "branch.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + n_points
