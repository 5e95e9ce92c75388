"""Config validation, round-trips, CSV tables, exit codes, determinism."""

import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from pnk import (ConfigError, ContinuationOptions, ProbeOptions,
                 analyze_branch, basepoint_spectrum_check, config,
                 continue_branch, monodromy_report, parse_config,
                 reconstruct_torus, verify_commuting_family,
                 verify_torus_invariance)
from pnk.catalog import CATALOG, StraightenedSpec
from pnk.cli import main, run_config
from pnk.config import MAX_COUNT, build_run, eps_grid_values, load_config
from pnk.continuation import checked_path
from pnk.flow import DEFAULT_TOL, MIN_TOL
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
        # no floquet pipeline reads a resonance tolerance, its report
        # reads the fundamental matrix at 0 and T only, whatever n_out was,
        # and its coefficient blocks are exact, not sampled
        for key, value in (("resonance_tol", 1e-8), ("n_out", 17),
                           ("n_samples", 64)):
            doc = _hopf_config(analysis="floquet", options={
                "alpha": [1], key: value})
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

    @pytest.mark.parametrize("start, stop, num", [
        ([0.1], [0.3], 7), ([0.1], [0.1], 1), ([0.1], [0.3], 2),
        ([0.1], [-1.7e308], 9), ([0.2], [0.3], 5), ([-1e308], [1e308], 4),
        ([1e308], [-1e308], 1), ([0.1, 0.2], [0.3, 0.4], 3)])
    def test_grid_check_refuses_what_the_slices_refuse(self, start, stop,
                                                       num):
        # build_run checks a start/stop/num grid without building its
        # slices; it refuses a grid, with the same message, exactly when
        # checked_path refuses the slices
        cfg = parse_config(_hopf_config("continue", {
            "alpha": [1],
            "eps_grid": {"start": start, "stop": stop, "num": num}}))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                slices = eps_grid_values(cfg.options)
            checked_path(slices, np.array([0.1]), 1)
        except ValueError as exc:
            with pytest.raises(ConfigError) as info:
                build_run(cfg)
            assert str(info.value) == f"options.eps_grid: {exc}"
        else:
            build_run(cfg)

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

    @staticmethod
    def _polynomial_field(n, p, components):
        doc = {
            "system": {"name": "polynomial", "params": {
                "n": n, "k": 1, "p": p, "fields": [components]}},
            "torus": {"kind": "flat", "angle_coords": [0],
                      "values": [0.0] * n, "eps0": [0.0] * p},
            "analysis": "verify",
        }
        return build_run(parse_config(doc)).family.member(0)

    def test_polynomial_derivatives_exact(self):
        # integer coefficients at dyadic points, so every value is exact:
        # f0 = 3 x0^2 x1 e0 - 2 x1 e1^2 + 5,
        # f1 = x0 e0 e1 - 4 x1^3 + x2^2 and f2 = 0
        field = self._polynomial_field(3, 2, [
            [[3, [2, 1, 0], [1, 0]], [-2, [0, 1, 0], [0, 2]],
             [5, [0, 0, 0], [0, 0]]],
            [[1, [1, 0, 0], [1, 1]], [-4, [0, 3, 0], [0, 0]],
             [1, [0, 0, 2]]],
            [],
        ])
        x = np.array([0.5, -1.5, 2.0])
        eps = np.array([0.25, -0.5])
        np.testing.assert_array_equal(field.value(x, eps),
                                      [5.46875, 17.4375, 0.0])
        np.testing.assert_array_equal(field.jacobian(x, eps), [
            [-1.125, -0.3125, 0.0],
            [-0.125, -27.0, 4.0],
            [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(field.eps_jacobian(x, eps), [
            [-1.125, -3.0],
            [-0.25, 0.125],
            [0.0, 0.0]])

    def test_polynomial_without_parameters(self):
        # f0 = 2 x0 x1, f1 = 0: the parameter jacobian is n x 0
        field = self._polynomial_field(2, 0, [[[2, [1, 1]]], []])
        x = np.array([0.5, -1.5])
        eps = np.zeros(0)
        np.testing.assert_array_equal(field.jacobian(x, eps),
                                      [[-3.0, 1.0], [0.0, 0.0]])
        ejac = field.eps_jacobian(x, eps)
        assert ejac.shape == (2, 0)
        assert ejac.dtype == np.float64

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
        from pnk.continuation import ContinuationBranch, ContinuationOptions
        empty = ContinuationBranch([], "diverged", "nope", np.array([1, 0]),
                                   None, ContinuationOptions())
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

    def test_slice_past_a_fold_ends_the_branch(self, tmp_path):
        # u' = eps - u^2: the torus u = sqrt(eps) meets its twin at the
        # fold eps = 0, and on the first slice past it the map's flow
        # fails; the branch keeps its 21 points and names the slice
        doc = {
            "system": {"name": "polynomial", "params": {
                "n": 2, "k": 1, "p": 1,
                "fields": [[
                    [[1.0, [0, 0], [0]]],
                    [[1.0, [0, 0], [1]], [-1.0, [0, 2], [0]]],
                ]]}},
            "torus": {"kind": "flat", "angle_coords": [0],
                      "values": [0.0, math.sqrt(0.1)], "eps0": [0.1]},
            "analysis": "continue",
            "options": {"alpha": [1],
                        "eps_grid": {"start": [0.1], "stop": [-0.02],
                                     "num": 25}},
        }
        path = _write(tmp_path, doc)
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "o3"
        assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"] is None
        branch = rep["results"]["branch"]
        assert branch["status"] == "diverged"
        assert branch["n_points"] == 21
        assert branch["message"].startswith(
            "slice 21 at eps=[-0.005]: StepFailure: ")

    def test_subcritical_probe_finds_nothing(self, tmp_path):
        # u' = eps u + u^3: past the pitchfork at eps = 0 no small torus
        # exists, and the seed fit's flow from u = +-search_radius blows
        # up; that is a failed start, so the probe reports NothingFound
        doc = {
            "system": {"name": "polynomial", "params": {
                "n": 2, "k": 1, "p": 1,
                "fields": [[
                    [[1.0, [0, 0], [0]]],
                    [[1.0, [0, 1], [1]], [1.0, [0, 3], [0]]],
                ]]}},
            "torus": {"kind": "flat", "angle_coords": [0],
                      "values": [0.0, 0.0], "eps0": [-0.05]},
            "analysis": "bifurcate",
            "options": {"alpha": [1],
                        "eps_grid": {"start": [-0.05], "stop": [0.05],
                                     "num": 10},
                        "probe_offsets": [0.04]},
        }
        path = _write(tmp_path, doc)
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "o3"
        assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"]["type"] == "NothingFound"

    def test_failed_invariance_is_3(self, tmp_path):
        # the Hopf cycle has radius sqrt(0.1): a circle of radius 0.5 is
        # not invariant, while the family still commutes
        doc = _hopf_config("verify", {})
        doc["torus"] = {"kind": "circle", "center": [0.0, 0.0],
                        "radius": 0.5, "plane": [0, 1], "eps0": [0.1]}
        path = _write(tmp_path, doc)
        out = tmp_path / "o3"
        assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"] is None
        assert rep["results"]["commutation"]["passed"]
        assert not rep["results"]["invariance"]["passed"]

    def test_bifurcate_on_one_slice_is_3(self, tmp_path):
        # a margin of 0.27 is below delta_min on the first slice, so the
        # branch stops there and leaves no multiplier path to scan
        grid = {"start": [-0.05], "stop": [0.05], "num": 11}
        doc = self._pitchfork_grid("bifurcate", grid)
        doc["options"]["delta_min"] = 10
        path = _write(tmp_path, doc)
        out = tmp_path / "o3"
        assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"] is None
        assert rep["results"]["branch"]["n_points"] == 1
        assert rep["results"]["events"] == []
        assert "probes" not in rep["results"]
        rows = (out / "branch.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    # an exit 3 with no error named prints one stderr line saying why

    def test_failed_invariance_says_why(self, tmp_path, capsys):
        doc = _hopf_config("verify", {})
        doc["torus"] = {"kind": "circle", "center": [0.0, 0.0],
                        "radius": 0.5, "plane": [0, 1], "eps0": [0.1]}
        path = _write(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "o3")]) == 3
        assert capsys.readouterr().err == (
            "torus not invariant: normal residual 0.075 exceeds tol 1e-08\n")

    def test_bifurcate_on_one_slice_says_why(self, tmp_path, capsys):
        grid = {"start": [-0.05], "stop": [0.05], "num": 11}
        doc = self._pitchfork_grid("bifurcate", grid)
        doc["options"]["delta_min"] = 10
        path = _write(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "o3")]) == 3
        assert capsys.readouterr().err == (
            "branch stopped_at_critical: margin 0.27 below delta_min 10 at "
            "eps=[-0.05]; bifurcate needs 2 slices to scan, got 1\n")

    def test_open_torus_reports_its_defect(self, tmp_path):
        # no reconstruction closes to 1e-300; the error block carries the
        # defect that the same run reports when it passes
        doc = _hopf_config("torus", {"alpha": [1], "eps": [0.15],
                                     "grid_per_angle": 8})
        out = tmp_path / "o0"
        assert main(["run", str(_write(tmp_path, doc)), "--out",
                     str(out)]) == 0
        defect = json.loads((out / "report.json").read_text())[
            "results"]["closure_defect"]
        doc["options"]["closure_tol"] = 1e-300
        out = tmp_path / "o3"
        assert main(["run", str(_write(tmp_path, doc)), "--out",
                     str(out)]) == 3
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["type"] == "OpenTorus"
        assert error["closure_defect"] == defect > 0

    @staticmethod
    def _verify_out_of_range(case):
        if case == "commutation":
            # every bracket of the cubic flow-box family overflows to nan
            return {"system": {"name": "straightened", "params": {
                        "A": [[[-0.3, 0.0], [0.0, 0.2]],
                              [[0.1, 0.0], [0.0, -0.4]]],
                        "C": [[0.5], [0.25]], "cubic": 1}},
                    "torus": {"kind": "catalog"}, "analysis": "verify",
                    "options": {"ball_radius": 1e200}}
        doc = json.loads((CONFIG_DIR / "polynomial_verify.json").read_text())
        # at 1e120 the cubic terms overflow; at 1e308 so do the stencil
        # sums of the embedding tangents
        doc["torus"]["radius"] = 1e120 if case == "invariance" else 1e308
        doc["output"] = {}
        return doc

    @pytest.mark.parametrize("case, check", [
        ("commutation", "commutation"), ("invariance", "invariance"),
        ("tangents", "invariance")])
    def test_verify_residual_not_finite_is_3(self, tmp_path, capsys, case,
                                             check):
        # a check that could not be evaluated fails, without numpy
        # warnings, instead of passing at 0.0 or raising LinAlgError
        path = _write(tmp_path, self._verify_out_of_range(case))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"]["type"] == "NonFinite"
        assert rep["error"]["message"].startswith(f"{check} check:")
        assert "NonFinite" in capsys.readouterr().err

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

    def test_noncommuting_says_why(self, tmp_path, capsys):
        # [d/dx0, x0 d/dx0] = d/dx0: an exit 4 with no error named
        doc = {
            "system": {"name": "polynomial", "params": {
                "n": 2, "k": 2, "p": 0,
                "fields": [[[[1.0, [0, 0]]], []], [[[1.0, [1, 0]]], []]]}},
            "torus": {"kind": "flat", "angle_coords": [0, 1],
                      "values": [0.0, 0.0], "eps0": []},
            "analysis": "verify",
        }
        path = _write(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "o4")]) == 4
        assert capsys.readouterr().err == (
            "fields do not commute: bracket residual 1 at pair [0, 1] "
            "exceeds tol 1e-08\n")

    @staticmethod
    def _torus_filling_the_chart(analysis):
        # k = n: the fields x' = e1 and x' = e2 span the whole chart, so
        # their 2-torus leaves no section (r = 0)
        grid = {"start": [0.0], "stop": [0.1], "num": 3}
        options = {"verify": {}, "torus": {"alpha": [1, 0], "eps": [0.0]},
                   "continue": {"alpha": [1, 0], "eps_grid": grid},
                   "bifurcate": {"alpha": [1, 0], "eps_grid": grid}}
        return {
            "system": {"name": "polynomial", "params": {
                "n": 2, "k": 2, "p": 1,
                "fields": [[[[1.0, [0, 0], [0]]], []],
                           [[], [[1.0, [0, 0], [0]]]]]}},
            "torus": {"kind": "flat", "angle_coords": [0, 1],
                      "values": [0.0, 0.0], "eps0": [0.0]},
            "analysis": analysis,
            "options": options.get(analysis, {"alpha": [1, 0]}),
        }

    @pytest.mark.parametrize("analysis", [
        "monodromy", "floquet", "continue", "bifurcate", "torus"])
    def test_torus_filling_the_chart_is_2(self, tmp_path, capsys, analysis):
        path = _write(tmp_path, self._torus_filling_the_chart(analysis))
        out = tmp_path / "o"
        assert main(["validate", str(path)]) == 2
        assert "system.params: k = n = 2" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "system.params: k = n = 2" in capsys.readouterr().err
        assert not out.exists()

    def test_torus_filling_the_chart_verifies(self, tmp_path):
        path = _write(tmp_path, self._torus_filling_the_chart("verify"))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0

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
        ("verify", "grid", 2, 4), ("verify", "grid", 3, 4),
        ("verify", "samples", 0, 1)])
    def test_integer_below_minimum_is_2(self, tmp_path, analysis, key, bad,
                                        least):
        path = _write(tmp_path, _hopf_config(analysis, {key: bad}))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        path = _write(tmp_path, _hopf_config(analysis, {key: least}),
                      "least.json")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("analysis, key, bad", [
        ("verify", "grid", 2**62), ("verify", "samples", 2**63),
        ("torus", "grid_per_angle", 2**62),
        ("continue", "eps_grid.num", 2 * 10**6),
        ("bifurcate", "eps_grid.num", 2 * 10**6)])
    def test_count_above_maximum_is_2(self, tmp_path, capsys, analysis, key,
                                      bad):
        # too large for memory, or (samples, branch slices) a run without end
        def options(value):
            if key == "eps_grid.num":
                return {"alpha": [1], "eps_grid": {"start": [0.1],
                                                   "stop": [0.3],
                                                   "num": value}}
            return {**{"verify": {},
                       "torus": {"alpha": [1], "eps": [0.15]}}[analysis],
                    key: value}

        path = _write(tmp_path, _hopf_config(analysis, options(bad)))
        assert main(["validate", str(path)]) == 2
        assert f"options.{key}" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"options.{key}" in capsys.readouterr().err
        most = _hopf_config(analysis, options(MAX_COUNT))
        assert main(["validate", str(_write(tmp_path, most,
                                            "most.json"))]) == 0

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

    def test_overflowing_commutator_is_2(self, tmp_path, capsys):
        doc = _hopf_config(options={"alpha": [1, 1]})
        doc["system"] = {"name": "straightened", "params": {
            "A": [[[1e200, 0.0], [0.0, 1.0]], [[1e200, 1e200], [0.0, 1.0]]],
            "C": [[1.0], [0.0]]}}
        path = _write(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", str(path)]) == 2
            assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "could not be evaluated" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("config, keys, value, named", [
        ("hopf_monodromy", ["system", "params", "omega"], 10**400,
         "system.params.omega"),
        ("hopf_monodromy", ["options", "sample_angles"], [[10**400]],
         "options.sample_angles[0][0]"),
        ("hopf_monodromy", ["options", "alpha"], [10**400],
         "options.alpha[0]"),
        ("hopf_monodromy", ["options", "alpha"], [2**63],
         "options.alpha[0]"),
        ("polynomial_verify", ["system", "params", "fields", 0, 0, 0, 1],
         [10**20, 0], "system.params.fields[0][0][0][1][0]")],
        ids=["float-beyond-range", "angle-beyond-range",
             "winding-beyond-float", "winding-beyond-int64",
             "exponent-beyond-int64"])
    def test_number_out_of_range_is_2(self, tmp_path, capsys, config, keys,
                                      value, named):
        # a number beyond the float range, or a winding or exponent
        # beyond int64, the dtype they are stored in
        doc = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = _write(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", str(path)]) == 2
            assert named in capsys.readouterr().err
            assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize("under", [True, False],
                             ids=["under-a-file", "a-file"])
    def test_output_dir_that_cannot_be_made_is_2(self, tmp_path, capsys,
                                                 under):
        # refused before the analysis runs, naming the directory
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "o" if under else blocker
        path = _write(tmp_path, _hopf_config(output={"dir": str(out)}))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path)]) == 2
        assert f"output directory {out}" in capsys.readouterr().err
        assert main(["run", str(_write(tmp_path, _hopf_config(), "o.json")),
                     "--out", str(out)]) == 2
        assert f"output directory {out}" in capsys.readouterr().err

    def test_report_that_cannot_be_written_is_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "report.json").mkdir(parents=True)
        path = _write(tmp_path, _hopf_config())
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert f"output directory {out}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("grid", [
        {"start": [-0.05], "stop": [0.05], "num": 1},
        {"values": [[-0.05]]},
    ], ids=["num", "values"])
    def test_one_slice_bifurcate_grid_is_2(self, tmp_path, capsys, grid):
        # one slice leaves no multiplier path to scan; the run used to
        # exit 3 with no error named
        path = _write(tmp_path, self._pitchfork_grid("bifurcate", grid))
        assert main(["validate", str(path)]) == 2
        assert "options.eps_grid" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "options.eps_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("start", [-0.05, 0.05], ids=["rising", "falling"])
    def test_bifurcate_probes_the_unstable_side_both_ways(self, tmp_path,
                                                          start):
        # the twins u = +-sqrt(eps) live at eps > 0, where |mu| > 1; a
        # falling grid used to probe eps = -0.04 and exit 3 (NothingFound)
        grid = {"start": [start], "stop": [-start], "num": 10}
        doc = self._pitchfork_grid("bifurcate", grid)
        doc["system"]["params"]["eps0"] = start
        path = _write(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        (probe,) = json.loads((out / "report.json").read_text())[
            "results"]["probes"]
        assert probe["eps_post"][0] == pytest.approx(0.04, abs=1e-6)
        twins = sorted(f["u"][0] for f in probe["fixed_points"])
        assert twins == pytest.approx([-0.2000006, 0.2000006], abs=1e-6)

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


class TestMonodromyRun:
    def test_base_angle_sample_reuses_the_base_flow(self, tmp_path,
                                                    loop_flows):
        # hopf_monodromy samples the angles 0, pi/2 and pi; the sample at
        # 0 is the base point, whose loop flow the base report already made
        rep, code = run_config(load_config(CONFIG_DIR / "hopf_monodromy.json"),
                               tmp_path / "out")
        assert code == 0
        assert len(loop_flows) == 3
        assert rep["results"]["basepoint_check"]["passed"]


class TestIntegratorMetadata:
    """The report's integrator block states what the analysis ran."""

    def test_verify_integrates_nothing(self, tmp_path):
        config = load_config(CONFIG_DIR / "polynomial_verify.json")
        report, code = run_config(config, tmp_path)
        assert code == 0
        assert report["integrator"] is None
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["integrator"] is None

    def test_bifurcate_states_the_probe_tolerance(self, tmp_path):
        doc = json.loads((CONFIG_DIR / "pitchfork_bifurcate.json").read_text())
        doc["options"].update(tol=1e-9, probe_tol=1e-8)
        report, _ = run_config(parse_config(doc), tmp_path)
        assert report["integrator"] == {
            "method": "DOP853", "rtol": 1e-9, "atol": 1e-9 * 1e-2,
            "probe_rtol": 1e-8, "probe_atol": 1e-8 * 1e-2}


class TestProbeReports:
    """Bifurcate runs whose probes find a 2-cycle and a circle, read back
    from the written report."""

    @staticmethod
    def _probe(tmp_path, system):
        doc = {
            "system": {"name": system},
            "analysis": "bifurcate",
            "options": {"alpha": [1], "probe_offsets": [0.04],
                        "eps_grid": {"start": [-0.05], "stop": [0.05],
                                     "num": 12}},
        }
        _, code = run_config(parse_config(doc), tmp_path / system)
        assert code == 0
        rep = json.loads((tmp_path / system / "report.json").read_text())
        (probe,) = rep["results"]["probes"]
        return probe

    def test_flip_two_cycle_report(self, tmp_path):
        # the 2-cycle of the flip lies at (+-sqrt(eps), 0) on the section
        probe = self._probe(tmp_path, "flip")
        assert probe["kind"] == "CaseA"
        (cycle,) = probe["two_cycles"]
        amplitude = math.sqrt(probe["eps_post"][0])
        assert len(cycle["points"]) == 2
        for point in cycle["points"]:
            assert abs(math.hypot(*point) - amplitude) <= 1e-6
        assert probe["circle"] is None

    def test_neimark_circle_report(self, tmp_path):
        # the invariant circle of the Neimark map has radius sqrt(eps / c)
        probe = self._probe(tmp_path, "neimark")
        assert probe["kind"] == "CaseC"
        circle = probe["circle"]
        radius = math.sqrt(probe["eps_post"][0] / 1.0)  # damping c = 1
        assert circle["mean_radius"] == pytest.approx(radius, rel=1e-6)
        assert circle["n_samples"] == 128
        assert not probe["two_cycles"]


# Each config option that a pipeline hands to a library call, with that
# call's parameter: (analysis, key, callable or options class, parameter).
# pnkbench calls the library with its defaults, so that these agree keeps
# the benchmark timing the settings a default run uses.
_BRANCH_DEFAULTS = [(key, ContinuationOptions, key)
                    for key in ("tol", "max_iter", "delta_min")]
LIBRARY_DEFAULTS = [
    ("verify", "commutation_tol", verify_commuting_family, "tol"),
    ("verify", "invariance_tol", verify_torus_invariance, "tol"),
    ("verify", "grid", verify_torus_invariance, "grid"),
    ("monodromy", "unit_tol", monodromy_report, "unit_tol"),
    ("monodromy", "spectrum_tol", basepoint_spectrum_check, "tol"),
    *[("continue", *pair) for pair in _BRANCH_DEFAULTS],
    *[("bifurcate", *pair) for pair in _BRANCH_DEFAULTS],
    ("bifurcate", "circle_tol", analyze_branch, "circle_tol"),
    ("bifurcate", "eps_tol", analyze_branch, "eps_tol"),
    ("bifurcate", "angle_tol", analyze_branch, "angle_tol"),
    ("bifurcate", "search_radius", ProbeOptions, "search_radius"),
    ("bifurcate", "probe_tol", ProbeOptions, "tol"),
    ("torus", "grid_per_angle", reconstruct_torus, "grid_per_angle"),
    ("torus", "closure_tol", reconstruct_torus, "tol"),
    ("torus", "tol", reconstruct_torus, "integration_tol"),
]


def test_catalog_defaults_are_constructor_defaults():
    # the CLI builds catalog systems from config._CATALOG_PARAMS, while
    # pnkbench calls the constructors with their own defaults
    differ = []
    for name, params in config._CATALOG_PARAMS.items():
        # straightened's optional keys are StraightenedSpec's fields
        target = StraightenedSpec if name == "straightened" else CATALOG[name]
        signature = inspect.signature(target).parameters
        for key, (config_default, _) in params.items():
            if config_default is config.REQUIRED:
                continue
            library_default = signature[key].default
            if isinstance(library_default, tuple):  # radii, as a list
                library_default = list(library_default)
            if config_default != library_default:
                differ.append(f"system.params.{key} of {name} is "
                              f"{config_default}, {target.__name__}({key}=) "
                              f"is {library_default}")
    assert not differ, "; ".join(differ)


def test_config_defaults_are_library_defaults():
    differ = []
    for analysis, key, target, parameter in LIBRARY_DEFAULTS:
        config_default = config._OPTIONS[analysis][key][0]
        library_default = inspect.signature(target).parameters[
            parameter].default
        if config_default != library_default:
            differ.append(f"options.{key} of {analysis} is {config_default}, "
                          f"{target.__name__}({parameter}=) is "
                          f"{library_default}")
    for analysis, options in config._OPTIONS.items():
        if "tol" in options and options["tol"][0] != DEFAULT_TOL:
            differ.append(f"options.tol of {analysis} is {options['tol'][0]}, "
                          f"flow.DEFAULT_TOL is {DEFAULT_TOL}")
    assert not differ, "; ".join(differ)


# A polynomial verify config that validates: the rotation x0' = x1,
# x1' = -x0 on its unit circle. _TRANSLATIONS has two fields, x' = e1 and
# x' = e2, on the same chart; only verify runs at k = n.
_ROTATION = {
    "system": {"name": "polynomial", "params": {
        "n": 2, "k": 1, "p": 1,
        "fields": [[[[1.0, [0, 1], [0]]], [[-1.0, [1, 0], [0]]]]]}},
    "torus": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0,
              "plane": [0, 1], "eps0": [0.0]},
    "analysis": "verify",
}
_TRANSLATIONS = {"n": 2, "k": 2, "p": 1,
                 "fields": [[[[1.0, [0, 0], [0]]], []],
                            [[], [[1.0, [0, 0], [0]]]]]}
_FLAT = {"kind": "flat", "angle_coords": [0, 1], "values": [0.0, 0.0],
         "eps0": [0.0]}
_PARAMS = ("system", "params")
_TERMS = _PARAMS + ("fields", 0, 0)


def _edited(*edits):
    """_ROTATION as JSON text with each (key path, value) set."""
    doc = json.loads(json.dumps(_ROTATION))
    for path, value in edits:
        target = doc
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = value
    return json.dumps(doc)


def _write_text(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return path


def _flat(**torus):
    return _edited((_PARAMS, _TRANSLATIONS), (("torus",), {**_FLAT, **torus}))


REFUSALS = [
    ("not-json", "{", "config"),
    ("name-not-a-string", _edited((("system", "name"), 3)), "system.name"),
    ("unknown-analysis", _edited((("analysis",), "wat")), "analysis"),
    ("k-above-n", _edited((_PARAMS + ("k",), 3)), "system.params"),
    ("component-count", _edited((_TERMS[:-1], [[]])),
     "system.params.fields[0]"),
    ("terms-not-a-list", _edited((_TERMS, 5)), "system.params.fields[0][0]"),
    ("malformed-term", _edited((_TERMS + (0,), [1.0])),
     "system.params.fields[0][0][0]"),
    ("negative-exponent", _edited((_TERMS + (0, 1), [0, -1])),
     "system.params.fields[0][0][0]"),
    ("plane-axes-equal", _edited((("torus", "plane"), [1, 1])), "torus.plane"),
    ("plane-axis-out-of-range", _edited((("torus", "plane"), [0, 2])),
     "torus.plane"),
    ("circle-on-two-fields", _edited((_PARAMS, _TRANSLATIONS)), "torus.kind"),
    ("flat-values-length", _flat(values=[0.0]), "torus.values"),
    ("angle-coords-repeated", _flat(angle_coords=[0, 0]),
     "torus.angle_coords"),
    ("angle-coords-out-of-range", _flat(angle_coords=[0, 2]),
     "torus.angle_coords"),
    ("angle-coords-not-one-per-field", _flat(angle_coords=[0]),
     "torus.angle_coords"),
    ("output-format", _edited((("output",), {"formats": ["xml"]})),
     "output.formats"),
    ("output-dir-not-a-string", _edited((("output",), {"dir": 3})),
     "output.dir"),
    ("seed-parameter-length", _edited((("torus", "eps0"), [0.0, 0.0])),
     "torus"),
]


def test_refusal_bases_validate(tmp_path):
    # each refusal above is one edit away from a config that validates
    for text in (_edited(), _flat()):
        assert main(["validate", str(_write_text(tmp_path, text))]) == 0


@pytest.mark.parametrize("text, key", [
    pytest.param(text, key, id=name) for name, text, key in REFUSALS])
def test_refusal_names_its_key(tmp_path, capsys, text, key):
    assert main(["validate", str(_write_text(tmp_path, text))]) == 2
    assert f"configuration error: {key}" in capsys.readouterr().err
