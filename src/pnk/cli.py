"""Batch front end: ``pnk run config.json`` and ``pnk validate config.json``.

One run per process. Exit codes: 0 success, 2 validation error, 3
numerical failure (no convergence, open loop/torus, resonance, ...), 4
detected non-commutation. Numerical failures still write a report
carrying the originating error verbatim.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, flow
from .bifurcation import ProbeOptions, analyze_branch
from .config import RunConfig, RunSetup, build_run, eps_grid_values, load_config
from .continuation import (ContinuationOptions, continue_branch,
                           hyperbolicity_report, isolation_check,
                           newton_fixed_point, reconstruct_torus)
from .core import TWO_PI, verify_commuting_family, verify_torus_invariance
from .errors import ConfigError, NonCommuting, OpenTorus, PnkError
from .floquet import block_spectrum_check, extract_linearization, \
    floquet_decompose, fundamental_matrix
from .report import (branch_dict, emit_branch_table, emit_torus_table,
                     event_dict, probe_dict, write_report)
from .section import basepoint_spectrum_check, build_section, monodromy_report

log = logging.getLogger("pnk")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCOMMUTING = 4


# ---------------------------------------------------------------------------
# analysis pipelines


def _run_verify(setup: RunSetup, options: dict):
    family, seed = setup.family, setup.seed
    rng = np.random.default_rng(options["seed"])
    samples = []
    for _ in range(options["samples"]):
        phi = rng.uniform(0.0, TWO_PI, seed.k)
        x = seed.point(phi)
        x = x + options["ball_radius"] * rng.uniform(-1.0, 1.0, family.n)
        eps = seed.eps0 + options["ball_radius"] * rng.uniform(-1.0, 1.0,
                                                               family.p)
        samples.append((x, eps))
    commutation = verify_commuting_family(family, samples,
                                          options["commutation_tol"])
    invariance = verify_torus_invariance(family, seed, options["grid"],
                                         options["invariance_tol"])
    results = {
        "commutation": {
            "max_residual": commutation.max_residual,
            "worst_pair": list(commutation.worst_pair)
            if commutation.worst_pair else None,
            "tol": commutation.tol,
            "passed": commutation.passed,
        },
        "invariance": {
            "max_normal_residual": invariance.max_normal_residual,
            "tol": invariance.tol,
            "passed": invariance.passed,
        },
    }
    if not commutation.passed:
        code = EXIT_NONCOMMUTING
    elif not invariance.passed:
        code = EXIT_NUMERICAL
    else:
        code = EXIT_OK
    return results, code, {}


def _run_monodromy(setup: RunSetup, options: dict):
    family, seed = setup.family, setup.seed
    alpha = options["alpha"]
    rep = monodromy_report(family, seed, alpha, tol=options["tol"],
                           unit_tol=options["unit_tol"])
    hyp = hyperbolicity_report(rep.transversal)
    results = {
        "alpha": alpha,
        "full_spectrum": rep.full_spectrum,
        "transversal_spectrum": rep.transversal_spectrum,
        "transversal_moduli": np.abs(rep.transversal_spectrum),
        "trivial_unit_count": rep.trivial_unit_count,
        "pairing_distance": rep.pairing_distance,
        "closure_defect": rep.closure_defect,
        "dist_from_one": hyp.dist_from_one,
        "dist_from_unit_circle": hyp.dist_from_unit_circle,
        "isolated": isolation_check(hyp),
    }
    if options["sample_angles"]:
        check = basepoint_spectrum_check(
            family, seed, alpha, options["sample_angles"],
            tol=options["spectrum_tol"], integration_tol=options["tol"])
        results["basepoint_check"] = {
            "max_spectral_distance": check.max_spectral_distance,
            "passed": check.passed,
            "spectra": [s for s in check.spectra],
        }
    return results, EXIT_OK, {}


def _run_floquet(setup: RunSetup, options: dict):
    family, seed = setup.family, setup.seed
    alpha = options["alpha"]
    coeffs = extract_linearization(family, seed, alpha,
                                   n_samples=options["n_samples"])
    theta = fundamental_matrix(coeffs, coeffs.T, tol=options["tol"],
                               n_out=options["n_out"])
    dec = floquet_decompose(theta)
    block = block_spectrum_check(coeffs.Ahat_samples[0],
                                 coeffs.Bhat_samples[0])
    results = {
        "alpha": alpha,
        "period": coeffs.T,
        "monodromy": dec.Q,
        "multipliers": dec.multipliers,
        "exponents": dec.exponents,
        "real_form": dec.real_form,
        "log_residual": dec.log_residual,
        "periodicity_defect": dec.periodicity_defect,
        "block_spectrum": {
            "max_distance": block.max_distance,
            "passed": block.passed,
        },
    }
    return results, EXIT_OK, {}


def _continuation_options(options: dict) -> ContinuationOptions:
    return ContinuationOptions(
        tol=options["tol"], max_iter=options["max_iter"],
        delta_min=options["delta_min"])


def _run_continue(setup: RunSetup, options: dict):
    family, seed = setup.family, setup.seed
    branch = continue_branch(family, seed, options["alpha"],
                             eps_grid_values(options),
                             _continuation_options(options))
    results = {"alpha": options["alpha"], "branch": branch_dict(branch)}
    code = EXIT_OK if branch.status != "diverged" else EXIT_NUMERICAL
    return results, code, {"branch": branch}


def _run_bifurcate(setup: RunSetup, options: dict):
    family, seed = setup.family, setup.seed
    alpha = options["alpha"]
    results, code, artifacts = _run_continue(setup, options)
    branch = artifacts["branch"]
    if code != EXIT_OK or len(branch.points) < 2:
        results["events"] = []
        return results, EXIT_NUMERICAL, artifacts
    probe_opts = ProbeOptions(search_radius=options["search_radius"],
                              tol=options["probe_tol"])
    analysis = analyze_branch(
        family, seed, alpha, branch,
        circle_tol=options["circle_tol"], eps_tol=options["eps_tol"],
        angle_tol=options["angle_tol"], tol=options["tol"],
        probe_offsets=options["probe_offsets"] or None,
        probe_options=probe_opts)
    results["events"] = [event_dict(ev) for ev in analysis.events]
    results["probes"] = [{"event": idx, **probe_dict(pr)}
                         for idx, pr in analysis.probes]
    results["ambiguous_matching_steps"] = analysis.paths.ambiguous_steps
    return results, EXIT_OK, artifacts


def _run_torus(setup: RunSetup, options: dict):
    family, seed = setup.family, setup.seed
    alpha = options["alpha"]
    eps = np.asarray(options["eps"], dtype=float)
    frame = build_section(family, seed)
    nr = newton_fixed_point(family, seed, alpha, frame, eps,
                            np.zeros(frame.r), options["tol"],
                            options["max_iter"])
    recon = reconstruct_torus(family, seed, eps, nr.u,
                              options["grid_per_angle"],
                              options["closure_tol"], frame=frame,
                              integration_tol=options["tol"])
    results = {
        "alpha": alpha,
        "eps": eps,
        "u_fixed": nr.u,
        "spectrum": nr.spectrum,
        "newton_iters": nr.iterations,
        "residual": nr.residual,
        "closure_defect": recon.closure_defect,
        "grid_per_angle": options["grid_per_angle"],
    }
    return results, EXIT_OK, {"torus": recon}


_PIPELINES = {
    "verify": _run_verify,
    "monodromy": _run_monodromy,
    "floquet": _run_floquet,
    "continue": _run_continue,
    "bifurcate": _run_bifurcate,
    "torus": _run_torus,
}


# ---------------------------------------------------------------------------
# entry points


def run_config(config: RunConfig, out_dir: Path) -> tuple[dict, int]:
    """Execute one parsed configuration; returns (report, exit_code)."""
    started = time.perf_counter()
    setup = build_run(config)
    tol = config.options.get("tol", flow.DEFAULT_TOL)
    report = {
        "config": config.normalized,
        "analysis": config.analysis,
        "tool_version": __version__,
        "integrator": {
            "method": flow.METHOD,
            "rtol": tol,
            "atol": tol * flow.ATOL_FACTOR,
        },
    }
    artifacts: dict = {}
    try:
        results, code, artifacts = _PIPELINES[config.analysis](setup,
                                                               config.options)
        report["results"] = results
        report["error"] = None
    except PnkError as exc:
        report["results"] = None
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, OpenTorus) and exc.report is not None:
            report["error"]["closure_defect"] = exc.report.closure_defect
        code = (EXIT_NONCOMMUTING if isinstance(exc, NonCommuting)
                else EXIT_NUMERICAL)
    report["timing"] = {"seconds": time.perf_counter() - started}

    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, out_dir / "report.json")
    formats = config.output["formats"]
    if "csv" in formats and "branch" in artifacts:
        if artifacts["branch"].points:
            emit_branch_table(artifacts["branch"], out_dir / "branch.csv")
    if "csv" in formats and "torus" in artifacts:
        emit_torus_table(artifacts["torus"], out_dir / "torus.csv")
    return report, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pnk",
        description="Monodromy spectra, Floquet analysis, invariant-torus "
                    "continuation and bifurcation detection for commuting "
                    "vector fields.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a JSON run configuration")
    run_p.add_argument("config", help="path to the JSON configuration")
    run_p.add_argument("--out", default=None,
                       help="output directory (default: config's output.dir)")
    run_p.add_argument("--verbose", action="store_true",
                       help="log progress to stderr")

    val_p = sub.add_parser("validate", help="validate a configuration only")
    val_p.add_argument("config", help="path to the JSON configuration")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if getattr(args, "verbose", False)
                        else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)

    try:
        config = load_config(args.config)
        if args.command == "validate":
            build_run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(f"{args.config}: valid ({config.analysis} analysis, system "
              f"{config.system_name})")
        return EXIT_OK

    out_dir = Path(args.out) if args.out else Path(config.output["dir"])
    try:
        report, code = run_config(config, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if report.get("error"):
        print(f"{report['error']['type']}: {report['error']['message']}",
              file=sys.stderr)
    log.info("run finished with exit code %d, report in %s", code,
             out_dir / "report.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
