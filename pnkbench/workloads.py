"""The four benchmark workloads, built from pnk's public API.

Each ``prepare_<name>(seed, out_dir)`` builds the workload's systems (or
parses its configs) and returns a :class:`Workload`: ``run()`` performs one
iteration and returns its raw results, ``check(result)`` returns the list of
correctness problems (empty when the iteration reached its stated accuracy).

Every call into pnk goes through a module attribute looked up at call time
(``cont.continue_branch``, not a name bound here), so the span wrappers that
``spans.py`` installs on those attributes see the call.

The workload seed jitters physical parameters only inside ranges where the
catalog's closed-form oracles hold; ``shipped_configs`` ignores it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import pnk.bifurcation as bif
import pnk.catalog as catalog
import pnk.cli as cli
import pnk.config as config
import pnk.continuation as cont
import pnk.report as report
import pnk.section as section

ROOT = Path(__file__).resolve().parent.parent

# Oracle and acceptance tolerances, fixed before any measurement.
FIXED_POINT_TOL = 1e-8
CLOSURE_TOL = 1e-8
EPS_CRITICAL_TOL = 1e-6
AMPLITUDE_TOL = 1e-6
CIRCLE_REL_TOL = 1e-6

# Physical-parameter jitter per workload seed, each a sub-range of the range
# where the oracles were checked to hold.
HOPF_OMEGA = (0.95, 1.05)
HOPF_EPS0 = (0.099, 0.101)
FLIP_EPS_POST = (0.039, 0.0399)
NEIMARK_SHIFT = (-0.001, 0.001)


@dataclass
class Workload:
    params: dict
    run: Callable[[], object]
    check: Callable[[object], list]


def _uniform(rng: random.Random, bounds) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * rng.random()


def _close(got, want, tol) -> bool:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) <= tol


def _grid(start: float, stop: float, num: int) -> list:
    return [np.array([e]) for e in np.linspace(start, stop, num)]


def prepare_hopf_branch(seed: int, out_dir: Path) -> Workload:
    """41-slice Hopf branch, then the torus at the last slice with g=32."""
    rng = random.Random(seed)
    omega = _uniform(rng, HOPF_OMEGA)
    eps0 = _uniform(rng, HOPF_EPS0)
    system = catalog.make_hopf(omega, eps0)
    path = _grid(eps0, eps0 + 0.2, 41)

    def run():
        branch = cont.continue_branch(system.family, system.seed, [1], path)
        last = branch.points[-1]
        torus = cont.reconstruct_torus(system.family, system.seed, last.eps,
                                       last.u, grid_per_angle=32,
                                       tol=CLOSURE_TOL, frame=branch.frame)
        return branch, torus

    def check(result):
        branch, torus = result
        problems = []
        if branch.status != "completed" or len(branch.points) != len(path):
            problems.append(f"branch {branch.status} with "
                            f"{len(branch.points)} of {len(path)} slices")
        for pt in branch.points:
            if not _close(pt.u, system.oracle.fixed_u(pt.eps), FIXED_POINT_TOL):
                problems.append(f"slice eps={pt.eps[0]:.6g} off the oracle")
        if torus.closure_defect > CLOSURE_TOL:
            problems.append(f"closure defect {torus.closure_defect:.3g}")
        return problems

    return Workload({"omega": omega, "eps0": eps0}, run, check)


def prepare_flip_probe(seed: int, out_dir: Path) -> Workload:
    """Flip branch and bisection, then the CaseA probe past the crossing."""
    rng = random.Random(seed)
    eps_post = _uniform(rng, FLIP_EPS_POST)
    system = catalog.make_flip()
    path = _grid(-0.05, 0.05, 12)
    opts = bif.ProbeOptions(search_radius=0.5)

    def run():
        branch = cont.continue_branch(system.family, system.seed, [1], path)
        analysis = bif.analyze_branch(system.family, system.seed, [1], branch)
        kind = analysis.events[0].kind if analysis.events else None
        probe = bif.postcritical_probe(system.family, system.seed, [1],
                                       branch.frame, [eps_post], bif.CASE_A,
                                       opts)
        return analysis, kind, probe

    def check(result):
        analysis, kind, probe = result
        problems = []
        if len(analysis.events) != 1 or kind != bif.CASE_A:
            problems.append(f"events {[ev.kind for ev in analysis.events]}")
        elif abs(analysis.events[0].eps_critical[0]) > EPS_CRITICAL_TOL:
            problems.append("critical parameter off zero")
        if probe.fixed_points:
            problems.append(f"{len(probe.fixed_points)} spurious fixed points")
        if len(probe.two_cycles) != 1:
            problems.append(f"{len(probe.two_cycles)} two-cycles, want one")
        want = math.sqrt(eps_post)
        for cycle in probe.two_cycles:
            for pt in cycle.points:
                if abs(float(np.linalg.norm(pt)) - want) > AMPLITUDE_TOL:
                    problems.append("2-cycle amplitude off sqrt(eps_post)")
        return problems

    return Workload({"eps_post": eps_post}, run, check)


# The README's straightened 2-torus.
STRAIGHTENED_A = (np.diag([-0.3, 0.2]), np.diag([0.1, -0.4]))
STRAIGHTENED_C = np.array([[0.5], [0.25]])


def prepare_circle_torus(seed: int, out_dir: Path) -> Workload:
    """Neimark branch and CaseC circle probes, then a g=48 2-torus."""
    rng = random.Random(seed)
    probe_eps = [e + _uniform(rng, NEIMARK_SHIFT) for e in (0.02, 0.04, 0.06)]
    neimark = catalog.make_neimark()
    damping = neimark.params["damping"]
    path = _grid(-0.05, 0.05, 12)
    opts = bif.ProbeOptions(search_radius=0.5, transient=120, n_samples=64)
    flat = catalog.make_straightened(
        catalog.StraightenedSpec(STRAIGHTENED_A, STRAIGHTENED_C))
    torus_eps = np.array([0.1])

    def run():
        branch = cont.continue_branch(neimark.family, neimark.seed, [1], path)
        analysis = bif.analyze_branch(neimark.family, neimark.seed, [1],
                                      branch)
        probes = [bif.postcritical_probe(neimark.family, neimark.seed, [1],
                                         branch.frame, [e], bif.CASE_C, opts)
                  for e in probe_eps]
        frame = section.build_section(flat.family, flat.seed)
        fixed = cont.newton_fixed_point(flat.family, flat.seed, [1, 0], frame,
                                        torus_eps, np.zeros(frame.r))
        torus = cont.reconstruct_torus(flat.family, flat.seed, torus_eps,
                                       fixed.u, grid_per_angle=48,
                                       tol=CLOSURE_TOL, frame=frame)
        return analysis, probes, fixed, torus

    def check(result):
        analysis, probes, fixed, torus = result
        problems = []
        kinds = [ev.kind for ev in analysis.events]
        if kinds != [bif.CASE_C]:
            problems.append(f"events {kinds}")
        elif abs(analysis.events[0].eps_critical[0]) > EPS_CRITICAL_TOL:
            problems.append("critical parameter off zero")
        for e, probe in zip(probe_eps, probes):
            want = math.sqrt(e / damping)
            if probe.circle is None:
                problems.append(f"no circle at eps={e:.6g}")
            elif float(np.max(np.abs(probe.circle.radii - want))) \
                    > CIRCLE_REL_TOL * want:
                problems.append(f"circle radii off sqrt(eps/c) at eps={e:.6g}")
        if not _close(fixed.u, flat.oracle.fixed_u(torus_eps), FIXED_POINT_TOL):
            problems.append("straightened fixed point off the oracle")
        if torus.closure_defect > CLOSURE_TOL:
            problems.append(f"closure defect {torus.closure_defect:.3g}")
        return problems

    return Workload({"probe_eps": probe_eps}, run, check)


def prepare_shipped_configs(seed: int, out_dir: Path) -> Workload:
    """Every shipped run config through load_config and run_config."""
    paths = sorted((ROOT / "run_configs").glob("*.json"))
    if not paths:
        raise FileNotFoundError("no run configs under run_configs/")
    goldens = {p.name: (ROOT / "tests" / "golden" / p.name).read_text(
        encoding="utf-8") for p in paths}
    for p in paths:  # parse once up front: a broken config fails set-up
        config.load_config(p)

    def run():
        outcomes = []
        for p in paths:
            cfg = config.load_config(p)
            doc, code = cli.run_config(cfg, out_dir / p.stem)
            outcomes.append((p.name, doc, code))
        return outcomes

    def check(outcomes):
        problems = []
        for name, doc, code in outcomes:
            if code != 0:
                problems.append(f"{name}: exit code {code}")
            elif report.canonical_json(report.strip_volatile(doc)) \
                    != goldens[name]:
                problems.append(f"{name}: report differs from its golden")
        return problems

    return Workload({"configs": [p.name for p in paths]}, run, check)


PREPARE = {
    "hopf_branch": prepare_hopf_branch,
    "flip_probe": prepare_flip_probe,
    "circle_torus": prepare_circle_torus,
    "shipped_configs": prepare_shipped_configs,
}
