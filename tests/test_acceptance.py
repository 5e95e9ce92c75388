"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass. Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from pnk import (CASE_A, CASE_B, CASE_C, ProbeOptions, Resonance,
                 analyze_branch, block_spectrum_check, build_section,
                 continue_branch, floquet_decompose, forced_response,
                 fundamental_matrix, monodromy_report, postcritical_probe,
                 reconstruct_torus)
from pnk.catalog import (StraightenedSpec, make_flip, make_hopf,
                         make_neimark, make_pitchfork, make_straightened,
                         make_uncoupled_oscillators, poisson_bracket)
from pnk.cli import run_config
from pnk.config import load_config
from pnk.report import canonical_json, strip_volatile
from pnk.spectra import match, match_distance, sorted_complex

ROOT = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * math.pi
_SUITE_STARTED = time.perf_counter()

A1 = np.diag([-0.3, 0.2])
A2 = np.diag([0.1, -0.4])
C = np.array([[0.5], [0.25]])


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


def test_criterion_01_straightened_monodromy_oracle():
    with criterion(1, "straightened transversal multipliers match "
                      "eig(exp(2 pi sum alpha_i A_i)) to 1e-6, under 10 s"):
        started = time.perf_counter()
        sysm = make_straightened(StraightenedSpec((A1, A2), C))
        for alpha in [(1, 0), (0, 1), (1, 1), (2, -1)]:
            rep = monodromy_report(sysm.family, sysm.seed, list(alpha))
            want = sorted_complex(np.linalg.eigvals(
                expm(TWO_PI * (alpha[0] * A1 + alpha[1] * A2))))
            _, dists = match(rep.transversal_spectrum, want)
            rel = float(np.max(dists / np.abs(want)))
            assert rel <= 1e-6, f"alpha={alpha}: relative error {rel:.3g}"
        assert time.perf_counter() - started <= 10.0


def test_criterion_02_hopf_reduction():
    with criterion(2, "Hopf multiplier exp(-0.4 pi) within 1e-6 relative"):
        sysm = make_hopf(omega=1.0, eps0=0.1)
        rep = monodromy_report(sysm.family, sysm.seed, [1])
        got = float(np.sort(np.abs(rep.transversal_spectrum))[0])
        want = math.exp(-0.4 * math.pi)
        assert abs(got - want) / want <= 1e-6


def test_criterion_03_trivial_unit_eigenvalues():
    with criterion(3, "every catalog monodromy carries exactly k unit "
                      "eigenvalues within 1e-8 beyond the oracle ones"):
        cases = [
            (make_straightened(StraightenedSpec((A1, A2), C)), [1, 0]),
            (make_straightened(StraightenedSpec((A1, A2), C)), [1, 1]),
            (make_hopf(), [1]),
            (make_uncoupled_oscillators(), [1, 0]),
            (make_uncoupled_oscillators(), [0, 1]),
            (make_pitchfork(), [1]),
            (make_flip(), [1]),
            (make_neimark(), [1]),
        ]
        for sysm, alpha in cases:
            rep = monodromy_report(sysm.family, sysm.seed, alpha)
            oracle = np.asarray(sysm.oracle.transversal_multipliers(
                alpha, sysm.seed.eps0), dtype=complex)
            full = list(rep.full_spectrum)
            for mu in oracle:  # exclude the oracle-matched transversal ones
                idx = int(np.argmin(np.abs(np.asarray(full) - mu)))
                full.pop(idx)
            k = sysm.family.k
            assert len(full) == k, sysm.name
            worst = float(np.max(np.abs(np.asarray(full) - 1.0)))
            assert worst <= 1e-8, f"{sysm.name}: unit defect {worst:.3g}"


def test_criterion_04_basepoint_invariance():
    with criterion(4, "sorted transversal spectra agree pairwise to 1e-6 "
                      "at 8 base points of the straightened torus"):
        sysm = make_straightened(StraightenedSpec((A1, A2), C))
        rng = np.random.default_rng(41)
        angles = rng.uniform(0.0, TWO_PI, size=(8, 2))
        specs = []
        for phi in angles:
            rep = monodromy_report(sysm.family, sysm.seed, [1, 0],
                                   m=sysm.seed.point(phi))
            specs.append(rep.transversal_spectrum)
        for i in range(8):
            for j in range(i + 1, 8):
                assert match_distance(specs[i], specs[j]) <= 1e-6


def _two_sided_branch(sysm, alpha, lo, hi, num):
    """Union of the branches from the seed parameter toward both grid ends."""
    eps_all = np.linspace(lo, hi, num)
    down = [np.array([e]) for e in sorted(eps_all[eps_all <= 0.0],
                                          key=abs)]
    up = [np.array([e]) for e in sorted(eps_all[eps_all >= 0.0], key=abs)]
    frame = build_section(sysm.family, sysm.seed)
    points = {}
    for path in (down, up):
        branch = continue_branch(sysm.family, sysm.seed, alpha, path,
                                 frame=frame)
        assert branch.status == "completed", branch.message
        for pt in branch.points:
            points[float(pt.eps[0])] = pt
    return frame, [points[e] for e in sorted(points)]


def test_criterion_05_continuation_and_reconstruction():
    with criterion(5, "21-step continuation recovers u = -C eps to 1e-8, "
                      "tori close to 1e-8, cubic Newton needs <= 6 iters"):
        sysm = make_straightened(StraightenedSpec((A1, A2), C))
        frame, points = _two_sided_branch(sysm, [1, 0], -0.1, 0.1, 21)
        assert len(points) == 21
        for pt in points:
            assert float(np.max(np.abs(pt.u + C @ pt.eps))) <= 1e-8
            rec = reconstruct_torus(sysm.family, sysm.seed, pt.eps, pt.u,
                                    grid_per_angle=8, tol=1e-8, frame=frame)
            assert rec.closure_defect <= 1e-8
        # full-resolution reconstruction at the branch end
        rec = reconstruct_torus(sysm.family, sysm.seed, points[-1].eps,
                                points[-1].u, grid_per_angle=32, tol=1e-8,
                                frame=frame)
        assert rec.closure_defect <= 1e-8

        cubic = make_straightened(StraightenedSpec((A1, A2), C, cubic=1.0))
        _, cubic_points = _two_sided_branch(cubic, [1, 0], -0.1, 0.1, 21)
        for pt in cubic_points:
            assert pt.iterations <= 6
            assert pt.residual <= 1e-10
        test_criterion_05_continuation_and_reconstruction.points = points


def test_criterion_06_corrector_spectrum_relation():
    with criterion(6, "corrector jacobian eigenvalues equal 1 - lambda_i "
                      "within 1e-8 on every accepted branch point"):
        points = getattr(test_criterion_05_continuation_and_reconstruction,
                         "points", None)
        if points is None:
            sysm = make_straightened(StraightenedSpec((A1, A2), C))
            _, points = _two_sided_branch(sysm, [1, 0], -0.1, 0.1, 21)
        for pt in points:
            dist = match_distance(pt.jacobian_spectrum, 1.0 - pt.spectrum)
            assert dist <= 1e-8


def test_criterion_07_floquet_suite():
    with criterion(7, "scalar Floquet: Q = exp(-0.6 pi), periodic part and "
                      "reconstruction to 1e-8, forced response, resonance"):
        theta = fundamental_matrix(lambda t: [[-0.3 + math.cos(t)]], TWO_PI,
                                   tol=1e-12, n_out=65)
        assert abs(theta.Q[0, 0] - math.exp(-0.6 * math.pi)) <= 1e-8
        dec = floquet_decompose(theta)
        assert dec.periodicity_defect <= 1e-8
        for i, t in enumerate(dec.times):
            recon = dec.periodic_part[i] @ expm(dec.B * t)
            assert np.max(np.abs(recon - theta.samples[i])) <= 1e-8
        forced = forced_response(lambda t: [[-1.0]],
                                 lambda t: [math.cos(t)], TWO_PI, tol=1e-11)
        want = 0.5 * (np.cos(forced.times) + np.sin(forced.times))
        assert float(np.max(np.abs(forced.samples[:, 0] - want))) <= 1e-8
        with pytest.raises(Resonance):
            forced_response(lambda t: [[0.0]], lambda t: [1.0], TWO_PI)


def test_criterion_08_block_spectrum():
    with criterion(8, "spec([[A, B], [0, 0]]) = spec(A) + p zeros within "
                      "1e-10 for 20 random pairs"):
        rng = np.random.default_rng(8)
        for _ in range(20):
            r = int(rng.integers(1, 6))
            p = int(rng.integers(1, 6))
            rep = block_spectrum_check(rng.normal(size=(r, r)),
                                       rng.normal(size=(r, p)), tol=1e-10)
            assert rep.passed, f"distance {rep.max_distance:.3g}"


def test_criterion_09_classification_and_probes():
    with criterion(9, "crossings at -1 / +1 / exp(2 pi i 0.18) bracketed to "
                      "1e-6, classified CaseA/B/C, transversality within "
                      "10%, probes find cycle, pair, circle"):
        grid = [np.array([e]) for e in np.linspace(-0.05, 0.05, 12)]
        probe_opts = ProbeOptions(search_radius=0.5, transient=120,
                                  n_samples=64)

        # multiplier through -1: period-two points appear
        flip = make_flip()
        branch = continue_branch(flip.family, flip.seed, [1], grid)
        ana = analyze_branch(flip.family, flip.seed, [1], branch)
        ev = ana.events[0]
        assert ev.kind == CASE_A
        assert abs(ev.eps_critical[0]) <= 1e-6
        assert abs(ev.transversality - TWO_PI) <= 0.1 * TWO_PI
        probe = postcritical_probe(flip.family, flip.seed, [1], branch.frame,
                                   [0.04], ev.kind, probe_opts)
        assert probe.two_cycles, "no 2-cycle found"

        # multiplier through +1: twin fixed points at +-sqrt(eps)
        pitch = make_pitchfork()
        branch = continue_branch(pitch.family, pitch.seed, [1], grid)
        ana = analyze_branch(pitch.family, pitch.seed, [1], branch)
        ev = ana.events[0]
        assert ev.kind == CASE_B
        assert abs(ev.eps_critical[0]) <= 1e-6
        assert abs(ev.transversality - TWO_PI) <= 0.1 * TWO_PI
        probe = postcritical_probe(pitch.family, pitch.seed, [1],
                                   branch.frame, [0.04], ev.kind, probe_opts)
        found = sorted(f.u[0] for f in probe.fixed_points)
        assert len(found) == 2
        for got, want in zip(found, (-0.2, 0.2)):
            assert abs(got - want) <= 0.05 * abs(want)

        # complex pair: invariant circle with square-root radius law
        nei = make_neimark()
        branch = continue_branch(nei.family, nei.seed, [1], grid)
        ana = analyze_branch(nei.family, nei.seed, [1], branch)
        ev = ana.events[0]
        assert ev.kind == CASE_C
        assert abs(ev.eps_critical[0]) <= 1e-6
        assert abs(ev.transversality - TWO_PI) <= 0.1 * TWO_PI
        assert ev.angle == pytest.approx(TWO_PI * 0.18, abs=1e-3)
        eps_vals = [0.02, 0.04, 0.06]
        radii = []
        for e in eps_vals:
            probe = postcritical_probe(nei.family, nei.seed, [1],
                                       branch.frame, [e], ev.kind,
                                       probe_opts)
            assert probe.circle is not None
            radii.append(probe.circle.mean_radius)
        eps_c = float(ev.eps_critical[0])
        scale = float(np.mean([r / math.sqrt(e - eps_c)
                               for r, e in zip(radii, eps_vals)]))
        for r, e in zip(radii, eps_vals):
            law = scale * math.sqrt(e - eps_c)
            assert abs(r - law) <= 0.25 * law


def test_criterion_10_hamiltonian_checks():
    with criterion(10, "oscillator pair: Poisson residual <= 1e-10 at 50 "
                       "samples, all four multipliers within 1e-6 of 1"):
        sysm = make_uncoupled_oscillators()
        pair = sysm.aux
        rng = np.random.default_rng(10)
        worst = max(abs(poisson_bracket(pair, 0, 1, rng.normal(size=4),
                                        np.zeros(2)))
                    for _ in range(50))
        assert worst <= 1e-10
        for alpha in ([1, 0], [0, 1]):
            rep = monodromy_report(sysm.family, sysm.seed, alpha)
            assert rep.full_spectrum.size == 4
            assert float(np.max(np.abs(rep.full_spectrum - 1.0))) <= 1e-6


def test_criterion_11_cli_golden_files(tmp_path):
    with criterion(11, "shipped configs reproduce the stored reports "
                       "exactly; suite within the 5 minute budget"):
        configs = sorted((ROOT / "run_configs").glob("*.json"))
        assert configs, "no shipped configs found"
        for config_path in configs:
            config = load_config(config_path)
            report, code = run_config(config, tmp_path / config_path.stem)
            assert code == 0, f"{config_path.name}: exit {code}"
            got = canonical_json(strip_volatile(report))
            want = (ROOT / "tests" / "golden" / config_path.name).read_text()
            assert got == want, f"{config_path.name}: report drifted"
        assert time.perf_counter() - _SUITE_STARTED <= 300.0
