"""Multiplier tracking, crossing detection, classification and probes."""

import math

import numpy as np
import pytest

from pnk import (CASE_A, CASE_B, CASE_C, MatchingAmbiguityWarning,
                 NothingFound, ProbeOptions, analyze_branch, build_section,
                 classify_event, continue_branch, detect_crossings,
                 postcritical_probe, track_multipliers, transversal_map)
from pnk import bifurcation
from pnk.bifurcation import CrossingBracket, MultiplierPaths
from pnk.catalog import make_flip, make_neimark, make_pitchfork

TWO_PI = 2.0 * math.pi


def _grid(lo, hi, num):
    return [np.array([e]) for e in np.linspace(lo, hi, num)]


@pytest.fixture(scope="module")
def pitchfork_branch():
    sysm = make_pitchfork()
    branch = continue_branch(sysm.family, sysm.seed, [1],
                             _grid(-0.05, 0.05, 12))
    return sysm, branch


@pytest.fixture(scope="module")
def flip_branch():
    sysm = make_flip()
    branch = continue_branch(sysm.family, sysm.seed, [1],
                             _grid(-0.05, 0.05, 12))
    return sysm, branch


@pytest.fixture(scope="module")
def neimark_branch():
    sysm = make_neimark()
    branch = continue_branch(sysm.family, sysm.seed, [1],
                             _grid(-0.05, 0.05, 12))
    return sysm, branch


class TestTrackMultipliers:
    def test_constant_spectrum_constant_paths(self, straight_sys):
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], _grid(0.0, 0.05, 5))
        paths = track_multipliers(branch)
        spread = np.max(np.abs(paths.paths - paths.paths[0]))
        assert spread <= 1e-9

    def test_single_real_path_increases(self, pitchfork_branch):
        _, branch = pitchfork_branch
        paths = track_multipliers(branch)
        mods = np.abs(paths.paths[:, 0])
        assert np.all(np.diff(mods) > 0)
        want = np.exp(TWO_PI * np.array([e[0] for e in paths.eps_values]))
        np.testing.assert_allclose(mods, want, rtol=1e-8)

    def test_conjugate_symmetric_paths(self, neimark_branch):
        _, branch = neimark_branch
        paths = track_multipliers(branch)
        np.testing.assert_allclose(paths.paths[:, 0],
                                   np.conj(paths.paths[:, 1]), atol=1e-9)

    def test_tie_reported_for_crossing_real_pair(self):
        # two real multipliers that meet and swap order triggers a tie
        from pnk.continuation import BranchPoint, ContinuationBranch
        eps_vals = [np.array([e]) for e in (0.0, 0.5, 1.0)]
        spectra = [np.array([0.4 + 0j, 0.6 + 0j]),
                   np.array([0.5 + 0j, 0.5 + 1e-14j]),
                   np.array([0.4 + 0j, 0.6 + 0j])]
        pts = [BranchPoint(e, np.zeros(2), s, 1.0 - s, 0, 0.0, 1.0, 1.0)
               for e, s in zip(eps_vals, spectra)]
        branch = ContinuationBranch(pts, "completed", "", np.array([1]), None)
        with pytest.warns(MatchingAmbiguityWarning):
            paths = track_multipliers(branch)
        assert paths.ambiguous_steps

    def test_short_branch_rejected(self, straight_sys):
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], [np.zeros(1)])
        with pytest.raises(ValueError):
            track_multipliers(branch)


class TestDetectCrossings:
    def test_exponential_path_bracketed_at_zero(self, pitchfork_branch):
        sysm, branch = pitchfork_branch
        analysis = analyze_branch(sysm.family, sysm.seed, [1], branch)
        assert len(analysis.events) == 1
        ev = analysis.events[0]
        assert abs(ev.eps_critical[0]) <= 1e-6
        assert ev.bracket.refined

    def test_no_crossing_empty(self, straight_sys):
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], _grid(0.0, 0.05, 5))
        paths = track_multipliers(branch)
        assert detect_crossings(paths) == []

    def test_two_crossings_in_order(self):
        # two controlled multipliers exp(2 pi (eps - c_i)) crossing at
        # distinct parameters
        from pnk import TorusSeed, VectorFieldFamily

        def value(x, eps):
            return np.array([1.0, (eps[0] - 0.01) * x[1],
                             (eps[0] - 0.03) * x[2]])

        def jac(x, eps):
            return np.diag([0.0, eps[0] - 0.01, eps[0] - 0.03])

        fam = VectorFieldFamily(3, 1, 1, [value], [jac],
                                [lambda x, e: np.array([[0.0], [x[1]],
                                                        [x[2]]])])
        seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0, 0.0]),
                         np.zeros(1), angle_coords=(0,))
        branch = continue_branch(fam, seed, [1], _grid(0.0, 0.05, 9))
        analysis = analyze_branch(fam, seed, [1], branch)
        assert len(analysis.events) == 2
        assert analysis.events[0].eps_critical[0] == pytest.approx(0.01,
                                                                   abs=1e-6)
        assert analysis.events[1].eps_critical[0] == pytest.approx(0.03,
                                                                   abs=1e-6)


class TestIllinoisRefinement:
    """The crossing refiner on synthetic multiplier moduli |mu(eps)|."""

    @staticmethod
    def _refine(modulus, lo=-0.05, hi=0.05, **kwargs):
        calls = []

        def refine(eps):
            calls.append(float(eps[0]))
            return np.array([complex(modulus(eps[0]))])

        paths = MultiplierPaths(
            [np.array([lo]), np.array([hi])],
            np.array([[modulus(lo)], [modulus(hi)]], dtype=complex), [])
        (bracket,) = detect_crossings(paths, refine=refine, **kwargs)
        return bracket, calls

    def test_point_exactly_on_the_circle(self):
        # the first regula falsi point is the root itself: phi = 0 there
        bracket, calls = self._refine(lambda e: 1.0 + e)
        assert calls[0] == 0.0
        assert bracket.eps_lo[0] <= 0.0 <= bracket.eps_hi[0]
        assert bracket.eps_hi[0] - bracket.eps_lo[0] <= 1e-6
        assert len(calls) <= 80

    @pytest.mark.parametrize("rate", [200.0, -200.0])
    def test_steep_one_sided_phi(self, rate):
        # |mu| = exp(rate eps): phi is -1 on one side of the root and
        # climbs to e^10 - 1 on the other, so plain regula falsi creeps in
        # eps_tol/2 steps from the flat end and does not close the bracket
        # within the budget
        bracket, calls = self._refine(lambda e: math.exp(rate * e))
        assert bracket.eps_lo[0] <= 0.0 <= bracket.eps_hi[0]
        assert bracket.eps_hi[0] - bracket.eps_lo[0] <= 1e-6
        assert len(calls) <= 80

    def test_budget_bounds_the_refines(self):
        bracket, calls = self._refine(lambda e: math.exp(200.0 * e),
                                      max_bisect=5)
        assert len(calls) == 5
        assert bracket.eps_lo[0] <= 0.0 <= bracket.eps_hi[0]

    @pytest.mark.parametrize("branch_name", [
        "flip_branch", "pitchfork_branch", "neimark_branch"])
    def test_refines_per_crossing(self, request, monkeypatch, branch_name):
        # 4 refines per crossing on the 12-slice grid (bisection took 14)
        sysm, branch = request.getfixturevalue(branch_name)
        calls = []
        detect = bifurcation.detect_crossings

        def counting(paths, circle_tol, refine=None, **kwargs):
            def counted(eps):
                calls.append(eps)
                return refine(eps)
            return detect(paths, circle_tol, refine=counted, **kwargs)

        monkeypatch.setattr(bifurcation, "detect_crossings", counting)
        analysis = analyze_branch(sysm.family, sysm.seed, [1], branch,
                                  eps_tol=1e-6)
        assert len(analysis.events) == 1
        assert len(calls) <= 6
        assert abs(analysis.events[0].eps_critical[0]) <= 1e-6


class TestClassifyEvent:
    def test_flip_is_case_a(self, flip_branch):
        sysm, branch = flip_branch
        analysis = analyze_branch(sysm.family, sysm.seed, [1], branch)
        ev = analysis.events[0]
        assert ev.kind == CASE_A
        assert abs(ev.eps_critical[0]) <= 1e-6
        assert ev.transversality == pytest.approx(TWO_PI, rel=0.1)
        want_split = abs(math.exp(TWO_PI * -0.35) - 1.0)
        assert ev.split_margin == pytest.approx(want_split, rel=1e-2)

    def test_pitchfork_is_case_b(self, pitchfork_branch):
        sysm, branch = pitchfork_branch
        analysis = analyze_branch(sysm.family, sysm.seed, [1], branch)
        ev = analysis.events[0]
        assert ev.kind == CASE_B
        assert ev.transversality == pytest.approx(TWO_PI, rel=0.1)

    def test_neimark_is_case_c(self, neimark_branch):
        sysm, branch = neimark_branch
        analysis = analyze_branch(sysm.family, sysm.seed, [1], branch)
        ev = analysis.events[0]
        assert ev.kind == CASE_C
        assert len(ev.critical_multipliers) == 2
        assert ev.angle == pytest.approx(TWO_PI * 0.18, abs=1e-4)
        assert not ev.resonant_warning

    def test_resonant_rotation_flagged(self):
        mu = complex(math.cos(TWO_PI / 5), math.sin(TWO_PI / 5))
        br = CrossingBracket(np.array([-1e-7]), np.array([1e-7]),
                             0.999 * mu, 1.001 * mu, mu_mid=mu)
        ev = classify_event(br)
        assert ev.kind == CASE_C
        assert ev.resonant_warning

    def test_degenerate_double_crossing(self):
        # two independent real criticals at the same parameter
        spec = np.array([1.0 + 0j, -1.0 + 0j, 0.3 + 0j])
        br = CrossingBracket(np.array([-1e-7]), np.array([1e-7]),
                             0.9999, 1.0001, mu_mid=1.0 + 0j,
                             spectrum_mid=spec)
        ev = classify_event(br)
        assert ev.kind == "Degenerate"


class TestPostcriticalProbe:
    # Field evaluations of one probe at eps 0.04. The normal-form seeds
    # take 3,651 (flip) and 949 (pitchfork); the star alone took 37,537
    # and 5,209, most of its solves finding the base point again.
    def test_flip_probe_work(self, flip_branch, counted_family):
        sysm, branch = flip_branch
        fam, calls = counted_family(sysm.family)
        probe = postcritical_probe(fam, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_A)
        assert calls[0] <= 7500
        assert len(probe.two_cycles) == 1
        amp = sorted(abs(pt[0]) for pt in probe.two_cycles[0].points)
        np.testing.assert_allclose(amp, [0.2, 0.2], rtol=0.05)
        assert not probe.fixed_points

    def test_flip_probe_jacobian_work(self, flip_branch, counted_family):
        # P o P is one map at winding 2 with its own jacobian, not two
        # chained maps: 2,826 jacobian calls when it was composed
        sysm, branch = flip_branch
        fam, calls = counted_family(sysm.family)
        probe = postcritical_probe(fam, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_A)
        assert calls[1] <= 2600
        assert len(probe.two_cycles) == 1

    def test_neimark_circle_probe_work(self, neimark_branch, counted_family):
        # the orbit comes from one loop-flow run, not one run per iterate
        # (13,680 field calls then)
        sysm, branch = neimark_branch
        fam, calls = counted_family(sysm.family)
        probe = postcritical_probe(fam, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_C,
                                   ProbeOptions(transient=120, n_samples=64))
        assert calls[0] <= 8000
        np.testing.assert_allclose(probe.circle.radii, 0.2, rtol=1e-6)

    @pytest.mark.parametrize("eps", [0.04, -0.04])
    def test_escaping_circle_orbit_finds_nothing(self, eps):
        # subcritical: past the crossing the base point repels with no
        # circle; before it, the start lies outside the repelling circle
        sysm = make_neimark(damping=-1.0)
        frame = build_section(sysm.family, sysm.seed)
        with pytest.raises(NothingFound, match="escaped"):
            postcritical_probe(sysm.family, sysm.seed, [1], frame, [eps],
                               CASE_C,
                               ProbeOptions(transient=120, n_samples=64))

    @pytest.mark.parametrize("option, opts", [
        ("transient", ProbeOptions(transient=-5)),
        ("fourier_order", ProbeOptions(fourier_order=-1)),
        ("n_samples", ProbeOptions(n_samples=0)),
        ("n_samples", ProbeOptions(n_samples=3, fourier_order=4)),
        ("n_samples", ProbeOptions(n_samples=8, fourier_order=4)),
    ], ids=["transient-negative", "order-negative", "samples-zero",
            "samples-below-order", "samples-one-short"])
    def test_orbit_sampling_options_checked(self, neimark_branch, option,
                                            opts):
        sysm, branch = neimark_branch
        with pytest.raises(ValueError, match=option):
            postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                               [0.04], CASE_C, opts)

    def test_pitchfork_probe_work(self, pitchfork_branch, counted_family):
        sysm, branch = pitchfork_branch
        fam, calls = counted_family(sysm.family)
        probe = postcritical_probe(fam, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_B)
        assert calls[0] <= 2000
        found = sorted(f.u[0] for f in probe.fixed_points)
        np.testing.assert_allclose(found, [-0.2, 0.2], rtol=0.05)
        assert not probe.two_cycles

    def test_pitchfork_pair_amplitude(self, pitchfork_branch):
        sysm, branch = pitchfork_branch
        frame = branch.frame
        probe = postcritical_probe(sysm.family, sysm.seed, [1], frame,
                                   [0.04], CASE_B)
        found = sorted(f.u[0] for f in probe.fixed_points)
        assert len(found) == 2
        np.testing.assert_allclose(found, [-0.2, 0.2], rtol=0.05)
        assert not probe.two_cycles

    def test_flip_two_cycle(self, flip_branch):
        sysm, branch = flip_branch
        probe = postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_A)
        assert len(probe.two_cycles) == 1
        cyc = probe.two_cycles[0]
        amp = sorted(abs(pt[0]) for pt in cyc.points)
        np.testing.assert_allclose(amp, [0.2, 0.2], rtol=0.05)
        np.testing.assert_allclose(cyc.points[0][0], -cyc.points[1][0],
                                   rtol=1e-6)
        assert not probe.fixed_points

    def test_neimark_circle_radius(self, neimark_branch):
        sysm, branch = neimark_branch
        probe = postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_C,
                                   ProbeOptions(transient=120, n_samples=64))
        assert probe.circle is not None
        assert probe.circle.mean_radius == pytest.approx(0.2, rel=0.05)
        assert probe.circle.fit_residual <= 1e-6

    def test_circle_radius_follows_square_root_law(self, neimark_branch):
        sysm, branch = neimark_branch
        radii = []
        eps_vals = [0.02, 0.04, 0.06]
        for e in eps_vals:
            probe = postcritical_probe(
                sysm.family, sysm.seed, [1], branch.frame, [e], CASE_C,
                ProbeOptions(transient=120, n_samples=48))
            radii.append(probe.circle.mean_radius)
        scale = float(np.mean([r / math.sqrt(e)
                               for r, e in zip(radii, eps_vals)]))
        for r, e in zip(radii, eps_vals):
            assert r == pytest.approx(scale * math.sqrt(e), rel=0.25)

    def test_findings_reverify_under_map(self, pitchfork_branch):
        sysm, branch = pitchfork_branch
        frame = branch.frame
        probe = postcritical_probe(sysm.family, sysm.seed, [1], frame,
                                   [0.04], CASE_B)
        for f in probe.fixed_points:
            out = transversal_map(sysm.family, frame, [1], f.u,
                                  eps=[0.04], tol=1e-10).u
            assert np.max(np.abs(out - f.u)) <= 1e-8

    def test_nothing_found_before_crossing(self, pitchfork_branch):
        sysm, branch = pitchfork_branch
        with pytest.raises(NothingFound):
            postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                               [-0.04], CASE_B,
                               ProbeOptions(search_radius=0.3))

    @pytest.mark.parametrize("radius", [0.0, -0.5])
    def test_search_radius_must_be_positive(self, pitchfork_branch, radius):
        sysm, branch = pitchfork_branch
        with pytest.raises(ValueError, match="search_radius"):
            postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                               [0.04], CASE_B,
                               ProbeOptions(search_radius=radius))

    def test_tiny_search_radius_finds_nothing(self, pitchfork_branch):
        # the seed fit divides by powers of the radius: none may underflow
        sysm, branch = pitchfork_branch
        with pytest.raises(NothingFound):
            postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                               [0.04], CASE_B,
                               ProbeOptions(search_radius=4e-143))

    def test_transversality_sign_decides_probe_side(self, pitchfork_branch):
        sysm, branch = pitchfork_branch
        analysis = analyze_branch(sysm.family, sysm.seed, [1], branch,
                                  probe_offsets=[0.04])
        assert analysis.probes
        idx, probe = analysis.probes[0]
        assert probe.eps_post[0] == pytest.approx(0.04, abs=1e-5)
        assert len(probe.fixed_points) == 2
