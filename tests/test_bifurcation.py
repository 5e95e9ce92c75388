"""Multiplier tracking, crossing detection, classification and probes."""

import inspect
import math

import numpy as np
import pytest

from pnk import (CASE_A, CASE_B, CASE_C, DEGENERATE,
                 MatchingAmbiguityWarning, NoConvergence, NothingFound,
                 ProbeOptions, TorusSeed, VectorFieldFamily, analyze_branch,
                 build_section, classify_event, continue_branch,
                 detect_crossings, postcritical_probe, track_multipliers,
                 transversal_map)
from pnk import bifurcation
from pnk.bifurcation import CrossingBracket, MultiplierPaths
from pnk.catalog import make_flip, make_neimark, make_pitchfork
from pnk.cli import run_config
from pnk.config import parse_config

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
        from pnk.continuation import (ContinuationBranch,
                                      ContinuationOptions, NewtonResult)
        eps_vals = [np.array([e]) for e in (0.0, 0.5, 1.0)]
        spectra = [np.array([0.4 + 0j, 0.6 + 0j]),
                   np.array([0.5 + 0j, 0.5 + 1e-14j]),
                   np.array([0.4 + 0j, 0.6 + 0j])]
        pts = [NewtonResult(e, np.zeros(2), None, s, 1.0 - s, 0, 0.0)
               for e, s in zip(eps_vals, spectra)]
        branch = ContinuationBranch(pts, "completed", "", np.array([1]), None,
                                    ContinuationOptions())
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
        assert ev.bracket.eps_hi[0] - ev.bracket.eps_lo[0] <= 1e-6

    def test_no_crossing_empty(self, straight_sys):
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], _grid(0.0, 0.05, 5))
        paths = track_multipliers(branch)
        assert detect_crossings(paths, refine=_never) == []

    def test_two_crossings_in_order(self):
        # two controlled multipliers exp(2 pi (eps - c_i)) crossing at
        # distinct parameters
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

    def test_other_winding_refused(self, flip_branch):
        # the branch's points, frame and options hold for its winding
        # only; at [2] the refiner used to report a spurious CaseB event
        sysm, branch = flip_branch
        with pytest.raises(ValueError, match=r"winding \[2\] is not the "
                                             r"branch's winding \[1\]"):
            analyze_branch(sysm.family, sysm.seed, [2], branch)


class TestIllinoisRefinement:
    """The crossing refiner on synthetic multiplier moduli |mu(eps)|."""

    @staticmethod
    def _refine(modulus, lo=-0.05, hi=0.05):
        calls = []

        def refine(eps):
            calls.append(float(eps[0]))
            return np.array([complex(modulus(eps[0]))])

        paths = MultiplierPaths(
            [np.array([lo]), np.array([hi])],
            np.array([[modulus(lo)], [modulus(hi)]], dtype=complex), [])
        (bracket,) = detect_crossings(paths, refine=refine)
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

    def test_budget_bounds_the_refines(self, monkeypatch):
        monkeypatch.setattr(bifurcation, "MAX_REFINES", 5)
        bracket, calls = self._refine(lambda e: math.exp(200.0 * e))
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


def _never(eps):
    raise AssertionError("refine called without a crossing")


class TestBracketingRules:
    """Which slices detect_crossings brackets, on synthetic paths whose
    refine is analytic."""

    @staticmethod
    def _paths(eps, columns):
        return MultiplierPaths([np.array([e]) for e in eps],
                               np.array(columns, dtype=complex).T, [])

    def test_slice_on_the_circle_is_bracketed_across(self):
        # |mu| = 1 + eps at the slices -0.1, 0, 0.2
        paths = self._paths([-0.1, 0.0, 0.2], [[0.9, 1.0, 1.2]])
        calls = []

        def refine(eps):
            calls.append(float(eps[0]))
            return np.array([1.0 + eps[0]], dtype=complex)

        (bracket,) = detect_crossings(paths, refine=refine)
        assert bracket.eps_lo[0] <= 0.0 <= bracket.eps_hi[0]
        assert bracket.eps_hi[0] - bracket.eps_lo[0] <= 1e-6
        # a bracket no wider than eps_tol gets one refine, at its midpoint:
        # 0.05 for the bracket over both segments
        calls.clear()
        (bracket,) = detect_crossings(paths, refine=refine, eps_tol=1.0)
        assert calls == [pytest.approx(0.05, abs=1e-15)]
        assert bracket.mu_mid == pytest.approx(1.05)
        np.testing.assert_allclose(bracket.spectrum_mid, [1.05])

    def test_tangency_is_not_bracketed(self):
        paths = self._paths([-0.1, 0.0, 0.1], [[0.9, 1.0, 0.9]])
        assert detect_crossings(paths, refine=_never) == []

    def test_conjugate_pair_bracketed_once_from_above(self):
        # the pair r exp(+-0.7i), lower member listed first, r = 1 + eps
        def pair(eps):
            mu = (1.0 + eps) * np.exp(0.7j)
            return np.array([np.conj(mu), mu])

        eps = [-0.1, 0.1]
        paths = self._paths(eps, np.array([pair(e) for e in eps]).T)
        (bracket,) = detect_crossings(paths,
                                      refine=lambda e: pair(float(e[0])))
        for mu in (bracket.mu_lo, bracket.mu_hi, bracket.mu_mid):
            assert mu.imag >= 0.0
        assert abs(bracket.eps_mid[0]) <= 1e-6

    def test_crossings_in_one_segment_in_parameter_order(self):
        # path 0 crosses at 0.03 and path 1 at 0.01, both in [0, 0.05]
        def spectrum(eps):
            return np.array([1.0 + eps - 0.03, 1.0 + eps - 0.01],
                            dtype=complex)

        paths = self._paths([0.0, 0.05], spectrum(np.array([0.0, 0.05])))
        first, second = detect_crossings(
            paths, refine=lambda e: spectrum(float(e[0])))
        assert first.eps_mid[0] == pytest.approx(0.01, abs=1e-6)
        assert second.eps_mid[0] == pytest.approx(0.03, abs=1e-6)


def _scan(tmp_path, system, num, **options):
    """The report of a bifurcate run of a catalog system over
    -0.05..0.05 in ``num`` slices."""
    doc = {"system": {"name": system}, "analysis": "bifurcate",
           "options": {"alpha": [1], **options,
                       "eps_grid": {"start": [-0.05], "stop": [0.05],
                                    "num": num}}}
    report, code = run_config(parse_config(doc), tmp_path)
    assert code == 0
    return report


class TestCrossingScans:
    """Bifurcate runs whose crossing the grid puts on a slice, or inside
    a bracket already narrower than eps_tol."""

    @pytest.mark.parametrize("system, kind", [("flip", CASE_A),
                                              ("neimark", CASE_C)])
    def test_crossing_on_a_slice(self, tmp_path, system, kind):
        # 11 slices put eps = 0, where |mu| = 1, on the grid
        (event,) = _scan(tmp_path, system, 11)["results"]["events"]
        assert event["kind"] == kind
        assert abs(event["eps_critical"][0]) <= 1e-6

    def test_bracket_within_eps_tol_is_refined(self, tmp_path):
        (event,) = _scan(tmp_path, "flip", 12,
                         eps_tol=0.5)["results"]["events"]
        want = 1.0 - math.exp(-0.7 * math.pi)  # |mu| = exp(2 pi (-0.35))
        assert event["split_margin"] == pytest.approx(want, abs=1e-6)

    def test_max_iter_reaches_every_refine(self, tmp_path, monkeypatch):
        from pnk import continuation
        solve = continuation.newton_fixed_point
        signature = inspect.signature(solve)
        budgets = []

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            budgets.append(bound.arguments["max_iter"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(continuation, "newton_fixed_point", spy)
        monkeypatch.setattr(bifurcation, "newton_fixed_point", spy)
        (event,) = _scan(tmp_path, "flip", 12,
                         max_iter=3)["results"]["events"]
        assert event["kind"] == CASE_A
        # 12 slices and the refines of the one crossing
        assert len(budgets) > 12
        assert set(budgets) == {3}


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
                             0.999 * mu, 1.001 * mu, mu_mid=mu,
                             spectrum_mid=np.array([mu, np.conj(mu)]))
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
    # Field evaluations of one probe at eps 0.04: 1,920 values and 1,284
    # jacobians (flip; 3,209 and 2,446 when both P o P seeds were
    # solved), and 949 values (pitchfork).
    def test_flip_probe_work(self, flip_branch, counted_family):
        sysm, branch = flip_branch
        fam, calls = counted_family(sysm.family)
        probe = postcritical_probe(fam, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_A)
        assert calls[0] <= 2400
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
        assert calls[1] <= 1600
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

    @pytest.mark.parametrize("make, eps, radius, match", [
        # the pitchfork's critical multiplier is real
        (make_pitchfork, 0.04, 0.1, "no complex multiplier pair"),
        # before the crossing the orbit spirals into the fixed point
        (make_neimark, -0.05, 0.1, "collapsed onto the fixed point"),
        # the circle of radius 0.2 lies beyond 5 search radii
        (make_neimark, 0.04, 0.01, "escaped the search region"),
    ])
    def test_circle_probe_refusals(self, make, eps, radius, match):
        sysm = make()
        frame = build_section(sysm.family, sysm.seed)
        with pytest.raises(NothingFound, match=match):
            postcritical_probe(sysm.family, sysm.seed, [1], frame, [eps],
                               CASE_C, ProbeOptions(search_radius=radius,
                                                    transient=120,
                                                    n_samples=64))

    @pytest.mark.xfail(strict=True, raises=NothingFound, reason=(
        "ROADMAP item 3: the cubic fit through +-search_radius puts its "
        "one seed at s = 0.0174, Newton carries it back onto u0, and the "
        "probe excludes that find as not new"))
    def test_transcritical_torus_found(self):
        # phi' = 1, u' = eps u - u^2: the flat torus u = 0 meets the torus
        # u = eps at eps = 0, so at 0.04 there is a fixed point P(0.04) = 0.04
        def value(x, eps):
            return np.array([1.0, eps[0] * x[1] - x[1] ** 2])

        def jacobian(x, eps):
            return np.array([[0.0, 0.0], [0.0, eps[0] - 2.0 * x[1]]])

        fam = VectorFieldFamily(2, 1, 1, [value], [jacobian])
        seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0]), [-0.05],
                         angle_coords=(0,))
        frame = build_section(fam, seed)
        probe = postcritical_probe(fam, seed, [1], frame, [0.04], CASE_B,
                                   ProbeOptions(search_radius=0.1))
        assert len(probe.fixed_points) == 1
        np.testing.assert_allclose(probe.fixed_points[0].u, [0.04], rtol=0,
                                   atol=1e-8)

    @pytest.mark.parametrize("option, opts", [
        ("transient", ProbeOptions(transient=-5)),
        ("n_samples", ProbeOptions(n_samples=0)),
        ("n_samples", ProbeOptions(n_samples=3)),
        ("n_samples", ProbeOptions(n_samples=8)),
        ("transient", ProbeOptions(transient=2.5)),
        ("n_samples", ProbeOptions(n_samples=9.5)),
    ], ids=["transient-negative", "samples-zero", "samples-below-order",
            "samples-one-short", "transient-fraction", "samples-fraction"])
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

    @pytest.mark.parametrize("branch_name", ["flip_branch", "neimark_branch"])
    def test_degenerate_probe(self, request, branch_name):
        # a degenerate crossing runs the seeds on the real critical
        # multiplier and the circle fit on a complex pair, whichever L has
        sysm, branch = request.getfixturevalue(branch_name)
        opts = (ProbeOptions(transient=120, n_samples=64)
                if branch_name == "neimark_branch" else None)
        probe = postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                                   [0.04], DEGENERATE, opts)
        assert not probe.fixed_points
        if branch_name == "flip_branch":
            assert len(probe.two_cycles) == 1
            amp = sorted(abs(pt[0]) for pt in probe.two_cycles[0].points)
            np.testing.assert_allclose(amp, [0.2, 0.2], rtol=0.05)
            assert probe.circle is None
        else:
            assert not probe.two_cycles
            assert probe.circle.mean_radius == pytest.approx(0.2, rel=0.05)

    def test_seed_amplitudes_closed_form(self):
        # g(s) = (lam - 1) s + q s^2 + c s^3 through g(+-h): the nonzero
        # roots of 0.02 + 0.1 s - s^2 are s = 0.2 and s = -0.1
        lam, q, c, h = 1.02, 0.1, -1.0, 0.5

        def g(s):
            return (lam - 1.0) * s + q * s ** 2 + c * s ** 3

        got = bifurcation._seed_amplitudes(lam, g(h), g(-h), h)
        np.testing.assert_allclose(got, [0.2, -0.1], rtol=0, atol=1e-12)

    @staticmethod
    def _patch_seeds(monkeypatch, change):
        """Let the seed fit return change(amplitudes) for the amplitudes
        it fits; returns the list of the counts it fitted."""
        fit = bifurcation._seed_amplitudes
        fitted = []

        def patched(*args):
            amplitudes = fit(*args)
            fitted.append(len(amplitudes))
            return change(amplitudes)
        monkeypatch.setattr(bifurcation, "_seed_amplitudes", patched)
        return fitted

    def test_failed_newton_start_adds_no_find(self, pitchfork_branch,
                                              monkeypatch):
        # from 1e200 the map's flow leaves the finite chart: a failed start
        sysm, branch = pitchfork_branch
        fitted = self._patch_seeds(monkeypatch,
                                   lambda found: [1e200] + found)
        probe = postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_B)
        assert fitted == [2]
        found = sorted(f.u[0] for f in probe.fixed_points)
        np.testing.assert_allclose(found, [-0.2, 0.2], rtol=0.05)
        assert "2 non-trivial fixed point(s)" in probe.notes
        assert "from 3 normal-form seed(s)" in probe.notes

    def test_repeated_seed_gives_one_find(self, pitchfork_branch,
                                          monkeypatch):
        sysm, branch = pitchfork_branch
        self._patch_seeds(monkeypatch, lambda found: found[:1] * 2)
        probe = postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_B)
        assert len(probe.fixed_points) == 1
        assert probe.fixed_points[0].u[0] == pytest.approx(0.2, rel=0.05)
        assert "from 2 normal-form seed(s)" in probe.notes

    def test_two_cycle_seed_back_at_the_fixed_point(self, flip_branch,
                                                    monkeypatch):
        # Newton on P o P from 1e-3 along v returns to u0, which P fixes:
        # that solve is no 2-cycle, and only the fitted seeds find one
        sysm, branch = flip_branch
        fitted = self._patch_seeds(monkeypatch, lambda found: [1e-3] + found)
        probe = postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_A)
        assert len(probe.two_cycles) == 1
        amp = sorted(abs(pt[0]) for pt in probe.two_cycles[0].points)
        np.testing.assert_allclose(amp, [0.2, 0.2], rtol=0.05)
        assert not probe.fixed_points
        assert f"from {fitted[0] + 1} normal-form seed(s)" in probe.notes

    @staticmethod
    def _spy_solves(monkeypatch, fail_first_cycle_start=False):
        """Record the winding of every Newton solve of the probe; returns
        the list of windings. With ``fail_first_cycle_start``, the first
        solve at winding 2 raises NoConvergence instead."""
        from pnk import continuation
        solve = continuation.newton_fixed_point
        windings = []

        def spy(family, seed, alpha, *args, **kwargs):
            winding = int(np.asarray(alpha)[0])
            windings.append(winding)
            if fail_first_cycle_start and winding == 2 \
                    and windings.count(2) == 1:
                raise NoConvergence("first 2-cycle start made to fail")
            return solve(family, seed, alpha, *args, **kwargs)
        monkeypatch.setattr(bifurcation, "newton_fixed_point", spy)
        return windings

    def test_flip_probe_solves_one_cycle_start(self, flip_branch,
                                               pitchfork_branch,
                                               monkeypatch):
        # past a flip the map has one 2-cycle, and both nonzero roots of
        # the fitted P o P cubic are its points: once the first start has
        # filed it, the second is not solved
        sysm, branch = flip_branch
        for eps, radius in [(0.001, 0.3), (0.01, 0.3), (0.04, 0.5),
                            (0.1, 0.5)]:
            windings = self._spy_solves(monkeypatch)
            probe = postcritical_probe(sysm.family, sysm.seed, [1],
                                       branch.frame, [eps], CASE_A,
                                       ProbeOptions(search_radius=radius))
            assert windings.count(2) == 1, (eps, windings)
            assert "from 2 normal-form seed(s)" in probe.notes
            assert len(probe.two_cycles) == 1
            points = sorted(tuple(pt) for pt in probe.two_cycles[0].points)
            root = math.sqrt(eps)
            np.testing.assert_allclose(points, [[-root, 0.0], [root, 0.0]],
                                       rtol=0, atol=1e-8)
        # twin fixed points are two objects: a pitchfork solves both seeds
        sysm, branch = pitchfork_branch
        windings = self._spy_solves(monkeypatch)
        probe = postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_B)
        assert windings == [1, 1, 1]  # u0, then one solve per seed
        assert len(probe.fixed_points) == 2

    def test_failed_cycle_start_hands_over(self, flip_branch, monkeypatch):
        sysm, branch = flip_branch
        windings = self._spy_solves(monkeypatch, fail_first_cycle_start=True)
        probe = postcritical_probe(sysm.family, sysm.seed, [1], branch.frame,
                                   [0.04], CASE_A)
        assert windings.count(2) == 2
        assert len(probe.two_cycles) == 1
        points = sorted(pt[0] for pt in probe.two_cycles[0].points)
        np.testing.assert_allclose(points, [-0.2, 0.2], rtol=1e-6)
        assert not probe.fixed_points

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
