"""Hyperbolicity margins, Newton correctors, branch continuation, torus
reconstruction and the isolation criterion."""

import math

import numpy as np
import pytest

from pnk import (ContinuationOptions, NoConvergence, NothingFound, OpenTorus,
                 NewtonResult, SingularJacobian, build_section,
                 continue_branch, newton_fixed_point, postcritical_probe,
                 reconstruct_torus, transversal_map)
from pnk.catalog import StraightenedSpec, make_hopf, make_straightened
from pnk.cli import ISOLATION_TOL
from pnk.continuation import predict_fixed_point
from pnk.spectra import margins

TWO_PI = 2.0 * math.pi


def _margins(ell):
    """The margins of the spectrum of the matrix ell."""
    return margins(np.linalg.eigvals(np.asarray(ell, dtype=float)))


class TestHyperbolicityReport:
    # spectra.margins: the distances of a transversal spectrum from 1 and
    # from the unit circle
    def test_zero_matrix(self):
        assert _margins(np.zeros((3, 3))) == pytest.approx((1.0, 1.0))

    def test_unit_eigenvalue_not_invertible(self):
        dist_one, _ = _margins(np.diag([1.0, 0.3]))
        assert dist_one == pytest.approx(0.0, abs=1e-14)

    def test_hopf_margin(self):
        lam = math.exp(-0.4 * math.pi)
        assert _margins([[lam]]) == pytest.approx((1.0 - lam, 1.0 - lam),
                                                  rel=1e-12)

    def test_corrector_eigenvalues_are_one_minus_lambda(self, rng):
        # the distance from 1 is the smallest eigenvalue modulus of I - L
        ell = rng.normal(size=(4, 4))
        beta = np.linalg.eigvals(np.eye(4) - ell)
        assert _margins(ell)[0] == pytest.approx(float(np.min(np.abs(beta))),
                                                 rel=1e-10)

    def test_empty_spectrum(self):
        assert margins(np.zeros(0, dtype=complex)) == (math.inf, math.inf)


class TestIsolationCheck:
    # a torus is isolated when no multiplier is within ISOLATION_TOL of
    # the unit circle
    def test_hyperbolic_isolated(self):
        assert _margins(np.diag([0.5, 2.0]))[1] > ISOLATION_TOL

    def test_rotation_not_isolated(self):
        th = math.pi / 4
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        assert _margins(rot)[1] <= ISOLATION_TOL

    def test_hopf_isolated(self):
        lam = math.exp(-0.4 * math.pi)
        assert _margins([[lam]])[1] > ISOLATION_TOL


class TestNewtonFixedPoint:
    def test_seed_torus_needs_zero_iterations(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        nr = newton_fixed_point(straight_sys.family, straight_sys.seed,
                                [1, 0], frame, [0.0], np.zeros(2))
        assert nr.iterations == 0
        np.testing.assert_allclose(nr.u, 0.0, atol=1e-12)

    def test_exact_catalog_torus_recovered(self, straight_sys, straight_spec):
        frame = build_section(straight_sys.family, straight_sys.seed)
        eps = np.array([0.08])
        nr = newton_fixed_point(straight_sys.family, straight_sys.seed,
                                [1, 0], frame, eps, np.zeros(2))
        np.testing.assert_allclose(nr.u, -straight_spec.C @ eps, atol=1e-9)

    def test_far_guess_converges_on_affine_map(self, straight_sys):
        # contracting directions make Newton on the affine map one-shot
        spec = StraightenedSpec((np.diag([-0.3, -0.5]), np.diag([-0.2, -0.1])),
                                np.array([[0.5], [0.25]]))
        sysm = make_straightened(spec)
        frame = build_section(sysm.family, sysm.seed)
        guess = np.array([0.5, -0.5])  # far beyond the trust radius
        nr = newton_fixed_point(sysm.family, sysm.seed, [1, 0], frame,
                                [0.05], guess)
        np.testing.assert_allclose(nr.u, -spec.C @ np.array([0.05]),
                                   atol=1e-9)
        assert nr.iterations <= 2

    def test_uniqueness_from_distinct_guesses(self, straight_cubic_sys):
        frame = build_section(straight_cubic_sys.family,
                              straight_cubic_sys.seed)
        eps = np.array([0.06])
        a = newton_fixed_point(straight_cubic_sys.family,
                               straight_cubic_sys.seed, [1, 0], frame, eps,
                               np.array([0.02, 0.02]))
        b = newton_fixed_point(straight_cubic_sys.family,
                               straight_cubic_sys.seed, [1, 0], frame, eps,
                               np.array([-0.03, 0.01]))
        np.testing.assert_allclose(a.u, b.u, atol=1e-9)

    def test_exhausted_budget_raises(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        with pytest.raises(NoConvergence) as info:
            newton_fixed_point(straight_sys.family, straight_sys.seed,
                               [1, 0], frame, [0.08], np.zeros(2),
                               max_iter=0)
        image = transversal_map(straight_sys.family, frame, [1, 0],
                                np.zeros(2), [0.08]).u
        assert info.value.iterations == 0
        assert info.value.residual == pytest.approx(np.max(np.abs(image)),
                                                    rel=1e-9)
        assert info.value.residual > 1e-10
        assert NoConvergence("elsewhere").iterations is None
        assert NoConvergence("elsewhere").residual is None

    def test_jacobian_spectrum_relation(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        nr = newton_fixed_point(straight_sys.family, straight_sys.seed,
                                [1, 1], frame, [0.05], np.zeros(2))
        from pnk.spectra import match_distance
        assert match_distance(nr.jacobian_spectrum, 1.0 - nr.spectrum) <= 1e-8


class TestContinueBranch:
    def test_straightened_branch_closed_form(self, straight_sys,
                                             straight_spec):
        path = [np.array([e]) for e in np.linspace(0.0, 0.1, 11)]
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], path)
        assert branch.status == "completed"
        assert len(branch.points) == 11
        for pt in branch.points:
            np.testing.assert_allclose(pt.u, -straight_spec.C @ pt.eps,
                                       atol=1e-10)
            assert pt.residual <= 1e-10

    def test_branch_points_reverify_under_map(self, straight_cubic_sys):
        path = [np.array([e]) for e in np.linspace(0.0, 0.08, 5)]
        branch = continue_branch(straight_cubic_sys.family,
                                 straight_cubic_sys.seed, [1, 0], path)
        for pt in branch.points:
            out = transversal_map(straight_cubic_sys.family, branch.frame,
                                  [1, 0], pt.u, pt.eps)
            assert np.max(np.abs(out.u - pt.u)) <= 1e-9

    def test_stop_at_critical_margin(self):
        # an eigenvalue of exp(2 pi a(eps)) driven through 1 at eps = 0.05
        from pnk import VectorFieldFamily, TorusSeed

        def value(x, eps):
            return np.array([1.0, (eps[0] - 0.05) * x[1]])

        def jac(x, eps):
            return np.array([[0.0, 0.0], [0.0, eps[0] - 0.05]])

        fam = VectorFieldFamily(2, 1, 1, [value], [jac],
                                [lambda x, e: np.array([[0.0], [x[1]]])])
        seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0]),
                         np.zeros(1), angle_coords=(0,))
        path = [np.array([e]) for e in np.linspace(0.0, 0.1, 5)]
        branch = continue_branch(fam, seed, [1], path,
                                 ContinuationOptions(delta_min=1e-6))
        assert branch.status == "stopped_at_critical"
        # stops exactly when eps hits 0.05 (multiplier 1)
        assert branch.points[-1].eps[0] == pytest.approx(0.05)

    def test_single_point_path(self, straight_sys):
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], [np.zeros(1)])
        assert branch.status == "completed"
        assert len(branch.points) == 1

    def test_branch_keeps_the_checked_winding(self, straight_sys):
        fam, seed = straight_sys.family, straight_sys.seed
        branch = continue_branch(fam, seed, np.array([1, 0], dtype=np.uint8),
                                 [np.zeros(1)])
        assert branch.alpha.dtype == np.int64
        assert branch.alpha.tolist() == [1, 0]
        # a float winding and one of the wrong length are refused
        for alpha in ([1.0, 0.0], [1]):
            with pytest.raises(ValueError, match="winding"):
                continue_branch(fam, seed, alpha, [np.zeros(1)])

    def test_path_must_start_at_seed(self, straight_sys):
        with pytest.raises(ValueError):
            continue_branch(straight_sys.family, straight_sys.seed, [1, 0],
                            [np.array([0.01])])

    def test_neighboring_tori_are_close(self, straight_sys):
        path = [np.array([e]) for e in np.linspace(0.0, 0.06, 4)]
        branch = continue_branch(straight_sys.family, straight_sys.seed,
                                 [1, 0], path)
        gaps = [np.linalg.norm(a.u - b.u)
                for a, b in zip(branch.points, branch.points[1:])]
        steps = [np.linalg.norm(a.eps - b.eps)
                 for a, b in zip(branch.points, branch.points[1:])]
        for gap, step in zip(gaps, steps):
            assert gap <= 2.0 * step  # O(step) smoothness of the branch


    def test_repeated_grid_parameter(self, hopf_sys):
        # repeated values leave fewer distinct points for the predictor;
        # a constant path must not divide by a zero arclength either
        values = [0.1, 0.11, 0.11, 0.12, 0.12, 0.12, 0.13]
        for path in ([np.array([e]) for e in values], [np.array([0.1])] * 4):
            branch = continue_branch(hopf_sys.family, hopf_sys.seed, [1],
                                     path)
            assert branch.status == "completed"
            assert len(branch.points) == len(path)
            for pt in branch.points:
                np.testing.assert_allclose(
                    pt.u, hopf_sys.oracle.fixed_u(pt.eps), atol=1e-9)


class TestPredictFixedPoint:
    @staticmethod
    def _points(eps_values, u_of):
        return [NewtonResult(np.array([e]), np.atleast_1d(u_of(e)), None,
                             None, None, 0, 0.0) for e in eps_values]

    def test_exact_on_quadratic_branch(self):
        # three points fit a quadratic in arclength: ahead, behind and
        # between the points, on a path that runs toward smaller eps
        def u_of(e):
            return np.array([1.0 - 2.0 * e + 3.0 * e * e, 0.5 * e])

        pts = self._points([0.3, 0.2, 0.05], u_of)
        for eps in (-0.1, 0.0, 0.12, 0.25, 0.4):
            np.testing.assert_allclose(predict_fixed_point(pts, [eps]),
                                       u_of(eps), atol=1e-12)

    def test_fewer_points_and_repeats(self):
        def u_of(e):
            return 2.0 + e * e

        one = self._points([0.1], u_of)
        np.testing.assert_array_equal(predict_fixed_point(one, [0.5]),
                                      u_of(0.1))
        # the repeated parameter counts once: linear through 0.1 and 0.2
        two = self._points([0.1, 0.2, 0.2], u_of)
        want = u_of(0.2) + (u_of(0.2) - u_of(0.1))
        np.testing.assert_allclose(predict_fixed_point(two, [0.3]), want,
                                   atol=1e-14)
        same = self._points([0.2, 0.2, 0.2], u_of)
        np.testing.assert_array_equal(predict_fixed_point(same, [0.2]),
                                      u_of(0.2))


class TestContinuationWork:
    def test_hopf_branch_newton_iterations(self, hopf_sys):
        # 41 slices of the Hopf branch: the quadratic predictor leaves
        # about one Newton step per slice (44 in all; the secant needed 80)
        path = [np.array([e]) for e in np.linspace(0.1, 0.3, 41)]
        branch = continue_branch(hopf_sys.family, hopf_sys.seed, [1], path)
        assert branch.status == "completed"
        assert len(branch.points) == 41
        assert sum(pt.iterations for pt in branch.points) <= 50
        for pt in branch.points:
            np.testing.assert_allclose(
                pt.u, hopf_sys.oracle.fixed_u(pt.eps), atol=1e-8)


class TestReconstructTorus:
    def test_seed_grid_reproduced(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        rec = reconstruct_torus(straight_sys.family, straight_sys.seed,
                                [0.0], np.zeros(2), grid_per_angle=8,
                                frame=frame)
        for i in range(8):
            for j in range(8):
                want = straight_sys.seed.point([TWO_PI * i / 8,
                                                TWO_PI * j / 8])
                np.testing.assert_allclose(rec.samples[i, j], want,
                                           atol=1e-9)

    def test_shifted_torus_constant_in_u(self, straight_sys, straight_spec):
        frame = build_section(straight_sys.family, straight_sys.seed)
        eps = np.array([0.07])
        ustar = -straight_spec.C @ eps
        rec = reconstruct_torus(straight_sys.family, straight_sys.seed, eps,
                                ustar, grid_per_angle=6, frame=frame)
        u_samples = rec.samples[..., 2:]
        np.testing.assert_allclose(
            u_samples, np.broadcast_to(ustar, u_samples.shape), atol=1e-9)
        assert rec.closure_defect <= 1e-8

    def test_grid_is_an_integer_count(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        with pytest.raises(ValueError, match="grid_per_angle"):
            reconstruct_torus(straight_sys.family, straight_sys.seed, [0.0],
                              np.zeros(2), grid_per_angle=8.0, frame=frame)
        rec = reconstruct_torus(straight_sys.family, straight_sys.seed,
                                [0.0], np.zeros(2),
                                grid_per_angle=np.int64(4), frame=frame)
        assert rec.samples.shape == (4, 4, straight_sys.family.n)

    def test_wrong_point_raises_open_torus(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        with pytest.raises(OpenTorus) as err:
            reconstruct_torus(straight_sys.family, straight_sys.seed, [0.07],
                              np.array([0.2, 0.2]), grid_per_angle=4,
                              frame=frame)
        assert err.value.report is not None
        assert err.value.report.closure_defect > 1e-3

    def test_hopf_circle_reconstruction(self, hopf_sys):
        frame = build_section(hopf_sys.family, hopf_sys.seed)
        eps = np.array([0.15])
        nr = newton_fixed_point(hopf_sys.family, hopf_sys.seed, [1], frame,
                                eps, np.zeros(1))
        rec = reconstruct_torus(hopf_sys.family, hopf_sys.seed, eps, nr.u,
                                grid_per_angle=16, frame=frame)
        radii = np.linalg.norm(rec.samples, axis=-1)
        np.testing.assert_allclose(radii, math.sqrt(0.15), atol=1e-8)


class TestReconstructionWork:
    """Field evaluations of a whole torus reconstruction at the default
    tolerance. The bounds sit well above the one-run-per-row counts
    (straightened 1,052, Hopf 340) and well below those of one flow per
    grid point (2,294 and 832), so a return to per-point transport or a
    regression in the row runs fails here."""

    def test_straightened_flat_torus(self, straight_sys, counted_family):
        frame = build_section(straight_sys.family, straight_sys.seed)
        fam, calls = counted_family(straight_sys.family)
        rec = reconstruct_torus(fam, straight_sys.seed, [0.0], np.zeros(2),
                                grid_per_angle=8, frame=frame)
        assert calls[0] <= 1400
        assert rec.closure_defect <= 1e-8

    def test_hopf_circle(self, counted_family):
        system = make_hopf(1.0, 0.1)
        frame = build_section(system.family, system.seed)
        eps = np.array([0.15])
        nr = newton_fixed_point(system.family, system.seed, [1], frame, eps,
                                np.zeros(1))
        fam, calls = counted_family(system.family)
        rec = reconstruct_torus(fam, system.seed, eps, nr.u,
                                grid_per_angle=32, frame=frame)
        assert calls[0] <= 500
        assert rec.closure_defect <= 1e-8


class TestSingularJacobian:
    # the corrector raises; the probe, which shares its Newton solver,
    # counts the singular start as failed and finds nothing
    @pytest.mark.parametrize("solve, error, message", [
        (lambda fam, seed, frame: newton_fixed_point(
            fam, seed, [1], frame, [0.01], np.zeros(1)),
         SingularJacobian, "I - L is singular"),
        (lambda fam, seed, frame: postcritical_probe(
            fam, seed, [1], frame, [0.01], "CaseB"),
         NothingFound, "could not locate the continued fixed point"),
    ], ids=["corrector", "probe"])
    def test_forced_drift_with_unit_multiplier(self, solve, error, message):
        # phi' = 1, u' = eps: the map shifts u by 2 pi eps with derivative 1,
        # so I - L vanishes while the residual does not
        from pnk import TorusSeed, VectorFieldFamily

        fam = VectorFieldFamily(
            2, 1, 1,
            values=[lambda x, e: np.array([1.0, e[0]])],
            jacobians=[lambda x, e: np.zeros((2, 2))],
            eps_jacobians=[lambda x, e: np.array([[0.0], [1.0]])])
        seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0]),
                         np.zeros(1), angle_coords=(0,))
        frame = build_section(fam, seed)
        with pytest.raises(error, match=message):
            solve(fam, seed, frame)


class TestHopfBranchOracle:
    def test_fixed_points_match_radial_oracle(self, hopf_sys):
        # section coordinate along +x at the base point (sqrt(eps0), 0):
        # the cycle at eps has radius sqrt(eps), so u* = sqrt(eps) - sqrt(eps0)
        path = [np.array([e]) for e in np.linspace(0.1, 0.2, 6)]
        branch = continue_branch(hopf_sys.family, hopf_sys.seed, [1], path)
        assert branch.status == "completed"
        for pt in branch.points:
            want = hopf_sys.oracle.fixed_u(pt.eps)
            np.testing.assert_allclose(pt.u, want, atol=1e-9)

    def test_branch_stops_where_the_cycle_collapses(self, hopf_sys):
        path = [np.array([e]) for e in np.linspace(0.1, -0.05, 7)]
        branch = continue_branch(hopf_sys.family, hopf_sys.seed, [1], path)
        assert branch.status == "stopped_at_critical"
        assert branch.points[-1].eps[0] == pytest.approx(0.0, abs=1e-12)
        # each point is the corrector's record at its slice; its margins
        # are those of its spectrum, and the stop message quotes them
        for pt, eps in zip(branch.points, path):
            np.testing.assert_array_equal(pt.eps, eps)
            assert (pt.dist_from_one, pt.dist_from_unit_circle) == \
                margins(pt.spectrum)
        last = branch.points[-1]
        assert branch.message.startswith(
            f"margin {last.dist_from_one:.3g} below delta_min")
