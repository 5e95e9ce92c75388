"""Sections, monodromy operators, transversal linearizations, the return map."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import pnk.section
from pnk import (DegenerateTangent, NoConvergence, OpenLoop, TorusSeed,
                 VectorFieldFamily, basepoint_spectrum_check, build_section,
                 monodromy_report, total_monodromy, transversal_linearization,
                 transversal_map)
from pnk.catalog import make_flip, make_neimark
from pnk.section import solve_return_times, transversal_orbit
from pnk.spectra import match_distance, sorted_complex

TWO_PI = 2.0 * math.pi
A1 = np.diag([-0.3, 0.2])
A2 = np.diag([0.1, -0.4])


class TestBuildSection:
    def test_axis_field_complement(self):
        fam = VectorFieldFamily(
            3, 1, 0, values=[lambda x, e: np.array([1.0, 0.0, 0.0])],
            jacobians=[lambda x, e: np.zeros((3, 3))])
        from pnk import TorusSeed
        seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0, 0.0]),
                         np.zeros(0), angle_coords=(0,))
        frame = build_section(fam, seed)
        span = np.abs(frame.transversal_basis.T @ np.eye(3)[:, 1:])
        assert np.linalg.matrix_rank(span, tol=1e-12) == 2
        np.testing.assert_allclose(np.abs(frame.constraints),
                                   [[1.0, 0.0, 0.0]], atol=1e-14)

    def test_straightened_transversal_is_u_plane(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        # Gram-Schmidt oracle: complement of the angle axes is the u plane
        np.testing.assert_allclose(np.abs(frame.transversal_basis[:2]), 0.0,
                                   atol=1e-14)
        gram = frame.transversal_basis.T @ frame.transversal_basis
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-14)
        # constraints annihilate the transversal basis, pair to identity
        np.testing.assert_allclose(
            frame.constraints @ frame.transversal_basis, 0.0, atol=1e-14)
        np.testing.assert_allclose(
            frame.constraints @ frame.group_basis, np.eye(2), atol=1e-14)

    def test_dependent_generators_rejected(self):
        fam = VectorFieldFamily(
            2, 2, 0,
            values=[lambda x, e: np.array([1.0, 0.0]),
                    lambda x, e: np.array([1.0, 0.0])],
            jacobians=[lambda x, e: np.zeros((2, 2))] * 2)
        from pnk import TorusSeed
        seed = TorusSeed(2, lambda phi: np.array([phi[0], phi[1]]),
                         np.zeros(0), angle_coords=(0, 1))
        with pytest.raises(DegenerateTangent):
            build_section(fam, seed)


class TestTotalMonodromy:
    def test_straightened_block_exponential(self, straight_sys):
        a = total_monodromy(straight_sys.family, straight_sys.seed, [1, 0])
        want = np.zeros((4, 4))
        want[:2, :2] = np.eye(2)
        want[2:, 2:] = expm(TWO_PI * A1)
        np.testing.assert_allclose(a, want, atol=1e-8)

    def test_unit_eigenvalue_count(self, straight_sys, hopf_sys):
        for sysm, alpha in [(straight_sys, [1, 1]), (hopf_sys, [1])]:
            rep = monodromy_report(sysm.family, sysm.seed, alpha)
            assert rep.trivial_unit_count == sysm.family.k
            assert rep.pairing_distance <= 1e-8

    def test_hopf_spectrum(self, hopf_sys):
        a = total_monodromy(hopf_sys.family, hopf_sys.seed, [1])
        eig = np.sort(np.abs(np.linalg.eigvals(a)))
        assert eig[0] == pytest.approx(math.exp(-0.4 * math.pi), rel=1e-8)
        assert eig[1] == pytest.approx(1.0, abs=1e-8)

    def test_open_loop_off_torus(self, hopf_sys):
        m = np.array([0.5, 0.0])  # not on the r = sqrt(0.1) cycle
        for compute in (total_monodromy, monodromy_report):
            with pytest.raises(OpenLoop, match="not on an invariant torus"):
                compute(hopf_sys.family, hopf_sys.seed, [1], m=m)


class TestTransversalLinearization:
    def test_identity_passthrough(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        ell = transversal_linearization(np.eye(4), frame)
        np.testing.assert_allclose(ell, np.eye(2), atol=1e-14)

    def test_straightened_closed_form(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        a = total_monodromy(straight_sys.family, straight_sys.seed, [1, 1])
        ell = transversal_linearization(a, frame)
        np.testing.assert_allclose(ell, expm(TWO_PI * (A1 + A2)), atol=1e-8)

    def test_spectrum_splitting(self, straight_sys, rng):
        # random full matrices fixing the group directions exactly
        frame = build_section(straight_sys.family, straight_sys.seed)
        for _ in range(5):
            block = rng.normal(size=(2, 2))
            coupling = rng.normal(size=(2, 2))
            a = np.block([[np.eye(2), coupling], [np.zeros((2, 2)), block]])
            ell = transversal_linearization(a, frame)
            full = sorted_complex(np.linalg.eigvals(a))
            part = np.concatenate([np.linalg.eigvals(ell),
                                   np.ones(2, dtype=complex)])
            assert match_distance(full, sorted_complex(part)) <= 1e-6


class TestEvaluatePnMap:
    def test_base_point_is_fixed(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        res = transversal_map(straight_sys.family, frame, [1, 0], np.zeros(2))
        np.testing.assert_allclose(res.u, 0.0, atol=1e-9)
        np.testing.assert_allclose(res.endpoint, frame.base, atol=1e-9)

    def test_linear_image_on_straightened(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        u = np.array([0.02, -0.03])
        res = transversal_map(straight_sys.family, frame, [1, 0], u)
        want_u = expm(TWO_PI * A1) @ u
        np.testing.assert_allclose(res.u, want_u, atol=1e-9)

    def test_jacobian_matches_map_differences(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        res = transversal_map(straight_sys.family, frame, [1, 0],
                              np.zeros(2), with_jacobian=True)
        h = 1e-5
        fd = np.empty((2, 2))
        for j, e in enumerate(np.eye(2)):
            up = transversal_map(straight_sys.family, frame, [1, 0], h * e).u
            dn = transversal_map(straight_sys.family, frame, [1, 0], -h * e).u
            fd[:, j] = (up - dn) / (2 * h)
        np.testing.assert_allclose(res.jacobian, fd, atol=1e-6)

    def test_jacobian_fd_consistency_hopf(self, hopf_sys):
        frame = build_section(hopf_sys.family, hopf_sys.seed)
        res = transversal_map(hopf_sys.family, frame, [1], np.zeros(1),
                              with_jacobian=True)
        h = 1e-5
        up = transversal_map(hopf_sys.family, frame, [1], [h]).u
        dn = transversal_map(hopf_sys.family, frame, [1], [-h]).u
        fd = (up - dn) / (2 * h)
        np.testing.assert_allclose(res.jacobian[0], fd, atol=1e-6)


def _twisting_circle(twist, eps0):
    """Planar k=1 family X = (eps - r^2) x + (1 + twist (r^2 - eps)) J x.

    The limit cycle r^2 = eps turns at unit speed, so its loop closes at
    time 2*pi; off the cycle the rotation speed grows with the radius, so
    one loop-flow run drifts along the cycle away from the section.
    """
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])

    def value(x, eps):
        r2 = x @ x
        return (eps[0] - r2) * x + (1.0 + twist * (r2 - eps[0])) * (rot @ x)

    def jacobian(x, eps):
        r2 = x @ x
        return ((eps[0] - r2) * np.eye(2) - 2.0 * np.outer(x, x)
                + (1.0 + twist * (r2 - eps[0])) * rot
                + 2.0 * twist * np.outer(rot @ x, x))

    fam = VectorFieldFamily(2, 1, 1, [value], [jacobian])
    root = math.sqrt(eps0)
    seed = TorusSeed(1, lambda phi: root * np.array([math.cos(phi[0]),
                                                     math.sin(phi[0])]),
                     np.array([eps0]))
    return fam, seed


def _iterated_maps(family, frame, u, count, eps=None):
    out = []
    for _ in range(count):
        u = transversal_map(family, frame, [1], u, eps).u
        out.append(u)
    return np.array(out)


class TestReturnBudget:
    """The return-time Newton solve stops at RETURN_MAX_ITER steps."""

    @staticmethod
    def _solve():
        # 0.03 off the twisting circle's base, the return takes 4 steps
        fam, seed = _twisting_circle(twist=10.0, eps0=0.01)
        frame = build_section(fam, seed)
        y = frame.base + np.array([0.0, 0.03])
        return solve_return_times(fam, y, seed.eps0, frame)

    def test_budget_of_the_steps_needed_converges(self, monkeypatch):
        assert self._solve().iterations == 4
        monkeypatch.setattr(pnk.section, "RETURN_MAX_ITER", 4)
        assert self._solve().iterations == 4

    def test_budget_below_the_steps_needed_raises(self, monkeypatch):
        monkeypatch.setattr(pnk.section, "RETURN_MAX_ITER", 3)
        with pytest.raises(NoConvergence, match="in 3 iterations"):
            self._solve()


class TestTransversalOrbit:
    """P^n = P_{n alpha}: iterates from one loop-flow run."""

    def test_neimark_orbit_matches_repeated_maps(self):
        sysm = make_neimark()
        frame = build_section(sysm.family, sysm.seed)
        u = np.array([0.1, 0.0])
        orbit = transversal_orbit(sysm.family, frame, [1], u, 40, [0.04])
        want = _iterated_maps(sysm.family, frame, u, 40, [0.04])
        assert orbit.u.shape == (40, 2)
        assert orbit.runs == 1
        np.testing.assert_allclose(orbit.u, want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("count, message", [
        (5.5, "count must be an integer"), (2.0, "count must be an integer"),
        (-3, "count must be nonnegative")])
    def test_count_is_a_nonnegative_integer(self, count, message):
        sysm = make_neimark()
        frame = build_section(sysm.family, sysm.seed)
        with pytest.raises(ValueError, match=message):
            transversal_orbit(sysm.family, frame, [1], [0.1, 0.0], count,
                              [0.04])

    def test_zero_count_is_no_iterates(self):
        sysm = make_neimark()
        frame = build_section(sysm.family, sysm.seed)
        orbit = transversal_orbit(sysm.family, frame, [1], [0.1, 0.0], 0,
                                  [0.04])
        assert orbit.u.shape == (0, 2) and orbit.runs == 0

    def test_twisting_orbit_restarts_and_matches(self):
        # the drift passes a quarter turn within a few loops; without the
        # restart the projection lands on the far side of the cycle
        fam, seed = _twisting_circle(twist=10.0, eps0=0.01)
        frame = build_section(fam, seed)
        u = np.array([0.05])
        orbit = transversal_orbit(fam, frame, [1], u, 12)
        want = _iterated_maps(fam, frame, u, 12)
        assert orbit.runs > 1
        np.testing.assert_allclose(orbit.u, want, rtol=0, atol=1e-8)

    @staticmethod
    def _failing_projections(monkeypatch, failing):
        """Make the return-time solves numbered in ``failing`` (from 1)
        raise NoConvergence; the others run as before."""
        solve, calls = pnk.section.solve_return_times, [0]

        def flaky(*args, **kwargs):
            calls[0] += 1
            if calls[0] in failing:
                raise NoConvergence("return-time solve failed")
            return solve(*args, **kwargs)

        monkeypatch.setattr(pnk.section, "solve_return_times", flaky)

    def test_failed_projection_restarts_the_run(self, monkeypatch):
        # the 3rd sample's projection fails, so the run keeps 2 iterates
        # and a second run from the 2nd takes the other 3
        sysm = make_neimark()
        frame = build_section(sysm.family, sysm.seed)
        u = np.array([0.05, 0.0])
        want = transversal_orbit(sysm.family, frame, [1], u, 5, [0.04])
        assert want.runs == 1
        self._failing_projections(monkeypatch, {3})
        orbit = transversal_orbit(sysm.family, frame, [1], u, 5, [0.04])
        assert orbit.runs == 2 and orbit.u.shape == (5, 2)
        assert orbit.u[:2].tobytes() == want.u[:2].tobytes()
        np.testing.assert_allclose(orbit.u, want.u, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("failing", [{1}, {3, 4}],
                             ids=["first-run", "restarted-run"])
    def test_failed_first_sample_raises(self, monkeypatch, failing):
        # a run's first sample is projected as transversal_map projects
        # its image, so its failure is the orbit's
        sysm = make_neimark()
        frame = build_section(sysm.family, sysm.seed)
        self._failing_projections(monkeypatch, failing)
        with pytest.raises(NoConvergence, match="return-time solve failed"):
            transversal_orbit(sysm.family, frame, [1], [0.05, 0.0], 5,
                              [0.04])

    def test_double_winding_map_is_map_twice(self):
        sysm = make_flip()
        frame = build_section(sysm.family, sysm.seed)
        u = np.array([0.15, -0.05])
        once = transversal_map(sysm.family, frame, [1], u, [0.039],
                               with_jacobian=True)
        again = transversal_map(sysm.family, frame, [1], once.u, [0.039],
                                with_jacobian=True)
        twice = transversal_map(sysm.family, frame, [2], u, [0.039],
                                with_jacobian=True)
        np.testing.assert_allclose(twice.u, again.u, rtol=0, atol=1e-8)
        np.testing.assert_allclose(twice.jacobian,
                                   again.jacobian @ once.jacobian,
                                   rtol=0, atol=1e-8)


class TestSpectralProperties:
    def test_homotopy_additivity(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)

        def ell(alpha):
            a = total_monodromy(straight_sys.family, straight_sys.seed, alpha)
            return transversal_linearization(a, frame)

        lhs = ell([1, 1])
        rhs = ell([1, 0]) @ ell([0, 1])
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_basepoint_invariance_two_antipodes(self, hopf_sys):
        check = basepoint_spectrum_check(hopf_sys.family, hopf_sys.seed, [1],
                                         [[0.0], [math.pi]], tol=1e-8)
        assert check.passed
        assert check.max_spectral_distance <= 1e-8

    def test_basepoint_invariance_torus_samples(self, straight_sys, rng):
        angles = rng.uniform(0.0, TWO_PI, size=(8, 2))
        check = basepoint_spectrum_check(straight_sys.family,
                                         straight_sys.seed, [1, 0],
                                         list(angles), tol=1e-6)
        assert check.passed

    def test_single_sample_vacuous(self, hopf_sys):
        check = basepoint_spectrum_check(hopf_sys.family, hopf_sys.seed, [1],
                                         [[0.4]])
        assert check.passed
        assert check.max_spectral_distance == 0.0

    def test_base_report_serves_the_base_point(self, hopf_sys, loop_flows):
        # a sample whose point is the base point, bit for bit, takes the
        # base report's spectrum instead of flowing the loop again; -0.0
        # puts the Hopf point at (r, -0.0), another point
        fam, seed = hopf_sys.family, hopf_sys.seed
        base = monodromy_report(fam, seed, [1])
        angles = [[0.0], [0.5 * math.pi], [0.0], [-0.0]]
        loop_flows.clear()
        reused = basepoint_spectrum_check(fam, seed, [1], angles, base=base)
        assert len(loop_flows) == 2
        fresh = basepoint_spectrum_check(fam, seed, [1], angles)
        assert len(loop_flows) == 6
        assert reused.max_spectral_distance == fresh.max_spectral_distance
        assert [s.tobytes() for s in reused.spectra] == \
            [s.tobytes() for s in fresh.spectra]


class TestInvarianceMonodromyConsistency:
    def test_invariant_seed_supports_closed_loops(self, hopf_sys):
        from pnk import verify_torus_invariance
        rep = verify_torus_invariance(hopf_sys.family, hopf_sys.seed, grid=8,
                                      tol=1e-9)
        assert rep.passed
        # monodromy from any sampled base point closes within tolerance
        for phi in (0.0, 2.0, 4.0):
            m = hopf_sys.seed.point([phi])
            total_monodromy(hopf_sys.family, hopf_sys.seed, [1], m=m)

    def test_non_invariant_seed_fails_both_ways(self, hopf_sys):
        import math as _math
        from pnk import TorusSeed, verify_torus_invariance
        root = _math.sqrt(0.1) * 1.1
        bad = TorusSeed(1, lambda phi: np.array([root * _math.cos(phi[0]),
                                                 root * _math.sin(phi[0])]),
                        np.array([0.1]))
        assert not verify_torus_invariance(hopf_sys.family, bad, grid=8,
                                           tol=1e-9).passed
        with pytest.raises(OpenLoop):
            total_monodromy(hopf_sys.family, bad, [1])
