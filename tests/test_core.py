"""Domain types, loop fields, Lie brackets and the commutation checks."""

import math
import warnings

import numpy as np
import pytest

from pnk import (DegenerateTangent, TorusSeed, VectorFieldFamily, ZeroClass,
                 integrate_flow, lie_bracket, loop_field,
                 verify_commuting_family, verify_torus_invariance)
from pnk.core import as_count, as_params, as_point, as_winding, wrap_angles

TWO_PI = 2.0 * math.pi


def _linear_family(mats, p=0):
    mats = [np.asarray(m, dtype=float) for m in mats]
    n = mats[0].shape[0]
    return VectorFieldFamily(
        n, len(mats), p,
        values=[(lambda x, eps, m=m: m @ x) for m in mats],
        jacobians=[(lambda x, eps, m=m: m) for m in mats])


def _constant_family(vecs):
    vecs = [np.asarray(v, dtype=float) for v in vecs]
    n = vecs[0].size
    zero = np.zeros((n, n))
    return VectorFieldFamily(
        n, len(vecs), 0,
        values=[(lambda x, eps, v=v: v) for v in vecs],
        jacobians=[(lambda x, eps: zero) for _ in vecs])


class TestLoopField:
    def test_single_winding_scales_by_two_pi(self):
        fam = _constant_family([np.array([1.0, 0.0])])
        field = loop_field(fam, [1])
        np.testing.assert_allclose(field.value(np.zeros(2), np.zeros(0)),
                                   [TWO_PI, 0.0])

    def test_signed_combination(self):
        fam = _constant_family([[1.0, 0.0], [0.0, 1.0]])
        field = loop_field(fam, [1, -1])
        np.testing.assert_allclose(field.value(np.zeros(2), np.zeros(0)),
                                   [TWO_PI, -TWO_PI])

    def test_pointwise_linear_combination_everywhere(self, straight_sys, rng):
        fam = straight_sys.family
        field = loop_field(fam, [2, -1])
        for _ in range(5):
            x = rng.normal(size=fam.n)
            eps = rng.normal(size=fam.p)
            want = TWO_PI * (2 * fam.eval(0, x, eps) - fam.eval(1, x, eps))
            np.testing.assert_allclose(field.value(x, eps), want, atol=1e-14)

    def test_time_one_orbit_closes_on_torus(self, straight_sys):
        seed = straight_sys.seed
        field = loop_field(straight_sys.family, [1, 0])
        x0 = seed.point([0.7, -0.3])
        end = integrate_flow(field, x0, seed.eps0, 1.0).endpoint
        end = wrap_angles(end, x0, seed.angle_coords)
        np.testing.assert_allclose(end, x0, atol=1e-10)

    def test_zero_class_rejected(self, straight_sys):
        with pytest.raises(ZeroClass):
            loop_field(straight_sys.family, [0, 0])


class TestLieBracket:
    def test_constant_fields_commute(self):
        fam = _constant_family([[1.0, 2.0], [0.5, -1.0]])
        out = lie_bracket(fam, 0, 1, np.array([0.3, 0.4]), np.zeros(0))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_hand_computed_bracket(self):
        # f = (0, x1), g = (1, 0): [f, g] = (Dg) f - (Df) g = (0, -1)
        fam = VectorFieldFamily(
            2, 2, 0,
            values=[lambda x, e: np.array([0.0, x[0]]),
                    lambda x, e: np.array([1.0, 0.0])],
            jacobians=[lambda x, e: np.array([[0.0, 0.0], [1.0, 0.0]]),
                       lambda x, e: np.zeros((2, 2))])
        out = lie_bracket(fam, 0, 1, np.array([0.2, 0.7]), np.zeros(0))
        np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-15)

    def test_commuting_linear_fields(self):
        a1 = np.diag([1.0, 2.0])
        a2 = np.array([[3.0, 0.0], [0.0, -1.0]])
        fam = _linear_family([a1, a2])
        out = lie_bracket(fam, 0, 1, np.array([1.3, -0.8]), np.zeros(0))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_antisymmetry(self, straight_sys, rng):
        fam = straight_sys.family
        for _ in range(8):
            x = rng.normal(size=fam.n)
            eps = rng.normal(size=fam.p)
            fwd = lie_bracket(fam, 0, 1, x, eps)
            bwd = lie_bracket(fam, 1, 0, x, eps)
            np.testing.assert_allclose(fwd, -bwd, atol=1e-14)


class TestVerifyCommutingFamily:
    def test_straightened_passes(self, straight_sys, rng):
        fam = straight_sys.family
        samples = [(rng.normal(size=fam.n), rng.normal(size=fam.p))
                   for _ in range(20)]
        rep = verify_commuting_family(fam, samples, tol=1e-8)
        assert rep.passed
        assert rep.max_residual <= 1e-8

    def test_noncommuting_pair_fails(self):
        # d/dx and x d/dx have bracket d/dx: residual 1 at any point
        fam = VectorFieldFamily(
            2, 2, 0,
            values=[lambda x, e: np.array([1.0, 0.0]),
                    lambda x, e: np.array([x[0], 0.0])],
            jacobians=[lambda x, e: np.zeros((2, 2)),
                       lambda x, e: np.array([[1.0, 0.0], [0.0, 0.0]])])
        rep = verify_commuting_family(fam, [(np.array([0.4, 0.0]),
                                             np.zeros(0))], tol=1e-8)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1.0)
        assert rep.worst_pair == (0, 1)

    def test_single_field_vacuous(self, hopf_sys):
        rep = verify_commuting_family(hopf_sys.family,
                                      [(np.array([0.3, 0.1]),
                                        np.array([0.1]))])
        assert rep.passed
        assert rep.max_residual == 0.0

    def test_fd_jacobian_residual_within_error_model(self, rng):
        # same commuting pair but without analytic jacobians
        a1 = np.diag([-0.3, 0.2])
        a2 = np.diag([0.1, -0.4])
        fam = VectorFieldFamily(
            2, 2, 0,
            values=[lambda x, e: a1 @ x, lambda x, e: a2 @ x])
        samples = [(rng.normal(size=2), np.zeros(0)) for _ in range(20)]
        rep = verify_commuting_family(fam, samples, tol=1e-8)
        assert rep.passed

    def test_empty_samples_rejected(self, straight_sys):
        with pytest.raises(ValueError):
            verify_commuting_family(straight_sys.family, [])


class TestVerifyTorusInvariance:
    def test_straightened_seed_passes(self, straight_sys):
        rep = verify_torus_invariance(straight_sys.family, straight_sys.seed,
                                      grid=6, tol=1e-10)
        assert rep.passed
        assert rep.max_normal_residual <= 1e-10

    def test_hopf_cycle_passes(self, hopf_sys):
        rep = verify_torus_invariance(hopf_sys.family, hopf_sys.seed,
                                      grid=8, tol=1e-10)
        assert rep.passed

    def test_scaled_hopf_circle_fails(self, hopf_sys):
        root = math.sqrt(0.1) * 1.1
        bad = TorusSeed(1, lambda phi: np.array([root * math.cos(phi[0]),
                                                 root * math.sin(phi[0])]),
                        np.array([0.1]))
        rep = verify_torus_invariance(hopf_sys.family, bad, grid=8, tol=1e-8)
        assert not rep.passed
        assert rep.max_normal_residual > 1e-3

    def test_degenerate_tangent_raises(self, straight_sys):
        # embedding collapsing both angles onto one circle direction
        seed = TorusSeed(2, lambda phi: np.array([phi[0] + phi[1],
                                                  phi[0] + phi[1], 0.0, 0.0]),
                         np.zeros(1))
        with pytest.raises(DegenerateTangent):
            verify_torus_invariance(straight_sys.family, seed, grid=4)

    def test_small_grid_rejected(self, straight_sys):
        with pytest.raises(ValueError):
            verify_torus_invariance(straight_sys.family, straight_sys.seed,
                                    grid=3)


class TestHelpers:
    def test_as_point_validates(self):
        with pytest.raises(ValueError):
            as_point([1.0, np.inf])
        with pytest.raises(ValueError):
            as_point([1.0], n=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_and_params_refused(self, bad):
        with pytest.raises(ValueError, match="^point has non-finite entries$"):
            as_point([0.5, bad])
        with pytest.raises(ValueError, match="^parameter vector has "
                                             "non-finite entries$"):
            as_params([bad], p=1)

    def test_signed_zero_and_largest_values_kept(self):
        x = np.array([-0.0, 1e308, -1e308])
        assert as_point(x, 3).tobytes() == x.tobytes()
        assert as_params(x).tobytes() == x.tobytes()

    @pytest.mark.parametrize("count", [8, np.int64(8), np.uint8(8)])
    def test_as_count_takes_python_and_numpy_integers(self, count):
        got = as_count(count, "grid")
        assert got == 8 and type(got) is int

    @pytest.mark.parametrize("count", [8.0, 2.5, np.float64(8.0), True, "8"])
    def test_as_count_refuses_the_rest(self, count):
        with pytest.raises(ValueError, match="grid must be an integer"):
            as_count(count, "grid")

    def test_as_winding_rejects_non_integers(self):
        with pytest.raises(ValueError):
            as_winding([0.5])
        with pytest.raises(ValueError, match="integers within int64"):
            as_winding([2.0, -1.0])

    # each of these cast to int64 wrapped, to the int64 minimum or to -1
    @pytest.mark.parametrize("alpha", [
        [np.inf], [1e20], [2.0**63], [2**70],
        np.array([2**64 - 1], dtype=np.uint64), [np.nan], [-2**63 - 1]],
        ids=["inf", "1e20", "2.0**63", "2**70", "uint64-max", "nan",
             "int64-min-minus-1"])
    def test_as_winding_refuses_what_int64_cannot_hold(self, alpha):
        fam = _linear_family([np.zeros((2, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="within int64"):
                as_winding(alpha)
            with pytest.raises(ValueError, match="within int64"):
                loop_field(fam, alpha)

    def test_as_winding_keeps_the_int64_ends(self):
        ends = [-2**63, 2**63 - 1]
        assert as_winding(ends).tolist() == ends
        with pytest.raises(ValueError, match="integers within int64"):
            as_winding([-2.0**63])
        assert as_winding(np.array([7], dtype=np.uint64)).tolist() == [7]

    def test_empty_winding_is_a_length_error(self):
        # np.asarray([]) is float64; the refusal names the length
        assert as_winding([]).dtype == np.int64
        with pytest.raises(ValueError, match="length 0, expected 2"):
            as_winding([], 2)

    def test_wrap_angles_reduces_mod_two_pi(self):
        ref = np.array([0.25, 5.0])
        x = np.array([0.25 + 6 * math.pi, 5.0])
        out = wrap_angles(x, ref, (0,))
        np.testing.assert_allclose(out, ref, atol=1e-12)
        # untouched without angle flags
        np.testing.assert_allclose(wrap_angles(x, ref, ()), x)

    def test_family_jacobian_matches_differences(self, hopf_sys, rng):
        fam = hopf_sys.family
        from pnk import numdiff
        for _ in range(4):
            x = rng.normal(size=2)
            eps = np.array([0.1])
            jac = fam.jacobian(0, x, eps)
            fd = numdiff.jacobian(lambda z: fam.eval(0, z, eps), x)
            np.testing.assert_allclose(jac, fd, atol=1e-9)
