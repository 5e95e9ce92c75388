"""Flow integration, variational flows, and section return solves."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from pnk import (Field, NonFinite, SingularGeometry, StepFailure,
                 build_section, integrate_flow, integrate_variational,
                 loop_field, solve_return_times)
from pnk.catalog import make_flip, make_hopf
from pnk.flow import MIN_TOL, integrate_orbit

TWO_PI = 2.0 * math.pi


def _field(n, value, jacobian, p=0):
    return Field(n, p, value, jacobian,
                 lambda x, eps: np.zeros((n, p)))


ZERO2 = _field(2, lambda x, e: np.zeros(2), lambda x, e: np.zeros((2, 2)))
EXP1 = _field(1, lambda x, e: x.copy(), lambda x, e: np.ones((1, 1)))


class TestIntegrateFlow:
    def test_zero_field_fixes_points(self):
        res = integrate_flow(ZERO2, [0.3, -0.7], [], 1.0)
        np.testing.assert_allclose(res.endpoint, [0.3, -0.7], atol=1e-13)

    def test_scalar_exponential(self):
        res = integrate_flow(EXP1, [1.0], [], 1.0, tol=1e-12)
        assert res.endpoint[0] == pytest.approx(math.e, abs=1e-11)

    def test_tolerance_below_scipy_floor_rejected(self):
        # scipy would raise rtol to MIN_TOL with a warning
        with pytest.raises(ValueError, match="MIN_TOL"):
            integrate_flow(EXP1, [1.0], [], 1.0, tol=1e-16)
        res = integrate_flow(EXP1, [1.0], [], 1.0, tol=MIN_TOL)
        assert res.endpoint[0] == pytest.approx(math.e, abs=1e-12)

    def test_unit_winding_advances_angle(self, straight_sys):
        field = loop_field(straight_sys.family, [1, 0])
        res = integrate_flow(field, [0.0, 0.0, 0.0, 0.0],
                             straight_sys.seed.eps0, 1.0)
        assert res.endpoint[0] == pytest.approx(TWO_PI, abs=1e-10)

    def test_group_property(self, hopf_sys):
        field = loop_field(hopf_sys.family, [1])
        x0 = np.array([0.25, 0.1])
        tol = 1e-10
        once = integrate_flow(field, x0, [0.1], 0.7, tol)
        twice = integrate_flow(field, once.endpoint, [0.1], 0.3, tol)
        direct = integrate_flow(field, x0, [0.1], 1.0, tol)
        np.testing.assert_allclose(twice.endpoint, direct.endpoint,
                                   atol=10 * tol)

    def test_commuting_flows_commute(self, straight_sys, rng):
        fam = straight_sys.family
        tol = 1e-10
        for _ in range(3):
            x0 = np.concatenate([rng.uniform(0, TWO_PI, 2),
                                 rng.uniform(-0.2, 0.2, 2)])
            eps = rng.uniform(-0.1, 0.1, 1)
            a = integrate_flow(fam.member(0), x0, eps, 1.0, tol).endpoint
            ab = integrate_flow(fam.member(1), a, eps, 1.0, tol).endpoint
            b = integrate_flow(fam.member(1), x0, eps, 1.0, tol).endpoint
            ba = integrate_flow(fam.member(0), b, eps, 1.0, tol).endpoint
            np.testing.assert_allclose(ab, ba, atol=10 * tol)

    def test_blowup_failure_modes(self):
        # the typed errors report a blow-up; no numpy warning leaks past them
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # finite-time singularity drives the step below resolution
            square = _field(1, lambda x, e: x * x * 1e8,
                            lambda x, e: 2e8 * x.reshape(1, 1))
            with pytest.raises(StepFailure):
                integrate_flow(square, [1.0], [], 10.0)
            # plain exponential overflow reaches inf in the state
            grow = _field(1, lambda x, e: 100.0 * x,
                          lambda x, e: np.full((1, 1), 100.0))
            with pytest.raises(NonFinite):
                integrate_flow(grow, [1.0], [], 10.0)

    def test_zero_time_shortcut(self):
        res = integrate_flow(EXP1, [2.0], [], 0.0)
        assert res.steps_taken == 0
        assert res.endpoint[0] == 2.0


A_LIN = np.array([[0.2, -1.1], [0.4, -0.5]])
LIN2 = _field(2, lambda x, e: A_LIN @ x, lambda x, e: A_LIN)


class TestIntegrateOrbit:
    X0 = np.array([0.3, 0.4])
    TIMES = np.arange(1, 32) / 16.0

    def test_samples_match_matrix_exponential(self):
        got = integrate_orbit(LIN2, self.X0, [], self.TIMES)
        assert got.shape == (self.TIMES.size, 2)
        want = np.array([expm(A_LIN * t) @ self.X0 for t in self.TIMES])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_last_sample_is_the_flow_endpoint(self):
        got = integrate_orbit(LIN2, self.X0, [], self.TIMES)
        end = integrate_flow(LIN2, self.X0, [], self.TIMES[-1]).endpoint
        np.testing.assert_allclose(got[-1], end, rtol=0, atol=1e-10)

    def test_escape_mid_orbit(self):
        from pnk import Escape
        grow = Field(1, 0, lambda x, e: x.copy(), lambda x, e: np.ones((1, 1)),
                     lambda x, e: np.zeros((1, 0)), chart_radius=5.0)
        # exp(t) crosses the radius at t = log 5, between the samples
        with pytest.raises(Escape):
            integrate_orbit(grow, [1.0], [], [0.5, 1.0, 2.0, 3.0])

    def test_blowup_failure_modes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # the step size collapses before the first sample is reached
            square = _field(1, lambda x, e: x * x * 1e8,
                            lambda x, e: 2e8 * x.reshape(1, 1))
            with pytest.raises(StepFailure):
                integrate_orbit(square, [1.0], [], [0.5, 10.0])
            grow = _field(1, lambda x, e: 100.0 * x,
                          lambda x, e: np.full((1, 1), 100.0))
            with pytest.raises(NonFinite):
                integrate_orbit(grow, [1.0], [], [1.0, 10.0])

    @pytest.mark.parametrize("times", [[], [0.0, 1.0], [0.5, 0.5],
                                       [1.0, 0.5], [0.5, np.inf]])
    def test_bad_sample_times_rejected(self, times):
        with pytest.raises(ValueError):
            integrate_orbit(LIN2, self.X0, [], times)


class TestIntegrateVariational:
    def test_zero_field_identity_tangent(self):
        res = integrate_variational(ZERO2, [0.1, 0.2], [], 1.0)
        np.testing.assert_allclose(res.tangent, np.eye(2), atol=1e-12)

    def test_linear_field_matches_matrix_exponential(self):
        a = np.array([[0.2, -1.1], [0.4, -0.5]])
        lin = _field(2, lambda x, e: a @ x, lambda x, e: a)
        res = integrate_variational(lin, [0.3, 0.4], [], 1.0, tol=1e-11)
        np.testing.assert_allclose(res.tangent, expm(a), atol=1e-9)

    def test_hopf_cycle_multipliers(self, hopf_sys):
        # one full loop of the normalized field: eigenvalues {1, exp(-0.4 pi)}
        field = loop_field(hopf_sys.family, [1])
        m = hopf_sys.seed.base_point
        res = integrate_variational(field, m, [0.1], 1.0)
        eig = np.sort(np.abs(np.linalg.eigvals(res.tangent)))
        want = math.exp(-0.4 * math.pi)
        assert eig[0] == pytest.approx(want, rel=1e-8)
        assert eig[1] == pytest.approx(1.0, abs=1e-8)

    def test_chain_rule_for_composed_flows(self, hopf_sys):
        field = loop_field(hopf_sys.family, [1])
        x0 = np.array([0.3, 0.05])
        tol = 1e-10
        first = integrate_variational(field, x0, [0.1], 0.4, tol)
        second = integrate_variational(field, first.endpoint, [0.1], 0.6, tol)
        direct = integrate_variational(field, x0, [0.1], 1.0, tol)
        np.testing.assert_allclose(second.tangent @ first.tangent,
                                   direct.tangent, atol=100 * tol)

    def test_tangent_matches_flow_differences(self, hopf_sys):
        field = loop_field(hopf_sys.family, [1])
        x0 = np.array([0.3, 0.05])
        tol = 1e-10
        var = integrate_variational(field, x0, [0.1], 1.0, tol)
        h = 1e-6
        fd = np.empty((2, 2))
        for j, e in enumerate(np.eye(2)):
            plus = integrate_flow(field, x0 + h * e, [0.1], 1.0, tol).endpoint
            minus = integrate_flow(field, x0 - h * e, [0.1], 1.0, tol).endpoint
            fd[:, j] = (plus - minus) / (2 * h)
        np.testing.assert_allclose(var.tangent, fd,
                                   atol=max(1e-6, 100 * tol))

    def test_rescaling_invariance(self, hopf_sys):
        # c * X over time 1/c gives the same tangent map
        base = loop_field(hopf_sys.family, [1])
        c = 2.5
        scaled = Field(2, 1, lambda x, e: c * base.value(x, e),
                       lambda x, e: c * base.jacobian(x, e),
                       lambda x, e: c * base.eps_jacobian(x, e))
        m = hopf_sys.seed.base_point
        a1 = integrate_variational(base, m, [0.1], 1.0).tangent
        a2 = integrate_variational(scaled, m, [0.1], 1.0 / c).tangent
        np.testing.assert_allclose(a1, a2, atol=1e-9)


class TestLoopFlowWork:
    """Field evaluations of one time-one variational loop flow at the
    default tolerance. The bounds sit well above the current counts
    (Hopf 278, flip 158) and well below the 5(4) pair's (1,262 and 470),
    so a regression in the stepper's efficiency fails here."""

    @staticmethod
    def _counted_loop_flow(system):
        loop = loop_field(system.family, [1])
        calls = [0]

        def value(x, eps):
            calls[0] += 1
            return loop.value(x, eps)

        field = Field(loop.n, loop.p, value, loop.jacobian,
                      loop.eps_jacobian)
        eps = system.seed.eps0
        res = integrate_variational(field, system.seed.base_point, eps, 1.0)
        want = system.oracle.transversal_multipliers([1], eps)
        return res, want, calls[0]

    @staticmethod
    def _transversal(tangent, count):
        # the loop direction carries the trivial unit multiplier
        eig = np.linalg.eigvals(tangent)
        eig = eig[np.argsort(np.abs(eig - 1.0))]
        return np.sort_complex(eig[-count:])

    def test_hopf_loop_flow(self):
        res, want, rhs_evals = self._counted_loop_flow(make_hopf(1.0, 0.1))
        assert rhs_evals <= 400
        assert want[0] == pytest.approx(math.exp(-0.4 * math.pi), rel=1e-15)
        got = self._transversal(res.tangent, 1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_flip_loop_flow(self):
        res, want, rhs_evals = self._counted_loop_flow(make_flip())
        assert rhs_evals <= 250
        got = self._transversal(res.tangent, 2)
        np.testing.assert_allclose(got, np.sort_complex(want), rtol=0,
                                   atol=1e-10)


class TestSolveReturnTimes:
    def test_point_on_section_returns_zero_times(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        res = solve_return_times(straight_sys.family, frame.base,
                                 straight_sys.seed.eps0, frame)
        np.testing.assert_allclose(res.times, 0.0, atol=1e-14)
        np.testing.assert_allclose(res.endpoint, frame.base, atol=1e-14)

    def test_shift_along_generator_recovered(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        delta = 0.05
        y = frame.base + delta * np.array([1.0, 0.0, 0.0, 0.0])
        res = solve_return_times(straight_sys.family, y,
                                 straight_sys.seed.eps0, frame)
        np.testing.assert_allclose(res.times, [-delta, 0.0], atol=1e-12)
        np.testing.assert_allclose(res.endpoint, frame.base, atol=1e-11)

    def test_far_start_along_generators_returns(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        y = frame.base + np.array([1.0, -1.2, 0.0, 0.0])
        res = solve_return_times(straight_sys.family, y,
                                 straight_sys.seed.eps0, frame)
        np.testing.assert_allclose(res.times, [-1.0, 1.2], atol=1e-12)
        np.testing.assert_allclose(res.endpoint, frame.base, atol=1e-12)

    def test_variational_of_return_composition(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        y = frame.base + 0.03 * np.array([1.0, -1.0, 0.0, 0.0])
        res = solve_return_times(straight_sys.family, y,
                                 straight_sys.seed.eps0, frame,
                                 with_variational=True)
        assert res.variational is not None
        # composed return legs of the straightened family act linearly on u
        want = expm(res.times[0] * np.diag([-0.3, 0.2])
                    + res.times[1] * np.diag([0.1, -0.4]))
        np.testing.assert_allclose(res.variational[2:, 2:], want, atol=1e-9)

    def test_fields_tangent_to_section_degenerate(self, straight_sys):
        # constraints replaced so that they annihilate the generators
        frame = build_section(straight_sys.family, straight_sys.seed)
        from dataclasses import replace
        bad = replace(frame, constraints=frame.dual_transversal[:2])
        y = frame.base + 0.01 * np.array([1.0, 0.0, 1.0, 0.0])
        with pytest.raises(SingularGeometry):
            solve_return_times(straight_sys.family, y,
                               straight_sys.seed.eps0, bad)

    def test_wraps_angles_before_solving(self, straight_sys):
        frame = build_section(straight_sys.family, straight_sys.seed)
        y = frame.base.copy()
        y[0] += TWO_PI * 3
        res = solve_return_times(straight_sys.family, y,
                                 straight_sys.seed.eps0, frame)
        np.testing.assert_allclose(res.times, 0.0, atol=1e-12)


class TestChartEscape:
    def test_escape_raised_beyond_chart_radius(self):
        from pnk import Escape
        grow = Field(1, 0, lambda x, e: 10.0 * x,
                     lambda x, e: np.full((1, 1), 10.0),
                     lambda x, e: np.zeros((1, 0)), chart_radius=5.0)
        with pytest.raises(Escape):
            integrate_flow(grow, [1.0], [], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_is_not_an_escape(self, bad):
        # from the origin the first trial step carries the bad value into
        # the state; inf exceeds any radius and NaN compares false, but
        # both are NonFinite
        broken = Field(1, 0, lambda x, e: np.full(1, bad),
                       lambda x, e: np.zeros((1, 1)),
                       lambda x, e: np.zeros((1, 0)), chart_radius=5.0)
        with pytest.raises(NonFinite):
            integrate_flow(broken, [0.0], [], 1.0)
