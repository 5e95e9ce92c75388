"""Flow integration, variational flows, and section return solves."""

import math
import re
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import OdeSolver, solve_ivp
from scipy.integrate._ivp import common as scipy_common
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp import rk as scipy_rk
from scipy.linalg import expm

import pnk._dop853
import pnk.flow
from pnk import (Field, NonFinite, SingularGeometry, StepFailure,
                 build_section, extract_linearization, fundamental_matrix,
                 integrate_flow, integrate_variational, loop_field,
                 solve_return_times)
from pnk.catalog import (make_flip, make_hopf, make_neimark,
                         make_uncoupled_oscillators)
from pnk.flow import MIN_TOL

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
        # MIN_TOL is scipy's rtol floor; a smaller tol is refused
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


def _orbit(field, x0, eps, times):
    """The samples of an integrate_flow run to the last of the times."""
    return integrate_flow(field, x0, eps, times[-1], times=times).samples


class TestIntegrateOrbit:
    """Orbits sampled at many times by one integrate_flow run."""

    X0 = np.array([0.3, 0.4])
    TIMES = np.arange(1, 32) / 16.0

    def test_samples_match_matrix_exponential(self):
        got = _orbit(LIN2, self.X0, [], self.TIMES)
        assert got.shape == (self.TIMES.size, 2)
        want = np.array([expm(A_LIN * t) @ self.X0 for t in self.TIMES])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_last_sample_is_the_flow_endpoint(self):
        got = _orbit(LIN2, self.X0, [], self.TIMES)
        end = integrate_flow(LIN2, self.X0, [], self.TIMES[-1]).endpoint
        np.testing.assert_allclose(got[-1], end, rtol=0, atol=1e-10)

    def test_time_zero_sample_is_the_start(self):
        x0 = np.array([0.3, -0.1 / 3.0])
        got = _orbit(LIN2, x0, [], [0.0, 0.5, 1.0])
        assert got[0].tobytes() == x0.tobytes()

    def test_blowup_failure_modes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # the step size collapses before the first sample is reached
            square = _field(1, lambda x, e: x * x * 1e8,
                            lambda x, e: 2e8 * x.reshape(1, 1))
            with pytest.raises(StepFailure):
                _orbit(square, [1.0], [], [0.5, 10.0])
            grow = _field(1, lambda x, e: 100.0 * x,
                          lambda x, e: np.full((1, 1), 100.0))
            with pytest.raises(NonFinite):
                _orbit(grow, [1.0], [], [1.0, 10.0])

    # a time-0 sample is legal (see above); one before the start is not
    @pytest.mark.parametrize("times", [[], [-0.5, 1.0], [0.5, 0.5],
                                       [1.0, 0.5], [0.5, np.inf]])
    def test_bad_sample_times_rejected(self, times):
        with pytest.raises(ValueError):
            integrate_flow(LIN2, self.X0, [], 1.0, times=times)


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


class _ScalarOperandSpy:
    """numpy, except that multiply, add and divide record each operand
    that is a Python float or int (a numpy float64 scalar is a float)."""

    def __init__(self):
        self.seen = []
        for name in ("multiply", "add", "divide"):
            setattr(self, name, self._recording(getattr(np, name)))

    def _recording(self, ufunc):
        def call(*args, **kwargs):
            self.seen += [(ufunc.__name__, type(a).__name__) for a in args
                          if isinstance(a, (float, int))]
            return ufunc(*args, **kwargs)
        return call

    def __getattr__(self, name):  # every name not set in __init__
        return getattr(np, name)


def test_stepping_ufuncs_take_no_python_scalar(monkeypatch):
    """The step size, the loop scales and the tolerances reach flow's
    ufuncs as 0-d arrays, which numpy 2 takes faster than Python floats
    for the same bits. The spy sees the dense output on a step that holds
    two times (the first Neimark orbit) and on steps that hold one time
    each (the second)."""
    spy = _ScalarOperandSpy()
    monkeypatch.setattr(pnk.flow, "np", spy)
    hopf, neimark = make_hopf(1.0, 0.1), make_neimark()
    oscillators = make_uncoupled_oscillators()
    integrate_variational(loop_field(hopf.family, [1]), hopf.seed.base_point,
                          hopf.seed.eps0, 1.0)
    orbit = integrate_flow(loop_field(neimark.family, [1]),
                           neimark.seed.base_point, neimark.seed.eps0, 1.0,
                           times=[0.25, 0.5, 1.0])
    # from the base point the steps end near 0.011, 0.098, 0.87 and 1
    single = integrate_flow(loop_field(neimark.family, [1]),
                            neimark.seed.base_point, neimark.seed.eps0, 1.0,
                            times=[0.05, 0.5, 1.0])
    integrate_flow(hopf.family.member(0), hopf.seed.base_point,
                   hopf.seed.eps0, 0.5)
    integrate_flow(loop_field(oscillators.family, [2, -1]),
                   oscillators.seed.base_point, oscillators.seed.eps0, 1.0)
    assert orbit.samples.shape == single.samples.shape == (3, neimark.family.n)
    assert spy.seen == []


def test_right_hand_sides_get_views_built_once(monkeypatch):
    """Every stage hands the right-hand side one of a few objects that
    the run built at its start: the stage state, the two accepted states
    and the initial slope's state, and the stage rows. A variational run
    and a transported Floquet run hand over their blocks, so neither
    right-hand side slices a whole state. A view made per stage, by the
    integrator or for a right-hand side, fails here."""
    handed = []
    integrate = pnk.flow.integrate

    def spying(rhs, *args, **kwargs):
        def spy(t, y, out):
            handed.append((y, out))
            rhs(t, y, out)
        return integrate(spy, *args, **kwargs)

    monkeypatch.setattr(pnk.flow, "integrate", spying)
    hopf = make_hopf(1.0, 0.1)
    loop = loop_field(hopf.family, [1])
    x0, eps = hopf.seed.base_point, hopf.seed.eps0
    runs = {
        "plain": (lambda: integrate_flow(loop, x0, eps, 1.0,
                                         times=[0.5, 1.0]), np.ndarray),
        "variational": (lambda: integrate_variational(loop, x0, eps, 1.0),
                        tuple),
        "floquet": (lambda: fundamental_matrix(
            extract_linearization(hopf.family, hopf.seed, [1]), 1.0),
            tuple),
    }
    for name, (run, kind) in runs.items():
        handed.clear()
        run()
        assert len(handed) > 200, name
        assert all(type(y) is type(out) is kind for y, out in handed), name
        # handed keeps every object alive, so no two share an id
        assert len({id(y) for y, _ in handed}) <= 4, name
        assert len({id(out) for _, out in handed}) <= 15, name


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
        bad = frame._replace(constraints=frame.dual_transversal[:2])
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
    """A state that is not finite is refused as NonFinite on every path."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_is_not_an_escape(self, bad):
        # from the origin the first trial step carries the bad value into
        # the state: NaN compares false to any bound, and both are NonFinite
        broken = Field(1, 0, lambda x, e: np.full(1, bad),
                       lambda x, e: np.zeros((1, 1)),
                       lambda x, e: np.zeros((1, 0)))
        with pytest.raises(NonFinite):
            integrate_flow(broken, [0.0], [], 1.0)

    # the three paths that check states: plain flow, sampled orbit and
    # variational flow, each run from x0 for time 1
    PATHS = {
        "plain": lambda f, x0: integrate_flow(f, x0, [], 1.0),
        "orbit": lambda f, x0: integrate_flow(f, x0, [], 1.0,
                                              times=[0.5, 1.0]),
        "variational": lambda f, x0: integrate_variational(f, x0, [], 1.0),
    }

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_second_entry_is_not_an_escape(self, path, bad):
        # once x[0] passes 1e-3 the derivative is (1e12, bad): the next
        # stage state has a large finite leading entry and a bad second
        # entry, and the bad entry decides
        def value(x, e):
            return np.array([1.0, 0.0] if x[0] < 1e-3 else [1e12, bad])

        broken = Field(2, 0, value, lambda x, e: np.zeros((2, 2)),
                       lambda x, e: np.zeros((2, 0)))
        with pytest.raises(NonFinite):
            self.PATHS[path](broken, [0.0, 0.0])


def _hopf_variational():
    """The 6-dimensional variational system of the Hopf loop field, as
    solve_ivp takes it (returning a new array, as pnk wrote it before
    owning the step loop) and as flow.integrate takes it (writing in place)."""
    field = loop_field(make_hopf(1.0, 0.1).family, [1])
    eps = np.array([0.12])

    def returned(_t, y):
        m = y[2:].reshape(2, 2)
        return np.concatenate([field.value(y[:2], eps),
                               (field.jacobian(y[:2], eps) @ m).ravel()])

    def written(_t, y, out):
        out[:2] = field.value(y[:2], eps)
        np.matmul(field.jacobian(y[:2], eps), y[2:].reshape(2, 2),
                  out=out[2:].reshape(2, 2))

    y0 = np.concatenate([[0.33, 0.05], np.eye(2).ravel()])
    return returned, written, y0


def _van_der_pol(_t, y):
    return np.array([y[1], 2.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])


def _square(_t, y):
    return 1e8 * y * y


def _overflow(t, _y):
    # from 1e308 the state overflows to inf near t = 8 and the steps are
    # still accepted; from t = 9 every trial step is rejected
    return np.full(1, 1e307 if t < 9.0 else np.nan)


def _written(returned):
    def rhs(t, y, out):
        out[:] = returned(t, y)
    return rhs


class TestOwnStepLoop:
    """flow.integrate repeats solve_ivp(method="DOP853") bit for bit.

    Every number pnk reports comes from flow.integrate, which owns the
    DOP853 step loop so that right-hand sides write their stages in place. These
    tests run it beside scipy's solver on the same problems and demand
    equal end states, step counts, samples and right-hand-side call
    counts; a scipy release that changes the tableau, the controller or
    the dense output fails here. pnk runs at tol = RTOL take scipy's
    (RTOL, ATOL) pair, since atol = tol / 100."""

    RTOL, ATOL = 1e-10, 1e-12

    def _ours(self, written, y0, t, times=None):
        """flow.integrate and the number of right-hand-side calls it made."""
        calls = [0]

        def counted(s, y, out):
            calls[0] += 1
            written(s, y, out)

        run = pnk.flow.integrate(counted, y0, t, self.RTOL, times)
        return run, calls[0]

    def _scipy(self, returned, y0, t, **kwargs):
        ref = solve_ivp(returned, (0.0, t), y0, method="DOP853",
                        rtol=self.RTOL, atol=self.ATOL, **kwargs)
        assert ref.status == 0
        return ref

    def _plain(self, written, returned, y0, t):
        """Compare a run without samples with scipy's: end state, step
        count and right-hand-side calls."""
        ours, calls = self._ours(written, y0, t)
        ref = self._scipy(returned, y0, t)
        assert np.array_equal(ours.endpoint, ref.y[:, -1])
        # scipy counts a zero-length run as one step that stays put
        assert ours.steps_taken == (len(ref.t) - 1 if t else 0)
        assert ours.samples is None
        assert calls == ref.nfev
        return ours, ref

    def _sampled(self, written, returned, y0, t, times):
        """Compare a sampled run with scipy's t_eval run: samples and
        right-hand-side calls."""
        ours, calls = self._ours(written, y0, t, times)
        ref = self._scipy(returned, y0, t, t_eval=times)
        assert np.array_equal(ours.samples, ref.y.T)
        assert calls == ref.nfev
        return ours, ref

    @pytest.mark.parametrize("t", [1.0, -0.7, 0.0])
    def test_hopf_variational(self, t):
        returned, written, y0 = _hopf_variational()
        self._plain(written, returned, y0, t)

    def test_integrate_variational_is_the_same_run(self):
        returned, _, y0 = _hopf_variational()
        ref = self._scipy(returned, y0, 1.0)
        res = integrate_variational(loop_field(make_hopf(1.0, 0.1).family,
                                               [1]), y0[:2], [0.12], 1.0)
        assert np.array_equal(res.endpoint, ref.y[:2, -1])
        assert np.array_equal(res.tangent, ref.y[2:, -1].reshape(2, 2))
        assert res.steps_taken == len(ref.t) - 1

    def test_t_eval_samples(self):
        returned, written, y0 = _hopf_variational()
        plain, _ = self._ours(written, y0, 1.0)
        grid = np.linspace(0.0, 1.0, 9)
        for times in (grid[1:], grid):
            ours, _ = self._sampled(written, returned, y0, 1.0, times)
            # sampling adds stages but moves no step
            assert np.array_equal(ours.endpoint, plain.endpoint)
            assert ours.steps_taken == plain.steps_taken

    @pytest.mark.parametrize("t", [-1.0, 0.0])
    def test_t_eval_needs_a_positive_time(self, t):
        _, written, y0 = _hopf_variational()
        with pytest.raises(ValueError, match="positive t"):
            pnk.flow.integrate(written, y0, t, self.RTOL, [0.5])

    @pytest.mark.parametrize("times", [[0.7, 0.3], [0.3, 0.3],
                                       [np.nan, 0.5], [0.3, np.nan]],
                             ids=["unsorted", "repeated", "nan-first",
                                  "nan-last"])
    def test_sample_times_must_rise(self, times):
        # a time behind the step that samples it would be read off the
        # dense output outside that step
        _, written, y0 = _hopf_variational()
        with pytest.raises(ValueError, match="strictly increasing"):
            pnk.flow.integrate(written, y0, 1.0, self.RTOL, times)

    def test_dense_output_at_interior_times(self):
        returned, written, y0 = _hopf_variational()
        inner = np.linspace(0.0, 1.0, 23)[1:-1]
        ours, _ = self._ours(written, y0, 1.0, inner)
        ref = self._scipy(returned, y0, 1.0, dense_output=True)
        assert np.array_equal(ours.samples, ref.sol(inner).T)

    def _dense_run(self, times):
        """A sampled Hopf run checked against scipy's t_eval run and its
        dense output, and the number of times each of its steps holds."""
        returned, written, y0 = _hopf_variational()
        ours, ref = self._sampled(written, returned, y0, 1.0, times)
        dense = self._scipy(returned, y0, 1.0, dense_output=True)
        assert np.array_equal(ours.samples, dense.sol(times).T)
        assert ours.steps_taken == len(dense.t) - 1
        # the step that holds each time: the first step ending at or after it
        holder = np.searchsorted(dense.t[1:], times, side="left")
        return ours, np.bincount(holder, minlength=ours.steps_taken)

    def test_one_time_per_step(self):
        # 0.1 apart, where no step is longer than 0.05: t = 0 and ten
        # more, each alone on its step
        ours, held = self._dense_run(np.linspace(0.0, 1.0, 11))
        assert held.max() == 1 and held.sum() == 11
        assert ours.samples[0].tobytes() == _hopf_variational()[2].tobytes()

    def test_several_times_on_every_step(self):
        _, held = self._dense_run(np.linspace(0.0, 1.0, 2001))
        assert held.min() >= 2

    def test_times_at_step_ends(self):
        # each step alone holds its end time (x = 1), then each holds its
        # end among others
        returned, _, y0 = _hopf_variational()
        ends = self._scipy(returned, y0, 1.0).t[1:]
        _, held = self._dense_run(ends)
        assert held.max() == 1
        _, held = self._dense_run(
            np.union1d(ends, np.linspace(0.0, 1.0, 2001)))
        assert held.min() >= 2

    def test_rejected_steps(self):
        y0 = np.array([2.0, 0.0])
        _, ref = self._plain(_written(_van_der_pol), _van_der_pol, y0, 10.0)
        # 12 calls per trial step and 2 to start: some trials failed
        rejected = (ref.nfev - 2) // 12 - (len(ref.t) - 1)
        assert rejected > 0

    def test_step_raised_to_the_smallest(self):
        # over t = 1e-323 the initial step, 1e-323, is below 10 spacings
        # of t = 0 (4.9e-323): the trial starts there, is cut back to the
        # span and passes, as scipy's does
        returned, written, y0 = _hopf_variational()
        ours, _ = self._plain(written, returned, y0, 1e-323)
        assert ours.steps_taken == 1

    @pytest.mark.parametrize("returned, y0, t_eval, want", [
        (_square, 1.0, None, StepFailure),
        (_square, 1.0, [1e-9, 5.0], StepFailure),
        (_square, 1.0, [5.0], StepFailure),  # no sample reached
        (_overflow, 1e308, None, NonFinite)])
    def test_too_small_step(self, returned, y0, t_eval, want):
        y0 = np.array([y0])
        with np.errstate(over="ignore", invalid="ignore"):
            plain = solve_ivp(returned, (0.0, 10.0), y0, method="DOP853",
                              rtol=self.RTOL, atol=self.ATOL)
            ref = solve_ivp(returned, (0.0, 10.0), y0, method="DOP853",
                            rtol=self.RTOL, atol=self.ATOL, t_eval=t_eval)
        assert plain.status == ref.status == -1
        # the last state the stepper accepted is inf exactly for NonFinite
        assert np.all(np.isfinite(plain.y[:, -1])) == (want is StepFailure)
        calls = [0]

        def counted(s, y, out):
            calls[0] += 1
            out[:] = returned(s, y)

        with pytest.raises(want, match=re.escape(ref.message)):
            pnk.flow.integrate(counted, y0, 10.0, self.RTOL, t_eval)
        assert calls[0] == ref.nfev

    def test_budget_counts_every_call(self, monkeypatch):
        # the budget sees the start-up calls and the dense-output stages
        returned, written, y0 = _hopf_variational()
        times = np.linspace(0.0, 1.0, 9)
        _, ref = self._sampled(written, returned, y0, 1.0, times)
        monkeypatch.setattr(pnk.flow, "MAX_EVALS", ref.nfev - 1)
        with pytest.raises(StepFailure, match="field evaluations"):
            pnk.flow.integrate(written, y0, 1.0, self.RTOL, times)
        monkeypatch.setattr(pnk.flow, "MAX_EVALS", ref.nfev)
        pnk.flow.integrate(written, y0, 1.0, self.RTOL, times)

    @pytest.mark.parametrize("budget", ["first-trial", "first-dense",
                                        "last-dense"])
    def test_budget_is_charged_per_batch(self, monkeypatch, budget):
        # a budget inside a batch refuses the whole batch before it runs:
        # 2 start-up calls, then 11 trial stages, the end-of-step call and,
        # on a step that holds a sample (t = 0 on the first), 3 dense
        # stages; the last step samples t = 1
        returned, written, y0 = _hopf_variational()
        times = np.linspace(0.0, 1.0, 9)
        _, ref = self._sampled(written, returned, y0, 1.0, times)
        limit = {"first-trial": 7, "first-dense": 16,
                 "last-dense": ref.nfev - 2}[budget]
        monkeypatch.setattr(pnk.flow, "MAX_EVALS", limit)
        calls = [0]

        def counted(s, y, out):
            calls[0] += 1
            written(s, y, out)

        with pytest.raises(StepFailure, match="field evaluations"):
            pnk.flow.integrate(counted, y0, 1.0, self.RTOL, times)
        assert calls[0] == {"first-trial": 2, "first-dense": 14,
                            "last-dense": ref.nfev - 3}[budget]


class TestTableauCopy:
    """pnk._dop853 copies scipy's DOP853 tableau and step rules from its
    private ``scipy.integrate._ivp`` modules; every number in it equals
    scipy's. This also guards the dense-output rows D, which only sampled
    runs reach."""

    @pytest.mark.parametrize("name", ["N_STAGES", "N_STAGES_EXTENDED",
                                      "INTERPOLATOR_POWER", "C", "A", "B",
                                      "E3", "E5", "D"])
    def test_tableau(self, name):
        assert np.array_equal(getattr(pnk._dop853, name),
                              getattr(dop853_coefficients, name))

    def test_controller_and_message(self):
        assert pnk._dop853.SAFETY == scipy_rk.SAFETY
        assert pnk._dop853.MIN_FACTOR == scipy_rk.MIN_FACTOR
        assert pnk._dop853.MAX_FACTOR == scipy_rk.MAX_FACTOR
        assert pnk._dop853.TOO_SMALL_STEP == OdeSolver.TOO_SMALL_STEP

    @pytest.mark.parametrize("t", [1.0, -0.7])
    @pytest.mark.parametrize("start", ["hopf", "zero"])
    def test_initial_step(self, start, t):
        if start == "hopf":
            fun, _, y0 = _hopf_variational()
        else:
            y0 = np.array([0.3, -0.7])

            def fun(_t, y):
                return np.zeros_like(y)
        args = (fun, 0.0, y0, t, np.inf, fun(0.0, y0), np.sign(t), 7,
                TestOwnStepLoop.RTOL, TestOwnStepLoop.ATOL)
        assert (pnk._dop853.select_initial_step(*args)
                == scipy_common.select_initial_step(*args))


class TestShapedStates:
    """flow.integrate steps a state of any shape on its flat row-major
    form: the run of a 2-D or 3-D y0 is the run of y0.ravel() bit for bit,
    in end state, steps, samples and right-hand-side calls, and the
    right-hand side sees states and stage rows in y0's shape."""

    RTOL = TestOwnStepLoop.RTOL

    def _run(self, rhs, y0, t, times):
        """flow.integrate, its right-hand-side calls and the shapes of
        the arrays the right-hand side saw."""
        calls, shapes = [0], set()

        def counted(s, y, out):
            calls[0] += 1
            shapes.update([y.shape, out.shape])
            rhs(s, y, out)

        run = pnk.flow.integrate(counted, y0, t, self.RTOL, times)
        return run, calls[0], shapes

    def _assert_same_run(self, shaped_rhs, y0, flat_rhs, t, times):
        ours, calls, shapes = self._run(shaped_rhs, y0, t, times)
        flat, flat_calls, _ = self._run(flat_rhs, y0.ravel(), t, times)
        assert shapes == {y0.shape}
        assert ours.endpoint.shape == y0.shape
        assert ours.endpoint.tobytes() == flat.endpoint.tobytes()
        assert (ours.steps_taken, calls) == (flat.steps_taken, flat_calls)
        if times is None:
            assert ours.samples is None
        else:
            assert ours.samples.shape == (len(times),) + y0.shape
            assert ours.samples.tobytes() == flat.samples.tobytes()

    RUNS = pytest.mark.parametrize("t, times", [
        (1.0, None), (-0.7, None), (1.0, np.linspace(0.0, 1.0, 9)),
        (1.0, np.linspace(0.0, 1.0, 23)[1:-1])],
        ids=["forward", "backward", "sampled", "interior"])

    @RUNS
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 3, 2), (3, 2, 1)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_shaped_run_is_the_flat_run(self, t, times, shape, order):
        # the shaped right-hand side writes through flat views of its
        # arguments, so it only works on row-major stage rows
        _, written, y0 = _hopf_variational()

        def shaped(s, y, out):
            flat = out.reshape(-1)
            assert np.shares_memory(flat, out)
            written(s, y.reshape(-1), flat)

        y0 = np.asarray(y0.reshape(shape), order=order)
        self._assert_same_run(shaped, y0, written, t, times)

    @RUNS
    def test_variational_state_as_one_array(self, t, times):
        # [x; M] as one (3, 2) array with the tangent product by .dot runs
        # as the flat system with np.matmul
        field = loop_field(make_hopf(1.0, 0.1).family, [1])
        eps = np.array([0.12])
        _, written, y0 = _hopf_variational()

        def stacked(_t, y, out):
            out[0] = field.value(y[0], eps)
            field.jacobian(y[0], eps).dot(y[1:], out=out[1:])

        self._assert_same_run(stacked, y0.reshape(3, 2), written, t, times)

    @pytest.mark.parametrize("slope", [-0.0, 0.0, -1.0, 0.3])
    @pytest.mark.parametrize("x0", [0.0, -0.0, 0.5])
    def test_length_one_tangent_product(self, slope, x0):
        # for n = 1, .dot returns the bare product jac * M where np.matmul
        # adds it to +0.0: a stage entry may differ in the sign of a zero,
        # which the step sums do not keep
        field = _field(1, lambda x, e: slope * x,
                       lambda x, e: np.array([[slope]]))

        def flat(_t, y, out):
            out[:1] = field.value(y[:1], None)
            np.matmul(field.jacobian(y[:1], None), y[1:].reshape(1, 1),
                      out=out[1:].reshape(1, 1))

        ref = pnk.flow.integrate(flat, [x0, 1.0], 1.0, self.RTOL)
        res = integrate_variational(field, [x0], [], 1.0)
        got = np.concatenate([res.endpoint, res.tangent.ravel()])
        assert got.tobytes() == ref.endpoint.tobytes()
        assert res.steps_taken == ref.steps_taken


class TestErrorNorm:
    """flow._error_norm works on Python floats and returns scipy's DOP853
    error norm, np.linalg.norm on numpy scalars, bit for bit. A NaN norm
    stands for any NaN, since the controller only compares it: it rejects
    the step."""

    @staticmethod
    def _norms(K, h, scale):
        n = scale.size
        tableau = types.SimpleNamespace(E5=dop853_coefficients.E5,
                                        E3=dop853_coefficients.E3)
        # as in the step loop, where NonFinite reports a blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            ours = pnk.flow._error_norm(K.T, abs(h), scale, np.empty(n),
                                        np.empty(n))
            ref = scipy_rk.DOP853._estimate_error_norm(tableau, K, h, scale)
        assert type(ours) is float
        if math.isnan(ref):
            assert math.isnan(ours)
        else:
            assert np.float64(ours).tobytes() == np.float64(ref).tobytes()
        return ours

    def test_random_errors(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            K = rng.standard_normal((13, n)) * 10.0 ** rng.integers(-12, 4)
            scale = 1e-12 + np.abs(rng.standard_normal(n)) * 1e-10
            h = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-6, 1.0))
            self._norms(K, h, scale)

    def test_zero_error_is_zero(self):
        for n in (1, 4):
            assert self._norms(np.zeros((13, n)), 0.3, np.ones(n)) == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e200],
                             ids=["inf", "-inf", "nan", "overflowing"])
    def test_non_finite_error_rejects(self, bad):
        K = np.full((13, 3), 0.5)
        K[7, 1] = bad
        assert not self._norms(K, 0.1, np.full(3, 1e-10)) < 1

    def test_underflowing_error_is_numpy_zero_over_zero(self):
        # err5 squares to 0 and 0.01 * |err3|^2 underflows: scipy divides
        # 0 by 0, and the norm is NaN
        K = np.zeros((13, 1))
        K[5, 0] = 1e-162
        assert math.isnan(self._norms(K, 0.1, np.ones(1)))
