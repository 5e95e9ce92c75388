"""Coefficient extraction, fundamental matrices, Floquet decomposition,
forced response, the block-spectrum identity, and the one integration
routine that every flow and Floquet solve goes through."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import pnk.flow
from pnk import (DegenerateTangent, NonFinite, Resonance, SingularMonodromy,
                 StepFailure, ZeroClass, block_spectrum_check,
                 extract_linearization, floquet_decompose, forced_response,
                 fundamental_matrix, integrate_flow, integrate_variational,
                 loop_field, monodromy_report, numdiff)
from pnk.floquet import FundamentalMatrix
from pnk.spectra import match_distance, sorted_complex

TWO_PI = 2.0 * math.pi
SRC = Path(__file__).resolve().parent.parent / "src" / "pnk"
A1 = np.diag([-0.3, 0.2])
A2 = np.diag([0.1, -0.4])


def _grid(count):
    return np.arange(count) / count


def _blocks(co, times, frames=None):
    """The four blocks of ``co.at`` at each time, in the frame given for
    it (``co.frame`` by default), each stacked along a first axis."""
    frames = [co.frame] * len(times) if frames is None else frames
    per_time = [co.at(t, s)[1:] for t, s in zip(times, frames)]
    return tuple(np.stack(block) for block in zip(*per_time))


class TestExtractLinearization:
    def test_straightened_blocks_constant(self, straight_sys):
        co = extract_linearization(straight_sys.family, straight_sys.seed,
                                   [1, 1])
        a, b, p, _ = _blocks(co, _grid(32))
        want = TWO_PI * (A1 + A2)
        spread = np.max(np.abs(a - want))
        assert spread <= 1e-10
        # parameter block: 2 pi (A1 + A2) C
        want_b = TWO_PI * (A1 + A2) @ np.array([[0.5], [0.25]])
        np.testing.assert_allclose(b[0], want_b, atol=1e-10)
        # angle blocks vanish for the straightened structure
        assert np.max(np.abs(p)) <= 1e-10

    def test_u_independent_transversal_part_gives_zero(self):
        # fields whose transversal components do not depend on u
        from pnk import TorusSeed, VectorFieldFamily
        fam = VectorFieldFamily(
            2, 1, 0,
            values=[lambda x, e: np.array([1.0, math.sin(x[0])])],
            jacobians=[lambda x, e: np.array([[0.0, 0.0],
                                              [math.cos(x[0]), 0.0]])])
        seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0]), np.zeros(0),
                         angle_coords=(0,))
        # u = -cos(phi) + const is not invariant; linearize anyway on u = 0:
        # dF/du = 0 identically
        co = extract_linearization(fam, seed, [1])
        assert np.max(np.abs(_blocks(co, _grid(16))[0])) <= 1e-12

    def test_hopf_radial_coefficient(self, hopf_sys):
        # in the unit radial normal, signed like the frame at t = 0
        co = extract_linearization(hopf_sys.family, hopf_sys.seed, [1])
        times = _grid(32)
        sign = np.sign(co.frame[0, 0])
        normals = [sign * np.array([[math.cos(TWO_PI * t)],
                                    [math.sin(TWO_PI * t)]]) for t in times]
        np.testing.assert_allclose(co.frame, normals[0], rtol=0, atol=1e-15)
        want = -2.0 * 0.1 * TWO_PI
        np.testing.assert_allclose(_blocks(co, times, normals)[0].ravel(),
                                   want, atol=1e-8)

    def test_zero_winding_is_rejected(self, hopf_sys):
        # the coefficients come from the loop field, which has no zero class
        with pytest.raises(ZeroClass):
            extract_linearization(hopf_sys.family, hopf_sys.seed, [0])


class TestExactCoefficients:
    """The coefficient route is as accurate as its integrator: the blocks
    are evaluated at every stage, not interpolated."""

    def test_flip_multipliers_match_the_oracle(self):
        from pnk.catalog import make_flip
        eps, d = -0.05, -0.35
        sysm = make_flip(stable_exponent=d, eps0=eps)
        co = extract_linearization(sysm.family, sysm.seed, [1])
        got = np.sort(np.linalg.eigvals(fundamental_matrix(co, co.T).Q).real)
        want = np.sort([-math.exp(TWO_PI * eps), -math.exp(TWO_PI * d)])
        np.testing.assert_allclose(got, want, rtol=2e-10, atol=0.0)

    def test_hopf_transport_gauge_multiplier(self, hopf_sys):
        # no angle coordinates: the frame is transported with Theta
        co = extract_linearization(hopf_sys.family, hopf_sys.seed, [1])
        assert co.transported
        q = fundamental_matrix(co, co.T).Q
        assert q.shape == (1, 1)
        assert abs(q[0, 0] - math.exp(-4.0 * math.pi * 0.1 / 1.0)) <= 1e-10


def _stencil_transport(family, seed, alpha, t, frame, h):
    """S' = (P' P - P P') S with P' from the 4-point projector stencil."""
    def projector(time):
        z = seed.point(TWO_PI * np.asarray(alpha, dtype=float) * time)
        q, _ = np.linalg.qr(family.generators(z, seed.eps0))
        return np.eye(family.n) - q @ q.T

    p = projector(t)
    p_dot = numdiff.directional(projector, t, 1.0, h)
    return (p_dot @ p - p @ p_dot) @ frame


class TestExactTransport:
    """A frame without angle coordinates is transported with G' = J G:
    one generator evaluation per stage, and no stencil error."""

    CASES = [("hopf", (1,)), ("oscillators", (1, 0)),
             ("oscillators", (1, 1)), ("oscillators", (2, -1))]

    @staticmethod
    def _system(name, hopf_sys):
        from pnk.catalog import make_uncoupled_oscillators
        return hopf_sys if name == "hopf" else make_uncoupled_oscillators()

    @pytest.mark.parametrize("name,alpha", CASES)
    def test_matches_the_projector_stencil(self, name, alpha, hopf_sys):
        # the k = 2 oscillators need commutation for G' = J G to hold
        sysm = self._system(name, hopf_sys)
        co = extract_linearization(sysm.family, sysm.seed, list(alpha))
        assert co.transported
        for t in (0.0, 0.13, 0.37, 0.71):
            want = _stencil_transport(sysm.family, sysm.seed, alpha, t,
                                      co.frame, 1e-4)
            np.testing.assert_allclose(co.at(t, co.frame)[0], want,
                                       rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("alpha", [(1, 0), (1, 1), (2, -1)])
    def test_oscillator_multipliers_are_one(self, alpha):
        from pnk.catalog import make_uncoupled_oscillators
        sysm = make_uncoupled_oscillators()
        co = extract_linearization(sysm.family, sysm.seed, list(alpha))
        q = fundamental_matrix(co, co.T, n_out=2).Q
        np.testing.assert_allclose(q, np.eye(2), rtol=0.0, atol=1e-12)

    def test_one_generator_evaluation_per_stage(self, hopf_sys, monkeypatch):
        family = hopf_sys.family
        co = extract_linearization(family, hopf_sys.seed, [1])
        counts = {"generators": 0, "rhs": 0}
        real_generators = family.generators
        real_integrate = pnk.flow.integrate

        def generators(*args):
            counts["generators"] += 1
            return real_generators(*args)

        def integrate(rhs, *args, **kwargs):
            def counted(*rhs_args):
                counts["rhs"] += 1
                rhs(*rhs_args)
            return real_integrate(counted, *args, **kwargs)

        monkeypatch.setattr(family, "generators", generators)
        monkeypatch.setattr(pnk.flow, "integrate", integrate)
        q = fundamental_matrix(co, 1.0, n_out=2).Q
        assert counts["rhs"] > 0
        assert counts["generators"] == counts["rhs"]
        assert abs(q[0, 0] - math.exp(-0.4 * math.pi)) <= 1e-12


def _twisted_loop():
    """A loop whose transported normal frame does not return: n = 3,
    k = 1, gamma(phi) = (cos phi, sin phi, sin phi + sin 2 phi) and
    X(x) = gamma'(atan2(x1, x0)), without angle coordinates."""
    from pnk import TorusSeed, VectorFieldFamily

    def value(x, eps):
        phi = math.atan2(x[1], x[0])
        return np.array([-math.sin(phi), math.cos(phi),
                         math.cos(phi) + 2.0 * math.cos(2.0 * phi)])

    family = VectorFieldFamily(3, 1, 1, [value])
    seed = TorusSeed(1, lambda phi: np.array([
        math.cos(phi[0]), math.sin(phi[0]),
        math.sin(phi[0]) + math.sin(2.0 * phi[0])]), np.zeros(1))
    return family, seed


class TestHolonomy:
    def test_twisted_frame_is_refused(self):
        family, seed = _twisted_loop()
        co = extract_linearization(family, seed, [1])
        with pytest.raises(DegenerateTangent, match="holonomy"):
            fundamental_matrix(co, co.T)

    def test_twisted_frame_run_exits_3(self, tmp_path, monkeypatch):
        import pnk.cli
        from pnk.config import RunSetup, parse_config
        family, seed = _twisted_loop()
        monkeypatch.setattr(pnk.cli, "build_run",
                            lambda config: RunSetup(family, seed, None))
        config = parse_config({"system": {"name": "hopf"},
                               "analysis": "floquet",
                               "options": {"alpha": [1]}})
        report, code = pnk.cli.run_config(config, tmp_path)
        assert code == pnk.cli.EXIT_NUMERICAL
        assert report["error"]["type"] == "DegenerateTangent"


class TestFundamentalMatrix:
    def test_zero_coefficient_gives_identity(self):
        fm = fundamental_matrix(np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(fm.Q, np.eye(2), atol=1e-12)

    def test_scalar_cosine_average(self):
        fm = fundamental_matrix(lambda t: [[-0.3 + math.cos(t)]], TWO_PI,
                                tol=1e-12)
        assert fm.Q[0, 0] == pytest.approx(math.exp(-0.6 * math.pi),
                                           abs=1e-10)

    def test_constant_matrix_exponential(self):
        a = np.array([[0.1, -0.6], [0.4, -0.2]])
        fm = fundamental_matrix(a, 1.5, tol=1e-12)
        np.testing.assert_allclose(fm.Q, expm(1.5 * a), atol=1e-10)

    @pytest.mark.parametrize("solve", [
        lambda n_out: fundamental_matrix(np.zeros((1, 1)), 1.0, n_out=n_out),
        lambda n_out: forced_response(lambda t: [[-1.0]], lambda t: [1.0],
                                      1.0, n_out=n_out),
    ], ids=["fundamental_matrix", "forced_response"])
    def test_samples_hold_both_ends(self, solve):
        # one sample would be overwritten by the end of the period, and a
        # periodicity defect would compare that sample with itself
        with pytest.raises(ValueError, match="n_out must be at least 2"):
            solve(1)
        np.testing.assert_array_equal(solve(2).times, [0.0, 1.0])

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("solve", [
        lambda ahat, T: fundamental_matrix(ahat, T),
        lambda ahat, T: forced_response(ahat, ahat, T),
    ], ids=["fundamental_matrix", "forced_response"])
    def test_period_must_be_finite_and_positive(self, solve, period):
        # refused before a coefficient is evaluated, and without a warning
        def untouched(t):
            raise AssertionError("coefficient evaluated")

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError,
                               match="period must be finite and positive"):
                solve(untouched, period)


class TestIntegrationFailures:
    def test_nan_coefficient_stops_at_the_budget(self):
        calls = [0]

        def nan_coefficient(t):
            calls[0] += 1
            return [[float("nan")]]

        with pytest.raises((NonFinite, StepFailure)):
            fundamental_matrix(nan_coefficient, 1.0)
        # one probe call sizes the matrix; the rest are right-hand sides
        assert calls[0] <= pnk.flow.MAX_EVALS + 1

    def test_overflow_is_an_integration_failure(self):
        with pytest.raises((NonFinite, StepFailure)):
            fundamental_matrix(lambda t: [[1e3]], 10.0)

    def test_tolerance_below_scipy_floor_rejected(self):
        with pytest.raises(ValueError, match="MIN_TOL"):
            fundamental_matrix(np.zeros((1, 1)), 1.0, tol=1e-16)


class TestOneIntegrator:
    def test_every_integration_reaches_the_one_call(self, monkeypatch,
                                                     hopf_sys):
        # flow and floquet both look flow.integrate up on the module at
        # call time, so this one patch sees every integration
        calls = []
        real = pnk.flow.integrate

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(pnk.flow, "integrate", counted)
        fam, seed = hopf_sys.family, hopf_sys.seed
        field = loop_field(fam, [1])
        x0, eps = seed.base_point, seed.eps0
        assert not seed.angle_coords  # so the frame transport runs
        runs = {
            "integrate_flow": lambda: integrate_flow(field, x0, eps, 0.5),
            "sampled_flow": lambda: integrate_flow(field, x0, eps, 0.5,
                                                   times=[0.25, 0.5]),
            "integrate_variational": lambda: integrate_variational(
                field, x0, eps, 0.5),
            "fundamental_matrix": lambda: fundamental_matrix(
                lambda t: [[-1.0]], 1.0),
            "forced_response": lambda: forced_response(
                lambda t: [[-1.0]], lambda t: [1.0], 1.0),
            "coefficients": lambda: fundamental_matrix(
                extract_linearization(fam, seed, [1]), 1.0),
        }
        for name, run in runs.items():
            before = len(calls)
            run()
            assert len(calls) > before, name

    def test_no_module_calls_solve_ivp(self):
        # flow.integrate owns the DOP853 step loop; no second path around it
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {alias.name for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     for alias in node.names}
            names |= {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
            assert "solve_ivp" not in names, path.name


class TestFloquetDecompose:
    def test_scalar_cosine_solution(self):
        # u' = (a + cos t) u solves to exp(a t + sin t): B = a, M = exp(sin t)
        a = -0.3
        fm = fundamental_matrix(lambda t: [[a + math.cos(t)]], TWO_PI,
                                tol=1e-12, n_out=65)
        dec = floquet_decompose(fm)
        assert dec.B[0, 0] == pytest.approx(a, abs=1e-10)
        for t, m in zip(dec.times, dec.periodic_part):
            assert m[0, 0] == pytest.approx(math.exp(math.sin(t)), abs=1e-9)
        assert dec.real_form

    def test_identity_monodromy(self):
        fm = fundamental_matrix(np.zeros((2, 2)), 1.0)
        dec = floquet_decompose(fm)
        np.testing.assert_allclose(dec.B, 0.0, atol=1e-12)
        np.testing.assert_allclose(dec.periodic_part[-1], np.eye(2),
                                   atol=1e-12)

    def test_negative_multiplier_complex_branch(self):
        samples = np.stack([np.eye(1), -0.5 * np.eye(1)])
        fm = FundamentalMatrix(np.array([0.0, 1.0]), samples,
                               -0.5 * np.eye(1), 1.0)
        dec = floquet_decompose(fm)
        assert not dec.real_form
        assert dec.exponents[0].imag == pytest.approx(math.pi, abs=1e-12)
        assert dec.exponents[0].real == pytest.approx(math.log(0.5),
                                                      abs=1e-12)

    def test_reconstruction_and_periodicity(self):
        fm = fundamental_matrix(lambda t: [[-0.3 + math.cos(t)]], TWO_PI,
                                tol=1e-12, n_out=33)
        dec = floquet_decompose(fm)
        for i, t in enumerate(dec.times):
            recon = dec.periodic_part[i] @ expm(dec.B * t)
            np.testing.assert_allclose(recon, fm.samples[i], atol=1e-10)
        assert dec.periodicity_defect <= 1e-10
        assert dec.log_residual <= 1e-10

    def test_singular_monodromy_rejected(self):
        samples = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        fm = FundamentalMatrix(np.array([0.0, 1.0]), samples,
                               np.diag([1.0, 0.0]), 1.0)
        with pytest.raises(SingularMonodromy):
            floquet_decompose(fm)


class TestForcedResponse:
    def test_constant_forcing_equilibrium(self):
        fr = forced_response(lambda t: [[-1.0]], lambda t: [1.0], TWO_PI,
                             tol=1e-11)
        np.testing.assert_allclose(fr.samples, 1.0, atol=1e-9)

    def test_resonant_zero_coefficient(self):
        with pytest.raises(Resonance):
            forced_response(lambda t: [[0.0]], lambda t: [1.0], TWO_PI)

    def test_cosine_forcing(self):
        fr = forced_response(lambda t: [[-1.0]], lambda t: [math.cos(t)],
                             TWO_PI, tol=1e-11)
        want = 0.5 * (np.cos(fr.times) + np.sin(fr.times))
        np.testing.assert_allclose(fr.samples[:, 0], want, atol=1e-9)
        assert fr.periodicity_residual <= 1e-9

    def test_response_flows_back_to_start(self):
        fr = forced_response(lambda t: [[-0.4]], lambda t: [math.sin(2 * t)],
                             math.pi, tol=1e-11)
        assert fr.periodicity_residual <= 1e-9


class TestBlockSpectrum:
    def test_diagonal_example(self):
        rep = block_spectrum_check(np.diag([2.0, 3.0]), np.array([[1.0],
                                                                  [7.0]]))
        np.testing.assert_allclose(np.sort(rep.spectrum.real), [0.0, 2.0, 3.0],
                                   atol=1e-12)
        assert rep.passed

    def test_zero_forcing_block(self, rng):
        a = rng.normal(size=(3, 3))
        rep = block_spectrum_check(a, np.zeros((3, 2)))
        assert rep.passed

    def test_zero_dynamics_block(self):
        rep = block_spectrum_check(np.zeros((2, 2)), np.ones((2, 3)))
        np.testing.assert_allclose(rep.spectrum, 0.0, atol=1e-12)
        assert rep.passed

    def test_random_pairs(self, rng):
        for _ in range(20):
            r = int(rng.integers(1, 6))
            p = int(rng.integers(1, 6))
            rep = block_spectrum_check(rng.normal(size=(r, r)),
                                       rng.normal(size=(r, p)))
            assert rep.max_distance <= 1e-10


class TestConsistencyWithMonodromy:
    @pytest.mark.parametrize("system,alpha", [
        ("straight", (1, 0)), ("straight", (1, 1)), ("hopf", (1,)),
        ("flip", (1,)),
    ])
    def test_coefficient_route_matches_variational_route(
            self, system, alpha, straight_sys, hopf_sys):
        if system == "flip":
            from pnk.catalog import make_flip
            sysm = make_flip()  # genuinely time-dependent coefficients
        else:
            sysm = straight_sys if system == "straight" else hopf_sys
        rep = monodromy_report(sysm.family, sysm.seed, list(alpha))
        co = extract_linearization(sysm.family, sysm.seed, list(alpha))
        fm = fundamental_matrix(co, co.T)
        got = sorted_complex(np.linalg.eigvals(fm.Q))
        assert match_distance(got, rep.transversal_spectrum) <= 1e-9
