"""Coefficient extraction, fundamental matrices, Floquet decomposition,
forced response, the block-spectrum identity, and the one integration
routine that every flow and Floquet solve goes through."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import pnk.flow
from pnk import (NonFinite, Resonance, SingularMonodromy, StepFailure,
                 ZeroClass, block_spectrum_check, extract_linearization,
                 floquet_decompose, forced_response, fundamental_matrix,
                 integrate_flow, integrate_variational, loop_field,
                 monodromy_report)
from pnk.floquet import FundamentalMatrix
from pnk.flow import integrate_orbit
from pnk.spectra import match_distance, sorted_complex

TWO_PI = 2.0 * math.pi
A1 = np.diag([-0.3, 0.2])
A2 = np.diag([0.1, -0.4])


class TestExtractLinearization:
    def test_straightened_blocks_constant(self, straight_sys):
        co = extract_linearization(straight_sys.family, straight_sys.seed,
                                   [1, 1], n_samples=32)
        want = TWO_PI * (A1 + A2)
        spread = np.max(np.abs(co.Ahat_samples - want))
        assert spread <= 1e-10
        # parameter block: 2 pi (A1 + A2) C
        want_b = TWO_PI * (A1 + A2) @ np.array([[0.5], [0.25]])
        np.testing.assert_allclose(co.Bhat_samples[0], want_b, atol=1e-10)
        # angle blocks vanish for the straightened structure
        assert np.max(np.abs(co.Phat_samples)) <= 1e-10

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
        co = extract_linearization(fam, seed, [1], n_samples=16)
        assert np.max(np.abs(co.Ahat_samples)) <= 1e-12

    def test_hopf_radial_coefficient(self, hopf_sys):
        co = extract_linearization(hopf_sys.family, hopf_sys.seed, [1],
                                   n_samples=32)
        want = -2.0 * 0.1 * TWO_PI
        np.testing.assert_allclose(co.Ahat_samples.ravel(), want, atol=1e-8)

    def test_zero_winding_is_rejected(self, hopf_sys):
        # the coefficients come from the loop field, which has no zero class
        with pytest.raises(ZeroClass):
            extract_linearization(hopf_sys.family, hopf_sys.seed, [0],
                                  n_samples=8)

    def test_blocks_periodic(self, hopf_sys):
        co = extract_linearization(hopf_sys.family, hopf_sys.seed, [1],
                                   n_samples=32)
        np.testing.assert_allclose(co.Ahat(0.0), co.Ahat(1.0), atol=1e-10)


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
        calls = []
        real = pnk.flow.solve_ivp

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(pnk.flow, "solve_ivp", counted)
        fam, seed = hopf_sys.family, hopf_sys.seed
        field = loop_field(fam, [1])
        x0, eps = seed.base_point, seed.eps0
        assert not seed.angle_coords  # so the frame transport runs
        runs = {
            "integrate_flow": lambda: integrate_flow(field, x0, eps, 0.5),
            "integrate_orbit": lambda: integrate_orbit(field, x0, eps,
                                                       [0.25, 0.5]),
            "integrate_variational": lambda: integrate_variational(
                field, x0, eps, 0.5),
            "fundamental_matrix": lambda: fundamental_matrix(
                lambda t: [[-1.0]], 1.0),
            "forced_response": lambda: forced_response(
                lambda t: [[-1.0]], lambda t: [1.0], 1.0),
            "extract_linearization": lambda: extract_linearization(
                fam, seed, [1], n_samples=16),
        }
        for name, run in runs.items():
            before = len(calls)
            run()
            assert len(calls) > before, name


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
        co = extract_linearization(sysm.family, sysm.seed, list(alpha),
                                   n_samples=64)
        fm = fundamental_matrix(co, co.T)
        got = sorted_complex(np.linalg.eigvals(fm.Q))
        assert match_distance(got, rep.transversal_spectrum) <= 1e-6
