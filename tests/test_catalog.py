"""Catalog constructors, their oracles, and the hamiltonian checks."""

import math

import numpy as np
import pytest

from pnk import (NonCommuting, monodromy_report, verify_commuting_family,
                 verify_torus_invariance)
from pnk.catalog import (HamiltonianPair, StraightenedSpec,
                         build_catalog_system, hamiltonian_field, make_flip,
                         make_hopf, make_neimark, make_pitchfork,
                         make_straightened, poisson_bracket)
from pnk.spectra import match, match_distance, sorted_complex

TWO_PI = 2.0 * math.pi


class TestMakeStraightened:
    def test_documented_diagonal_example(self):
        spec = StraightenedSpec((np.diag([-1.0, -2.0]), np.diag([-3.0, 1.0])),
                                np.zeros((2, 1)))
        sysm = make_straightened(spec)
        want = np.diag([math.exp(-TWO_PI), math.exp(-2 * TWO_PI)])
        np.testing.assert_allclose(sysm.oracle.transversal_matrix([1, 0]),
                                   want, rtol=1e-12)

    def test_zero_offset_means_fixed_torus(self):
        spec = StraightenedSpec((np.diag([-1.0]),), np.zeros((1, 2)))
        sysm = make_straightened(spec)
        np.testing.assert_allclose(sysm.oracle.fixed_u([0.3, -0.2]), 0.0)

    def test_noncommuting_matrices_rejected(self):
        a1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        a2 = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NonCommuting):
            make_straightened(StraightenedSpec((a1, a2), np.zeros((2, 1))))

    def test_cubic_requires_diagonal(self):
        a1 = np.array([[0.1, 0.05], [0.05, 0.1]])
        with pytest.raises(NonCommuting):
            make_straightened(StraightenedSpec((a1,), np.zeros((2, 1)),
                                               cubic=1.0))

    def test_cubic_oracle_root(self):
        spec = StraightenedSpec((np.diag([-0.5]),), np.array([[1.0]]),
                                cubic=2.0)
        sysm = make_straightened(spec)
        eps = np.array([0.3])
        u = sysm.oracle.fixed_u(eps)
        assert u[0] + 2.0 * u[0] ** 3 + 0.3 == pytest.approx(0.0, abs=1e-14)

    def test_family_commutes_and_torus_invariant(self, straight_cubic_sys,
                                                 rng):
        fam = straight_cubic_sys.family
        samples = [(rng.normal(size=4) * 0.5, rng.normal(size=1) * 0.1)
                   for _ in range(10)]
        assert verify_commuting_family(fam, samples).passed
        assert verify_torus_invariance(fam, straight_cubic_sys.seed,
                                       grid=5).passed


class TestMakeHopf:
    def test_multiplier_for_default_parameters(self, hopf_sys):
        assert hopf_sys.oracle.multiplier(0.1) == \
            pytest.approx(math.exp(-0.4 * math.pi), rel=1e-15)

    def test_multiplier_at_quarter(self):
        sysm = make_hopf(eps0=0.25)
        assert sysm.oracle.multiplier(0.25) == \
            pytest.approx(math.exp(-math.pi), rel=1e-15)

    def test_margin_vanishes_with_eps(self):
        sysm = make_hopf()
        assert sysm.oracle.multiplier(1e-9) == pytest.approx(1.0, abs=1e-7)

    def test_omega_scaling_keeps_unit_angle_speed(self):
        sysm = make_hopf(omega=2.0, eps0=0.1)
        rep = monodromy_report(sysm.family, sysm.seed, [1])
        want = sysm.oracle.multiplier(0.1)  # exp(-4 pi eps / omega)
        got = np.sort(np.abs(rep.transversal_spectrum))[0]
        assert got == pytest.approx(want, rel=1e-8)

    def test_zero_omega_rejected(self):
        with pytest.raises(ValueError):
            make_hopf(omega=0.0)


class TestHamiltonian:
    def test_harmonic_oscillator_field(self):
        pair = HamiltonianPair(1, (lambda x, e: 0.5 * (x[0] ** 2 + x[1] ** 2),))
        out = hamiltonian_field(pair, 0, np.array([0.3, 0.7]), np.zeros(0))
        np.testing.assert_allclose(out, [0.7, -0.3], atol=1e-9)

    def test_momentum_hamiltonian_translates(self):
        pair = HamiltonianPair(1, (lambda x, e: x[1],))
        out = hamiltonian_field(pair, 0, np.array([0.2, 0.4]), np.zeros(0))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-9)

    def test_uncoupled_pair_gives_commuting_rotations(self, osc_sys, rng):
        fam = osc_sys.family
        samples = [(rng.normal(size=4), np.zeros(2)) for _ in range(10)]
        assert verify_commuting_family(fam, samples).passed

    def test_canonical_pair_bracket(self):
        pair = HamiltonianPair(1, (lambda x, e: x[0], lambda x, e: x[1]))
        out = poisson_bracket(pair, 0, 1, np.array([0.5, -0.3]), np.zeros(0))
        assert out == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_bracket_value(self):
        pair = HamiltonianPair(1, (lambda x, e: x[0] ** 2,
                                   lambda x, e: x[1] ** 2))
        q, p = 0.7, -0.4
        out = poisson_bracket(pair, 0, 1, np.array([q, p]), np.zeros(0))
        assert out == pytest.approx(4.0 * q * p, abs=1e-8)

    def test_uncoupled_oscillators_bracket_residual(self, osc_sys, rng):
        pair = osc_sys.aux
        worst = max(abs(poisson_bracket(pair, 0, 1, rng.normal(size=4),
                                        np.zeros(2)))
                    for _ in range(50))
        assert worst <= 1e-10

    def test_unit_multiplier_spectrum(self, osc_sys):
        for alpha in ([1, 0], [0, 1]):
            rep = monodromy_report(osc_sys.family, osc_sys.seed, alpha)
            assert np.max(np.abs(rep.full_spectrum - 1.0)) <= 1e-6

    def test_torus_invariance(self, osc_sys):
        assert verify_torus_invariance(osc_sys.family, osc_sys.seed,
                                       grid=6, tol=1e-9).passed


class TestOracleAgreement:
    @pytest.mark.parametrize("name,params,alpha", [
        ("hopf", {}, [1]),
        ("pitchfork", {}, [1]),
        ("flip", {}, [1]),
        ("neimark", {}, [1]),
        ("uncoupled_oscillators", {}, [1, 0]),
    ])
    def test_pipeline_matches_oracle(self, name, params, alpha):
        sysm = build_catalog_system(name, params)
        rep = monodromy_report(sysm.family, sysm.seed, alpha)
        want = sorted_complex(
            sysm.oracle.transversal_multipliers(alpha, sysm.seed.eps0))
        assert match_distance(rep.transversal_spectrum, want) <= 1e-6

    def test_straightened_pipeline_matches_oracle(self, straight_sys):
        for alpha in ([1, 0], [0, 1], [2, -1]):
            rep = monodromy_report(straight_sys.family, straight_sys.seed,
                                   alpha)
            want = straight_sys.oracle.transversal_multipliers(alpha)
            _, dists = match(rep.transversal_spectrum, want)
            rel = np.max(dists / np.abs(want))
            assert rel <= 1e-6

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_catalog_system("nope", {})

    def test_cylinder_families_pass_invariance(self):
        for maker in (make_pitchfork, make_flip, make_neimark):
            sysm = maker()
            rep = verify_torus_invariance(sysm.family, sysm.seed, grid=8,
                                          tol=1e-9)
            assert rep.passed, sysm.name


class TestBeyondTheDiagonalCases:
    def test_nondiagonal_commuting_pair(self):
        # A2 a polynomial in A1 commutes without being diagonal
        a1 = np.array([[-0.2, 0.15], [0.0, -0.35]])
        a2 = 0.5 * a1 + 0.1 * np.eye(2)
        sysm = make_straightened(StraightenedSpec((a1, a2),
                                                  np.array([[0.3], [0.2]])))
        rep = monodromy_report(sysm.family, sysm.seed, [1, -1])
        want = sysm.oracle.transversal_multipliers([1, -1])
        assert match_distance(rep.transversal_spectrum, want) <= 1e-8

    def test_three_torus_monodromy(self):
        spec = StraightenedSpec((np.array([[-0.3]]), np.array([[0.2]]),
                                 np.array([[-0.1]])), np.array([[0.4]]))
        sysm = make_straightened(spec)
        rep = monodromy_report(sysm.family, sysm.seed, [1, 1, -2])
        want = sysm.oracle.transversal_multipliers([1, 1, -2])
        assert match_distance(rep.transversal_spectrum, want) <= 1e-8
        assert rep.trivial_unit_count == 3

    def test_vector_parameter_continuation(self):
        from pnk import continue_branch
        spec = StraightenedSpec((np.diag([-0.3, 0.2]), np.diag([0.1, -0.4])),
                                np.array([[0.3, -0.2], [0.1, 0.25]]))
        sysm = make_straightened(spec)
        path = [np.array([t, -0.5 * t]) for t in np.linspace(0.0, 0.1, 6)]
        branch = continue_branch(sysm.family, sysm.seed, [1, 0], path)
        assert branch.status == "completed"
        for pt in branch.points:
            assert float(np.max(np.abs(pt.u + spec.C @ pt.eps))) <= 1e-9


# The numpy expressions the Hopf, pitchfork and flip kernels had before
# they moved to Python floats; the kernels must return the same bits.
def _hopf_reference(omega):
    inv = 1.0 / omega

    def value(x, eps):
        r2 = x[0] * x[0] + x[1] * x[1]
        e = eps[0]
        return np.array([
            inv * (e * x[0] - omega * x[1] - x[0] * r2),
            inv * (omega * x[0] + e * x[1] - x[1] * r2),
        ])

    def jacobian(x, eps):
        e = eps[0]
        xx, yy = x[0], x[1]
        return inv * np.array([
            [e - 3.0 * xx * xx - yy * yy, -omega - 2.0 * xx * yy],
            [omega - 2.0 * xx * yy, e - xx * xx - 3.0 * yy * yy],
        ])
    return value, jacobian


def _pitchfork_reference():
    def value(x, eps):
        u = x[1]
        return np.array([1.0, eps[0] * u - u ** 3])

    def jacobian(x, eps):
        u = x[1]
        return np.array([[0.0, 0.0], [0.0, eps[0] - 3.0 * u * u]])
    return value, jacobian


def _flip_reference(d2):
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])

    def pieces(x, eps):
        c, s = math.cos(0.5 * x[0]), math.sin(0.5 * x[0])
        rot = np.array([[c, -s], [s, c]])
        v = rot.T @ x[1:]
        g = np.array([eps[0] * v[0] - v[0] ** 3, d2 * v[1]])
        return rot, v, g

    def value(x, eps):
        rot, _, g = pieces(x, eps)
        du = 0.5 * (j2 @ x[1:]) + rot @ g
        return np.array([1.0, du[0], du[1]])

    def jacobian(x, eps):
        rot, v, g = pieces(x, eps)
        dg = np.diag([eps[0] - 3.0 * v[0] ** 2, d2])
        out = np.zeros((3, 3))
        out[1:, 0] = 0.5 * (j2 @ rot @ g - rot @ dg @ j2 @ v)
        out[1:, 1:] = 0.5 * j2 + rot @ dg @ rot.T
        return out
    return value, jacobian


def _kernel_points(n):
    """(x, eps) pairs: seeded random points at three scales, of either
    sign, plus zeros and all-negative points."""
    rng = np.random.default_rng(20)
    pairs = [(np.zeros(n), np.zeros(1)), (np.zeros(n), np.array([-0.3])),
             (-np.full(n, 0.7), np.array([-0.05])),
             (-np.arange(1.0, n + 1.0), np.array([0.2]))]
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(40):
            pairs.append((scale * rng.standard_normal(n),
                          rng.uniform(-0.5, 0.5, size=1)))
    return pairs


class TestKernelsKeepTheirBits:
    @pytest.mark.parametrize("system, reference", [
        (make_hopf(), _hopf_reference(1.0)),
        (make_hopf(omega=-0.7, eps0=0.2), _hopf_reference(-0.7)),
        (make_pitchfork(), _pitchfork_reference()),
        (make_flip(), _flip_reference(-0.35)),
        (make_flip(stable_exponent=0.4), _flip_reference(0.4))],
        ids=["hopf", "hopf-negative-omega", "pitchfork", "flip",
             "flip-unstable"])
    def test_value_and_jacobian_equal_the_numpy_forms(self, system,
                                                      reference):
        field = system.family.member(0)
        ref_value, ref_jacobian = reference
        for x, eps in _kernel_points(system.family.n):
            assert np.array_equal(field.value(x, eps), ref_value(x, eps))
            assert np.array_equal(field.jacobian(x, eps),
                                  ref_jacobian(x, eps))
