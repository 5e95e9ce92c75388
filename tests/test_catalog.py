"""Catalog constructors, their oracles, and the hamiltonian checks."""

import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest

import pnk.flow
from pnk import (NonCommuting, NonFinite, loop_field, monodromy_report,
                 verify_commuting_family, verify_torus_invariance)
from pnk.catalog import (HamiltonianPair, StraightenedSpec,
                         build_catalog_system, hamiltonian_field, make_flip,
                         make_hopf, make_neimark, make_pitchfork,
                         make_straightened, make_uncoupled_oscillators,
                         poisson_bracket)
from pnk.flow import integrate_flow, integrate_variational
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

    def test_overflowing_commutator_is_refused(self):
        # the products overflow and max|[A_0, A_1]| is NaN: the pair is
        # refused as not evaluable, neither passed nor called non-commuting
        a1 = np.array([[1e200, 0.0], [0.0, 1.0]])
        a2 = np.array([[1e200, 1e200], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="could not be evaluated"):
                make_straightened(StraightenedSpec((a1, a2),
                                                   np.array([[1.0], [0.0]])))

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


# The numpy expressions the Hopf, pitchfork, flip and Neimark kernels had
# before they moved to Python floats; the kernels must return the same bits.
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


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _flip_frame(x):
    c, s = math.cos(0.5 * x[0]), math.sin(0.5 * x[0])
    rot = np.array([[c, -s], [s, c]])
    return rot, rot.T @ x[1:]


def _flip_reference(d2):
    def pieces(x, eps):
        rot, v = _flip_frame(x)
        g = np.array([eps[0] * v[0] - v[0] ** 3, d2 * v[1]])
        return rot, v, g

    def value(x, eps):
        rot, _, g = pieces(x, eps)
        du = 0.5 * (_J2 @ x[1:]) + rot @ g
        return np.array([1.0, du[0], du[1]])

    def jacobian(x, eps):
        rot, v, g = pieces(x, eps)
        dg = np.diag([eps[0] - 3.0 * v[0] ** 2, d2])
        out = np.zeros((3, 3))
        out[1:, 0] = 0.5 * (_J2 @ rot @ g - rot @ dg @ _J2 @ v)
        out[1:, 1:] = 0.5 * _J2 + rot @ dg @ rot.T
        return out
    return value, jacobian


def _flip_eps_jacobian(x, eps):
    rot, v = _flip_frame(x)
    out = np.zeros((3, 1))
    out[1:, 0] = rot @ np.array([v[0], 0.0])
    return out


def _neimark_reference(w, c):
    def value(x, eps):
        u = x[1:]
        amp = eps[0] - c * (u @ u)
        du = amp * u + w * (_J2 @ u)
        return np.array([1.0, du[0], du[1]])

    def jacobian(x, eps):
        u = x[1:]
        amp = eps[0] - c * (u @ u)
        out = np.zeros((3, 3))
        out[1:, 1:] = amp * np.eye(2) + w * _J2 - 2.0 * c * np.outer(u, u)
        return out
    return value, jacobian


def _neimark_eps_jacobian(x, eps):
    out = np.zeros((3, 1))
    out[1:, 0] = x[1:]
    return out


def _straightened_reference(spec, i):
    """Field i of make_straightened(spec) in its numpy forms, which build
    every matrix on each call."""
    a, cmat, cubic = spec.A[i], spec.C, spec.cubic
    k, r, p = spec.k, spec.r, spec.p
    n = k + r

    def value(x, eps):
        u = x[k:]
        w = u + cmat @ eps
        if cubic != 0.0:
            w = w + cubic * u ** 3
        out = np.zeros(n)
        out[i] = 1.0
        out[k:] = a @ w
        return out

    def jacobian(x, eps):
        out = np.zeros((n, n))
        u = x[k:]
        gain = np.eye(r) if cubic == 0.0 else np.diag(1.0 + 3.0 * cubic * u ** 2)
        out[k:, k:] = a @ gain
        return out

    def eps_jacobian(x, eps):
        out = np.zeros((n, p))
        out[k:, :] = a @ cmat
        return out
    return value, jacobian, eps_jacobian


def _rotation_scaling(a, b):
    return np.array([[a, -b], [b, a]])


# Specs of make_straightened: cubic 0 and nonzero, diagonal A (with
# -0.0 off the diagonal) and a non-diagonal commuting pair, r 1 and 2,
# p 1 and 2, C with signed zeros.
STRAIGHTENED_SPECS = {
    "diagonal": StraightenedSpec((np.diag([-1.0, 0.5]),), [[0.3], [-0.0]]),
    "diagonal-cubic-p2": StraightenedSpec(
        (np.array([[-1.0, -0.0], [0.0, 0.5]]), np.diag([0.25, -2.0])),
        [[0.3, 0.0], [-0.7, 1.2]], cubic=-0.4),
    "scalar": StraightenedSpec((np.array([[-1.5]]),), [[-0.0]]),
    "scalar-cubic": StraightenedSpec((np.array([[-1.5]]),), [[0.0]],
                                     cubic=0.8),
    "scalar-cubic-p2": StraightenedSpec(
        (np.array([[-1.5]]), np.array([[0.5]])), [[0.25, -0.0]], cubic=0.8),
    "commuting-pair": StraightenedSpec(
        (_rotation_scaling(-0.5, 1.0), _rotation_scaling(0.25, -2.0)),
        [[0.0], [-0.6]]),
    "commuting-pair-p2": StraightenedSpec(
        (_rotation_scaling(-0.5, 1.0), _rotation_scaling(0.25, -2.0)),
        [[-0.0, 1.0], [-0.6, 0.0]]),
}


def _kernel_points(n, p=1):
    """(x, eps) pairs, eps of p entries: seeded random points of either
    sign at three scales and at two where squares and cubes overflow
    (1e160, 3e200); every pattern of signed zeros, with eps +-0.0 or of
    either sign; random points with +-0.0 put into one entry of x or of
    eps; leading entries 0, pi and 2 pi (the flip's phase); all-negative
    points."""
    rng = np.random.default_rng(20)
    pairs = [(-np.full(n, 0.7), np.full(p, -0.05)),
             (-np.arange(1.0, n + 1.0), np.full(p, 0.2))]
    for zeros in itertools.product((0.0, -0.0), repeat=n):
        for e in (0.0, -0.0, 0.2, -0.3):
            pairs.append((np.array(zeros), np.full(p, e)))
    for scale in (1e-3, 1.0, 1e3, 1e160, 3e200):
        for _ in range(40):
            pairs.append((scale * rng.standard_normal(n),
                          rng.uniform(-0.5, 0.5, size=p)))
    for zero in (0.0, -0.0):
        for i in range(n + p):
            for _ in range(4):
                x, eps = rng.standard_normal(n), rng.uniform(-0.5, 0.5, p)
                if i < n:
                    x[i] = zero
                else:
                    eps[i - n] = zero
                pairs.append((x, eps))
    for phase in (0.0, math.pi, 2.0 * math.pi):
        for _ in range(6):
            x = rng.standard_normal(n)
            x[0] = phase
            pairs.append((x, rng.uniform(-0.5, 0.5, size=p)))
    return pairs


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _assert_same_bits(kernels, references, n, p=1):
    """Each kernel returns its reference's dtype, shape and bytes at every
    kernel point: unlike np.array_equal, -0.0 is not 0.0 and a NaN equals
    only a NaN of the same bits."""
    for x, eps in _kernel_points(n, p):
        for kernel, reference in zip(kernels, references):
            # as in the integrator, where NonFinite reports an overflow
            # and numpy's warnings are noise
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = kernel(x, eps), reference(x, eps)
            assert _same_bits(got, want), (kernel, x, eps)


class TestKernelsKeepTheirBits:
    @pytest.mark.parametrize("system, reference", [
        (make_hopf(), _hopf_reference(1.0)),
        (make_hopf(omega=-0.7, eps0=0.2), _hopf_reference(-0.7)),
        (make_pitchfork(), _pitchfork_reference()),
        (make_flip(), _flip_reference(-0.35)),
        (make_flip(stable_exponent=0.4), _flip_reference(0.4)),
        (make_neimark(), _neimark_reference(0.18, 1.0)),
        (make_neimark(damping=-1.0), _neimark_reference(0.18, -1.0)),
        (make_neimark(rotation=-0.3), _neimark_reference(-0.3, 1.0)),
        (make_neimark(rotation=-0.3, damping=-1.0),
         _neimark_reference(-0.3, -1.0))],
        ids=["hopf", "hopf-negative-omega", "pitchfork", "flip",
             "flip-unstable", "neimark", "neimark-subcritical",
             "neimark-negative-rotation", "neimark-subcritical-negative"])
    def test_value_and_jacobian_equal_the_numpy_forms(self, system,
                                                      reference):
        field = system.family.member(0)
        _assert_same_bits((field.value, field.jacobian), reference,
                          system.family.n)

    @pytest.mark.parametrize("system, reference", [
        (make_flip(), _flip_eps_jacobian),
        (make_neimark(), _neimark_eps_jacobian)], ids=["flip", "neimark"])
    def test_eps_jacobian_equals_the_numpy_form(self, system, reference):
        _assert_same_bits((system.family.member(0).eps_jacobian,),
                          (reference,), system.family.n)

    @pytest.mark.parametrize("spec", STRAIGHTENED_SPECS.values(),
                             ids=STRAIGHTENED_SPECS)
    def test_straightened_kernels_equal_the_numpy_forms(self, spec):
        family = make_straightened(spec).family
        for i in range(spec.k):
            field = family.member(i)
            _assert_same_bits(
                (field.value, field.jacobian, field.eps_jacobian),
                _straightened_reference(spec, i), family.n, family.p)

    @pytest.mark.parametrize("spec", STRAIGHTENED_SPECS.values(),
                             ids=STRAIGHTENED_SPECS)
    def test_straightened_constants_are_fresh_per_call(self, spec):
        # the jacobian without cubic terms and the eps_jacobian are built
        # once; what a caller does to one result must not reach the next
        field = make_straightened(spec).family.member(0)
        x, eps = np.arange(1.0, field.n + 1.0), np.full(field.p, 0.3)
        kernels = [field.eps_jacobian]
        if spec.cubic == 0.0:
            kernels.append(field.jacobian)
        for kernel in kernels:
            first = kernel(x, eps)
            want = first.copy()
            first += 7.0
            assert kernel(x, eps).tobytes() == want.tobytes()


class TestFlipFrame:
    """The flip's value, jacobian and eps_jacobian share the frame of the
    last point framed (make_flip). Called in any order, at any mix of
    points, each still returns its reference's bits."""

    D2 = -0.35
    X = np.array([0.7, 0.3, -0.2])
    POINTS = {
        "x": (X, np.array([0.04])),
        "x at another eps": (X, np.array([-0.3])),
        "other": (np.array([-1.1, 0.5, 0.25]), np.array([0.04])),
        "zero": (np.array([math.pi, 0.0, 0.6]), np.array([0.1])),
        "minus zero": (np.array([math.pi, -0.0, 0.6]), np.array([0.1])),
    }

    def kernels(self):
        field = make_flip(stable_exponent=self.D2).family.member(0)
        value, jacobian = _flip_reference(self.D2)
        return {"value": (field.value, value),
                "jacobian": (field.jacobian, jacobian),
                "eps_jacobian": (field.eps_jacobian, _flip_eps_jacobian)}

    def test_kernels_called_out_of_order(self):
        kernels = self.kernels()
        calls = [
            # before any value
            ("jacobian", "x"), ("eps_jacobian", "other"),
            # away from the last value's point
            ("value", "x"), ("jacobian", "other"), ("eps_jacobian", "x"),
            # points that differ only in eps
            ("value", "x"), ("jacobian", "x at another eps"),
            ("value", "x"), ("eps_jacobian", "x at another eps"),
            ("value", "x at another eps"), ("jacobian", "x"),
            # points that differ only in one zero's sign
            ("value", "zero"), ("jacobian", "minus zero"),
            ("value", "minus zero"), ("jacobian", "zero"),
            ("eps_jacobian", "minus zero"),
            # the same point again, after its results were changed
            ("value", "x"), ("value", "x"), ("jacobian", "x"),
            ("jacobian", "x"), ("eps_jacobian", "x"), ("eps_jacobian", "x"),
        ]
        for kernel, point in calls:
            got_fn, want_fn = kernels[kernel]
            x, eps = self.POINTS[point]
            got = got_fn(x, eps)
            assert _same_bits(got, want_fn(x, eps)), (kernel, point)
            # a caller's change to a result must not reach the next call
            got += 7.0

    def test_point_changed_in_place(self):
        # as the integrator's stage buffer is: the frame is keyed by the
        # point's bytes, not by the array
        kernels = self.kernels()
        x, eps = self.X.copy(), np.array([0.04])
        kernels["value"][0](x, eps)
        for i, array in ((1, x), (0, eps)):
            array[i] = 0.2
            for got_fn, want_fn in kernels.values():
                assert _same_bits(got_fn(x, eps), want_fn(x, eps)), got_fn

    def test_threads_get_their_own_frames(self):
        # more threads than cores, switching often: a thread that read
        # another thread's frame would return that point's bits
        kernels = self.kernels()
        points = list(self.POINTS.values())
        wants = [[want_fn(x, eps) for _, want_fn in kernels.values()]
                 for x, eps in points]
        wrong = []

        def work(start):
            for i in range(300):
                k = (start + i) % len(points)
                x, eps = points[k]
                for (got_fn, _), want in zip(kernels.values(), wants[k]):
                    if not _same_bits(got_fn(x, eps), want):
                        wrong.append((got_fn, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong, wrong[:5]


def _parent_loop_kernels(family, alpha):
    """loop_field's value, jacobian and eps_jacobian in their earlier
    form, kept as the reference: each call converts every member's result
    to float and adds the scaled results into fresh arrays."""
    members = [(family.member(i), TWO_PI * float(c))
               for i, c in enumerate(alpha) if c != 0]

    def combined(part):
        terms = [(getattr(fld, part), c) for fld, c in members]
        (first, c0), rest = terms[0], terms[1:]

        def total(x, eps):
            out = c0 * np.asarray(first(x, eps), dtype=float)
            for fn, c in rest:
                out = out + c * np.asarray(fn(x, eps), dtype=float)
            return out
        return total

    return combined("value"), combined("jacobian"), combined("eps_jacobian")


class _Captured(Exception):
    pass


def _capture_rhs(monkeypatch):
    """Make pnk.flow.integrate refuse to run; the returned function gives
    the right-hand side that an integrator hands to it for a field at
    eps, as a function of whole states and rows: for a split state it
    hands the right-hand side the blocks of both, as a run does."""
    seen = []

    def integrate(rhs, *args, split=None, **kwargs):
        seen.append((rhs, split))
        raise _Captured

    monkeypatch.setattr(pnk.flow, "integrate", integrate)

    def rhs_of(integrator, field, eps):
        with pytest.raises(_Captured):
            integrator(field, np.zeros(field.n), eps, 1.0)
        rhs, split = seen.pop()
        if split is None:
            return rhs

        def whole(t, y, out):
            rhs(t, tuple(y[i] for i in split),
                tuple(out[i] for i in split))
        return whole
    return rhs_of


# (system, winding) pairs: loops of one member and of several, and a
# plain member field (winding None), the one-term sum at scale 1.0.
LOOPS = {
    "hopf": (make_hopf(), [1]),
    "hopf-minus-3": (make_hopf(), [-3]),
    "pitchfork": (make_pitchfork(), [1]),
    "flip": (make_flip(), [1]),
    "neimark": (make_neimark(), [1]),
    "oscillators-1-1": (make_uncoupled_oscillators(), [1, 1]),
    "oscillators-2-minus-1": (make_uncoupled_oscillators(), [2, -1]),
    "straightened-cubic-pair": (
        make_straightened(STRAIGHTENED_SPECS["diagonal-cubic-p2"]), [1, -1]),
    "hopf-member": (make_hopf(), None),
    "straightened-cubic-member": (
        make_straightened(STRAIGHTENED_SPECS["diagonal-cubic-p2"]), None),
}


class TestLoopFieldsKeepTheirBits:
    """A loop field's callables, and the stage rows that the plain and
    the variational right-hand sides write for it, hold the bits of the
    earlier form that summed the members into fresh arrays (the variational
    row: that value, then the summed jacobian's product with M)."""

    @pytest.mark.parametrize("name", LOOPS)
    def test_callables_and_stage_rows(self, name, monkeypatch):
        system, alpha = LOOPS[name]
        family = system.family
        n, p = family.n, family.p
        if alpha is None:
            field = family.member(0)
            reference = (field.value, field.jacobian, field.eps_jacobian)
        else:
            field = loop_field(family, alpha)
            reference = _parent_loop_kernels(family, alpha)
        value, jacobian, _ = reference
        rhs_of = _capture_rhs(monkeypatch)
        tangent = np.random.default_rng(7).standard_normal((n, n))
        tangent[0, 0] = -0.0
        # the overflowing starts of TestOverflowingStarts
        overflowing = np.zeros(n)
        overflowing[1] = 6e102
        points = _kernel_points(n, p) + [(overflowing, np.full(p, 0.1))]
        for x, eps in points:
            plain = rhs_of(integrate_flow, field, eps)
            variational = rhs_of(integrate_variational, field, eps)
            row = np.empty(n)
            rows = np.empty((n + 1, n))
            want_rows = np.empty((n + 1, n))
            with np.errstate(over="ignore", invalid="ignore"):
                for got_fn, want_fn in zip(
                        (field.value, field.jacobian, field.eps_jacobian),
                        reference):
                    assert _same_bits(got_fn(x, eps), want_fn(x, eps)), (
                        got_fn, x, eps)
                plain(0.0, x, row)
                variational(0.0, np.vstack([x, tangent]), rows)
                # the earlier right-hand sides: out[:] = value(y, eps),
                # jac(x, eps).dot(y[1:], out=out[1:])
                want_row = value(x, eps)
                want_rows[0] = want_row
                jacobian(x, eps).dot(tangent, out=want_rows[1:])
            assert _same_bits(row, want_row), (x, eps)
            assert _same_bits(rows, want_rows), (x, eps)


class TestOverflowingStarts:
    # a start whose cube, or |u|^2 u, overflows: the Python-float kernels
    # must give numpy's inf, which the state check reports as NonFinite
    PATHS = {
        "plain": lambda f, x0: integrate_flow(f, x0, [0.1], 1.0),
        "orbit": lambda f, x0: integrate_flow(f, x0, [0.1], 1.0,
                                              times=[0.5, 1.0]),
        "variational": lambda f, x0: integrate_variational(f, x0, [0.1],
                                                           1.0),
    }

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("maker, x0", [
        (make_pitchfork, [0.0, 6e102]),
        (make_flip, [0.0, 6e102, 0.0]),
        (make_neimark, [0.0, 6e102, 0.0])],
        ids=["pitchfork", "flip", "neimark"])
    def test_integration_raises_non_finite(self, path, maker, x0):
        with pytest.raises(NonFinite):
            self.PATHS[path](maker().family.member(0), x0)

    @pytest.mark.parametrize("u, want", [(6e102, -math.inf),
                                         (-6e102, math.inf)])
    def test_pitchfork_eval_gives_numpy_inf(self, u, want):
        got = make_pitchfork().family.eval(0, [0.0, u], [0.1])
        assert got.tolist() == [1.0, want]
