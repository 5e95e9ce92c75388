"""Analytically solvable families used as oracles and demo systems.

Every constructor returns a :class:`CatalogSystem` bundling the family,
an invariant-torus seed and an oracle with closed forms for the objects
the numerical pipeline computes (transversal multipliers, continued fixed
points, post-critical amplitudes). Seeds are normalized so the generators
act as unit angle translations on the torus, which is what makes time-one
flows of the 2*pi-scaled loop combinations close up.

The Hopf, pitchfork, flip and Neimark kernels run in the integrator's
stage loop, so they work on Python floats and build one array per result,
each entry's operations in the order of the numpy forms they replace. A
product summing two or more rounded terms stays one numpy call, as BLAS
may fuse its multiply-adds; a product by 0 or +-1 moves to floats:
``_J2 @ u`` is ``(-u1 or 0.0, u0 or 0.0)``, with BLAS's signs of zero.
Powers use :func:`_power`, which gives numpy's +-inf where ``**`` raises
OverflowError. ``tests/test_catalog.py`` checks the bits.

A kernel whose value and jacobian share a costly part computes it once
per point: the flip's rotating frame. Its kernels keep the last point's
frame as one ``(key, frame)`` tuple in one slot, read once and replaced
whole, so an interleaved or threaded caller gets a miss, never another
point's frame. The key is ``x.tobytes() + eps.tobytes()``: bytes, as
-0.0 == 0.0 and NaN != NaN. A variational stage calls the value and then
the jacobian at one point, and both still run, so the benchmark's field
counts hold. The other kernels share too little to pay for the key,
which a plain flow, calling the value alone, would pay at every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, TorusSeed, VectorFieldFamily, as_params
from .errors import NonCommuting

__all__ = [
    "CatalogSystem", "StraightenedSpec", "make_straightened", "make_hopf",
    "HamiltonianPair", "hamiltonian_field", "poisson_bracket",
    "hamiltonian_family", "make_uncoupled_oscillators", "make_pitchfork",
    "make_flip", "make_neimark", "CATALOG", "build_catalog_system",
]


@dataclass(frozen=True)
class CatalogSystem:
    name: str
    family: VectorFieldFamily
    seed: TorusSeed
    oracle: object
    params: dict
    aux: object = None  # e.g. the HamiltonianPair behind a hamiltonian system


# ---------------------------------------------------------------------------
# straightened (flow-box) systems


@dataclass(frozen=True)
class StraightenedSpec:
    """k commuting generators in flow-box form on T^k x R^r.

    Fields are X_i = d/dphi_i + A_i (u + C eps + cubic * u^3) d/du with
    the cubic acting componentwise. The shared inner factor keeps the
    family exactly commuting; with cubic != 0 this requires diagonal A_i.
    The exact invariant torus solves u + C eps + cubic u^3 = 0
    componentwise (u = -C eps when cubic = 0).
    """

    A: tuple
    C: np.ndarray
    cubic: float = 0.0

    def __post_init__(self):
        mats = tuple(np.asarray(a, dtype=float) for a in self.A)
        object.__setattr__(self, "A", mats)
        c = np.asarray(self.C, dtype=float)
        if c.ndim == 1:
            c = c.reshape(-1, 1)
        object.__setattr__(self, "C", c)

    @property
    def k(self) -> int:
        return len(self.A)

    @property
    def r(self) -> int:
        return self.A[0].shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[1]


class StraightenedOracle:
    """Closed forms for the straightened catalog."""

    def __init__(self, spec: StraightenedSpec):
        self.spec = spec

    def fixed_u(self, eps) -> np.ndarray:
        spec = self.spec
        b = spec.C @ as_params(eps, spec.p)
        if spec.cubic == 0.0:
            return -b
        from scipy.optimize import brentq

        out = np.empty(spec.r)
        for mu in range(spec.r):
            lo = -max(1.0, abs(b[mu])) - 1.0
            hi = -lo
            out[mu] = brentq(lambda v: v + spec.cubic * v ** 3 + b[mu],
                             lo, hi, xtol=1e-15, rtol=8.9e-16)
        return out

    def transversal_matrix(self, alpha, eps=None) -> np.ndarray:
        spec = self.spec
        alpha = np.asarray(alpha, dtype=float).reshape(-1)
        if spec.cubic == 0.0 or eps is None:
            gain = np.eye(spec.r)
        else:
            ustar = self.fixed_u(eps)
            gain = np.diag(1.0 + 3.0 * spec.cubic * ustar ** 2)
        gen = sum(a * m for a, m in zip(alpha, spec.A)) @ gain
        from scipy.linalg import expm

        return expm(TWO_PI * gen)

    def transversal_multipliers(self, alpha, eps=None) -> np.ndarray:
        return np.sort_complex(np.linalg.eigvals(self.transversal_matrix(alpha, eps)))


def make_straightened(spec: StraightenedSpec) -> CatalogSystem:
    """Build the flow-box family, its flat seed torus and the oracle.

    Raises :class:`NonCommuting` when the generator matrices do not
    commute (or when cubic terms are requested with non-diagonal
    matrices, which would break commutation), and ValueError when a
    commutator overflows, so that it cannot be evaluated.
    """
    mats = spec.A
    r, k, p = spec.r, spec.k, spec.p
    if any(a.shape != (r, r) for a in mats):
        raise ValueError("generator matrices must be square, of one size")
    if spec.C.shape[0] != r:
        raise ValueError(f"C needs {r} rows, one per transversal coordinate")
    for i in range(k):
        for j in range(i + 1, k):
            with np.errstate(over="ignore", invalid="ignore"):
                comm = np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]))
            if not np.isfinite(comm):
                raise ValueError(f"the commutator of generator matrices {i} "
                                 f"and {j} could not be evaluated")
            if not comm <= 1e-12 * max(1.0, np.max(np.abs(mats[i]))):
                raise NonCommuting(
                    f"generator matrices {i} and {j} do not commute")
    if spec.cubic != 0.0:
        for idx, a in enumerate(mats):
            if np.max(np.abs(a - np.diag(np.diag(a)))) > 0:
                raise NonCommuting(
                    f"cubic terms preserve commutation only for diagonal "
                    f"matrices; matrix {idx} is not diagonal")
    n = k + r
    cubic = float(spec.cubic)
    cmat = spec.C

    # products add onto zeros, as matmul does: a length-1 dot may give -0.0
    def make_value(i, a):
        def value(x, eps):
            u = x[k:]
            w = u + cmat.dot(eps)
            if cubic != 0.0:
                w = w + cubic * u ** 3
            out = np.zeros(n)
            out[i] = 1.0
            out[k:] += a.dot(w)
            return out
        return value

    def make_jacobian(a):
        if cubic == 0.0:
            const = np.zeros((n, n))
            const[k:, k:] = a @ np.eye(r)
            return lambda x, eps: const.copy()

        def jac(x, eps):
            out = np.zeros((n, n))
            out[k:, k:] += a.dot(np.diag(1.0 + 3.0 * cubic * x[k:] ** 2))
            return out
        return jac

    def make_epsjac(a):
        const = np.zeros((n, p))
        const[k:, :] = a @ cmat
        return lambda x, eps: const.copy()

    family = VectorFieldFamily(
        n, k, p,
        values=[make_value(i, a) for i, a in enumerate(mats)],
        jacobians=[make_jacobian(a) for a in mats],
        eps_jacobians=[make_epsjac(a) for a in mats],
        name="straightened")

    def embed(phi):
        return np.concatenate([phi, np.zeros(r)])

    seed = TorusSeed(k, embed, np.zeros(p), angle_coords=tuple(range(k)))
    params = {"A": [a.tolist() for a in mats], "C": cmat.tolist(),
              "cubic": cubic}
    return CatalogSystem("straightened", family, seed, StraightenedOracle(spec),
                         params)


# ---------------------------------------------------------------------------
# planar Hopf normal form (k = 1 reduction)


class HopfOracle:
    def __init__(self, omega: float, eps0: float):
        self.omega = omega
        self.eps0 = eps0

    def multiplier(self, eps) -> float:
        e = float(np.asarray(eps).reshape(-1)[0])
        return math.exp(-4.0 * math.pi * e / self.omega)

    def transversal_multipliers(self, alpha, eps=None) -> np.ndarray:
        e = self.eps0 if eps is None else eps
        a = int(np.asarray(alpha).reshape(-1)[0])
        return np.array([self.multiplier(e) ** a], dtype=complex)

    def fixed_u(self, eps) -> np.ndarray:
        e = float(np.asarray(eps).reshape(-1)[0])
        return np.array([math.sqrt(e) - math.sqrt(self.eps0)])


def make_hopf(omega: float = 1.0, eps0: float = 0.1) -> CatalogSystem:
    """Planar Hopf normal form with limit cycle r = sqrt(eps).

    The vector field is (eps x - omega y - x r^2, omega x + eps y - y r^2)
    scaled by 1/omega so the cycle is traversed at unit angular speed;
    the time-one loop flow of the 2*pi combination then covers exactly
    one period and the transversal multiplier is exp(-4 pi eps / omega).
    """
    if omega == 0.0:
        raise ValueError("rotation frequency must be nonzero")
    if eps0 <= 0.0:
        raise ValueError("seed parameter must be positive (cycle exists)")
    inv = 1.0 / omega

    def value(x, eps):
        xx, yy = x.tolist()
        e = float(eps[0])
        r2 = xx * xx + yy * yy
        return np.array([
            inv * (e * xx - omega * yy - xx * r2),
            inv * (omega * xx + e * yy - yy * r2),
        ])

    def jacobian(x, eps):
        xx, yy = x.tolist()
        e = float(eps[0])
        return np.array([
            [inv * (e - 3.0 * xx * xx - yy * yy),
             inv * (-omega - 2.0 * xx * yy)],
            [inv * (omega - 2.0 * xx * yy),
             inv * (e - xx * xx - 3.0 * yy * yy)],
        ])

    def ejac(x, eps):
        return inv * np.array([[x[0]], [x[1]]])

    family = VectorFieldFamily(2, 1, 1, [value], [jacobian], [ejac],
                               name="hopf")
    root = math.sqrt(eps0)

    def embed(phi):
        return np.array([root * math.cos(phi[0]), root * math.sin(phi[0])])

    seed = TorusSeed(1, embed, np.array([eps0]))
    return CatalogSystem("hopf", family, seed, HopfOracle(omega, eps0),
                         {"omega": omega, "eps0": eps0})


# ---------------------------------------------------------------------------
# hamiltonian pairs


@dataclass(frozen=True)
class HamiltonianPair:
    """k commuting scalar hamiltonians on R^{2 n_dof}, chart x = (q, p).

    ``gradients`` (optional) supply analytic (dH/dq, dH/dp) stacked into a
    vector of length 2 n_dof; ``hessians`` supply the full second
    derivative. Finite differences per the family policy otherwise.
    """

    n_dof: int
    hamiltonians: tuple
    gradients: tuple | None = None
    hessians: tuple | None = None
    name: str = ""

    @property
    def k(self) -> int:
        return len(self.hamiltonians)

    def gradient(self, i: int, x, eps) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.gradients is not None:
            return np.asarray(self.gradients[i](x, eps), dtype=float)
        from . import numdiff
        return numdiff.gradient(lambda z: self.hamiltonians[i](z, eps), x)


def _symplectic(n_dof: int) -> np.ndarray:
    j = np.zeros((2 * n_dof, 2 * n_dof))
    j[:n_dof, n_dof:] = np.eye(n_dof)
    j[n_dof:, :n_dof] = -np.eye(n_dof)
    return j


def hamiltonian_field(pair: HamiltonianPair, i: int, x, eps) -> np.ndarray:
    """Symplectic gradient (dH/dp, -dH/dq) of the i-th hamiltonian."""
    g = pair.gradient(i, x, eps)
    d = pair.n_dof
    return np.concatenate([g[d:], -g[:d]])


def poisson_bracket(pair: HamiltonianPair, i: int, j: int, x, eps) -> float:
    """{H_i, H_j}(x) with the standard pairing; zero iff the fields commute."""
    gi = pair.gradient(i, x, eps)
    gj = pair.gradient(j, x, eps)
    d = pair.n_dof
    return float(gi[:d] @ gj[d:] - gi[d:] @ gj[:d])


def hamiltonian_family(pair: HamiltonianPair) -> VectorFieldFamily:
    """Wrap the symplectic gradients of a pair as a vector-field family
    with one parameter per hamiltonian."""
    n = 2 * pair.n_dof

    def make_value(i):
        def value(x, eps, _i=i):
            return hamiltonian_field(pair, _i, x, eps)
        return value

    jacobians = None
    if pair.hessians is not None:
        symp = _symplectic(pair.n_dof)

        def make_jac(i):
            def jac(x, eps, _i=i):
                return symp @ np.asarray(pair.hessians[_i](x, eps), dtype=float)
            return jac
        jacobians = [make_jac(i) for i in range(pair.k)]

    return VectorFieldFamily(n, pair.k, pair.k,
                             [make_value(i) for i in range(pair.k)],
                             jacobians=jacobians, name=pair.name)


class UnitSpectrumOracle:
    """All multipliers of every loop class equal one."""

    def __init__(self, r: int):
        self.r = r

    def transversal_multipliers(self, alpha, eps=None) -> np.ndarray:
        return np.ones(self.r, dtype=complex)


def make_uncoupled_oscillators(radii=(1.0, 1.0)) -> CatalogSystem:
    """Two uncoupled harmonic oscillators, H_i = (q_i^2 + p_i^2) / 2.

    The product of circles of the given radii is an invariant 2-torus; the
    directions conjugate to the angles carry unit multipliers as well, so
    the full monodromy spectrum of either basis cycle is {1, 1, 1, 1}.
    """
    if len(radii) != 2 or min(radii) <= 0:
        raise ValueError("expected two positive radii")
    r1, r2 = float(radii[0]), float(radii[1])

    def h1(x, eps):
        return 0.5 * (x[0] ** 2 + x[2] ** 2)

    def h2(x, eps):
        return 0.5 * (x[1] ** 2 + x[3] ** 2)

    def g1(x, eps):
        return np.array([x[0], 0.0, x[2], 0.0])

    def g2(x, eps):
        return np.array([0.0, x[1], 0.0, x[3]])

    def hess1(x, eps):
        return np.diag([1.0, 0.0, 1.0, 0.0])

    def hess2(x, eps):
        return np.diag([0.0, 1.0, 0.0, 1.0])

    pair = HamiltonianPair(2, (h1, h2), (g1, g2), (hess1, hess2),
                           name="uncoupled_oscillators")
    family = hamiltonian_family(pair)

    def embed(phi):
        return np.array([r1 * math.cos(phi[0]), r2 * math.cos(phi[1]),
                         -r1 * math.sin(phi[0]), -r2 * math.sin(phi[1])])

    seed = TorusSeed(2, embed, np.zeros(2))
    return CatalogSystem(pair.name, family, seed, UnitSpectrumOracle(2),
                         {"radii": [r1, r2]}, aux=pair)


# ---------------------------------------------------------------------------
# controlled-crossing families on the cylinder (k = 1, scalar parameter)


class CylinderOracle:
    """Closed forms shared by the cylinder test families."""

    def __init__(self, multipliers_fn):
        self._fn = multipliers_fn

    def transversal_multipliers(self, alpha, eps) -> np.ndarray:
        a = int(np.asarray(alpha).reshape(-1)[0])
        e = float(np.asarray(eps).reshape(-1)[0])
        base = np.asarray(self._fn(e), dtype=complex)
        return base ** a


def _power(u: float, k: int) -> float:
    """u ** k on Python floats, giving numpy's +-inf where it overflows."""
    try:
        return u ** k
    except OverflowError:
        return math.copysign(math.inf, u) ** k


def make_pitchfork(eps0: float = -0.05) -> CatalogSystem:
    """Cylinder flow phi' = 1, u' = eps u - u^3.

    The circle u = 0 is invariant for every eps with multiplier
    exp(2 pi eps), crossing +1 at eps = 0; past the crossing the map gains
    the twin fixed points u = +-sqrt(eps) (flow equilibria).
    """
    def value(x, eps):
        u = x.tolist()[1]
        return np.array([1.0, float(eps[0]) * u - _power(u, 3)])

    def jacobian(x, eps):
        u = x.tolist()[1]
        return np.array([[0.0, 0.0], [0.0, float(eps[0]) - 3.0 * u * u]])

    def ejac(x, eps):
        return np.array([[0.0], [x[1]]])

    family = VectorFieldFamily(2, 1, 1, [value], [jacobian], [ejac],
                               name="pitchfork")
    seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0]),
                     np.array([eps0]), angle_coords=(0,))
    oracle = CylinderOracle(lambda e: [math.exp(TWO_PI * e)])
    return CatalogSystem("pitchfork", family, seed, oracle, {"eps0": eps0})


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def make_flip(stable_exponent: float = -0.35,
              eps0: float = -0.05) -> CatalogSystem:
    """Cylinder flow whose normal transport makes a half turn per loop.

    In a frame rotating by phi/2 the transversal dynamics are diagonal,
    v1' = eps v1 - v1^3 and v2' = d v2; the half turn multiplies the
    monodromy by -I, so the multipliers are -exp(2 pi eps) and
    -exp(2 pi d). The first crosses -1 at eps = 0 and past the crossing
    the map has the 2-cycle (+-sqrt(eps), 0) on the section. The rotating
    conjugation composes with an odd map, so the field stays 2*pi
    periodic in phi.

    The value, jacobian and eps_jacobian read one frame per point (see
    the module docstring and ``frame``). The jacobian's _J2 @ rot @ g is
    _J2 @ r from that frame, (0.0 - r1, 0.0 + r0): the bits BLAS gives.
    """
    d2 = float(stable_exponent)
    last = (None, None)  # the key and frame of the last point framed

    def frame(x, eps):
        """(u0, u1, rot, v, v0, e, r0, r1) at (x, eps): the rotation by
        phi/2, v = rot^T u, e = eps[0] and r = rot g(v), g the diagonal
        part."""
        nonlocal last
        key = x.tobytes() + eps.tobytes()
        seen, known = last
        if seen == key:
            return known
        phi, u0, u1 = x.tolist()
        c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
        rot = np.array([[c, -s], [s, c]])
        v = rot.T.dot(x[1:])
        v0, v1 = v.tolist()
        e = float(eps[0])
        r0, r1 = rot.dot([e * v0 - _power(v0, 3), d2 * v1]).tolist()
        known = (u0, u1, rot, v, v0, e, r0, r1)
        last = (key, known)
        return known

    def value(x, eps):
        u0, u1, _, _, _, _, r0, r1 = frame(x, eps)
        return np.array([1.0, 0.5 * (-u1 or 0.0) + r0, 0.5 * (u0 or 0.0) + r1])

    def jacobian(x, eps):
        _, _, rot, v, v0, e, r0, r1 = frame(x, eps)
        rot_dg = rot.dot([[e - 3.0 * _power(v0, 2), 0.0], [0.0, d2]])
        (m00, m01), (m10, m11) = rot_dg.dot(rot.T).tolist()
        q0, q1 = rot_dg.dot(_J2).dot(v).tolist()
        return np.array([[0.0, 0.0, 0.0],
                         [0.5 * ((0.0 - r1) - q0), 0.0 + m00, -0.5 + m01],
                         [0.5 * ((0.0 + r0) - q1), 0.5 + m10, 0.0 + m11]])

    def ejac(x, eps):
        _, _, rot, _, v0, _, _, _ = frame(x, eps)
        r0, r1 = rot.dot([v0, 0.0]).tolist()
        return np.array([[0.0], [r0], [r1]])

    family = VectorFieldFamily(3, 1, 1, [value], [jacobian], [ejac],
                               name="flip")
    seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0, 0.0]),
                     np.array([eps0]), angle_coords=(0,))
    oracle = CylinderOracle(
        lambda e: [-math.exp(TWO_PI * e), -math.exp(TWO_PI * d2)])
    return CatalogSystem("flip", family, seed, oracle,
                         {"stable_exponent": d2, "eps0": eps0})


def make_neimark(rotation: float = 0.18, damping: float = 1.0,
                 eps0: float = -0.05) -> CatalogSystem:
    """Cylinder flow with a rotating transversal plane and cubic damping.

    u' = (eps - c |u|^2) u + w J u gives the multiplier pair
    exp(2 pi (eps +- i w)) at u = 0, crossing the unit circle at eps = 0
    with rotation number w; past the crossing the map carries an invariant
    circle of radius sqrt(eps / c).
    """
    w, c = float(rotation), float(damping)
    w0, c2 = w * 0.0, 2.0 * c  # diagonal of w * _J2; factor of u u^T

    def value(x, eps):
        u = x[1:]
        a = float(eps[0]) - c * float(u.dot(u))
        _, u0, u1 = x.tolist()
        return np.array([1.0, a * u0 + w * (-u1 or 0.0), a * u1 + w * (u0 or 0.0)])

    def jacobian(x, eps):
        u = x[1:]
        a = float(eps[0]) - c * float(u.dot(u))
        _, u0, u1 = x.tolist()
        return np.array([
            [0.0, 0.0, 0.0],
            [0.0, a + w0 - c2 * (u0 * u0), a * 0.0 - w - c2 * (u0 * u1)],
            [0.0, a * 0.0 + w - c2 * (u1 * u0), a + w0 - c2 * (u1 * u1)]])

    def ejac(x, eps):
        return np.array([[0.0], [x[1]], [x[2]]])

    family = VectorFieldFamily(3, 1, 1, [value], [jacobian], [ejac],
                               name="neimark")
    seed = TorusSeed(1, lambda phi: np.array([phi[0], 0.0, 0.0]),
                     np.array([eps0]), angle_coords=(0,))
    oracle = CylinderOracle(
        lambda e: [np.exp(TWO_PI * (e + 1j * w)), np.exp(TWO_PI * (e - 1j * w))])
    return CatalogSystem("neimark", family, seed, oracle,
                         {"rotation": w, "damping": c, "eps0": eps0})


# ---------------------------------------------------------------------------
# registry for the CLI


def _build_straightened(A, C, **spec) -> CatalogSystem:
    return make_straightened(StraightenedSpec(A, C, **spec))


# Each constructor is called with the system's normalized config params
# as keyword arguments.
CATALOG = {
    "straightened": _build_straightened,
    "hopf": make_hopf,
    "uncoupled_oscillators": make_uncoupled_oscillators,
    "pitchfork": make_pitchfork,
    "flip": make_flip,
    "neimark": make_neimark,
}


def build_catalog_system(name: str, params: dict | None = None) -> CatalogSystem:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog system {name!r}; "
                       f"known: {sorted(CATALOG)}")
    return CATALOG[name](**(params or {}))
