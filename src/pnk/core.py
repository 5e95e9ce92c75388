"""Vector-field families, torus seeds, winding classes and loop fields.

Conventions used throughout the package:

* a chart point is a plain float ndarray of length ``n``; a parameter
  vector is a float ndarray of length ``p``;
* coordinates listed in a seed's ``angle_coords`` live on the circle.
  Values are stored unwrapped so winding counts survive; only comparison
  helpers (:func:`wrap_angles`) reduce them mod 2*pi;
* a family is a list of ``k`` pairwise commuting fields. Commutation is a
  hypothesis of every downstream construction and can be checked with
  :func:`verify_commuting_family`;
* seed-based analyses run at the seed parameter ``TorusSeed.eps0``, where
  the seed torus is invariant, and take no parameter of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .errors import DegenerateTangent, NonFinite, ZeroClass

TWO_PI = 2.0 * math.pi

# Rank tolerance for "linearly independent generator directions".
RANK_TOL = 1e-10

# Angle step of the difference stencil for torus embedding tangents.
EMBED_STEP = 1e-4


def all_finite(arr) -> bool:
    """Whether every entry of the 1-D float array arr is finite, on
    Python floats: a numpy reduction costs more than a chart's few
    entries. The input checks here and flow's state check use it."""
    return all(map(math.isfinite, arr.tolist()))


def as_point(x, n: int | None = None) -> np.ndarray:
    """Validate and copy a chart point."""
    arr = np.array(x, dtype=float).reshape(-1)
    if n is not None and arr.size != n:
        raise ValueError(f"point has length {arr.size}, expected {n}")
    if not all_finite(arr):
        raise ValueError("point has non-finite entries")
    return arr


def as_params(eps, p: int | None = None) -> np.ndarray:
    """Validate and copy a parameter vector."""
    arr = np.array(eps, dtype=float).reshape(-1)
    if p is not None and arr.size != p:
        raise ValueError(f"parameter vector has length {arr.size}, expected {p}")
    if not all_finite(arr):
        raise ValueError("parameter vector has non-finite entries")
    return arr


def as_count(value, name: str) -> int:
    """A count given as a Python or numpy integer, as an int; anything
    else (a float such as 8.0 too) raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_winding(alpha, k: int | None = None) -> np.ndarray:
    """Validate an integer winding vector (homotopy class), stored as
    int64. Its entries must be Python or numpy integers within int64, as
    :func:`as_count` takes counts: anything else, a float such as 2.0 or
    a bool too, raises ValueError."""
    arr = np.asarray(alpha)
    kind = arr.dtype.kind
    if arr.size and not (kind == "i" or kind == "u"
                         and np.all(arr <= np.iinfo(np.int64).max)):
        raise ValueError("winding numbers must be integers within int64")
    arr = arr.reshape(-1).astype(np.int64)
    if k is not None and arr.size != k:
        raise ValueError(f"winding vector has length {arr.size}, expected {k}")
    return arr


def wrap_angles(x, ref, angle_coords: Sequence[int]) -> np.ndarray:
    """Shift the angle coordinates of x by multiples of 2*pi toward ref."""
    out = np.array(x, dtype=float)
    if angle_coords:
        ref = np.asarray(ref, dtype=float)
        for i in angle_coords:
            out[i] = ref[i] + math.remainder(out[i] - ref[i], TWO_PI)
    return out


@dataclass(frozen=True)
class Field:
    """A single vector field with spatial and parameter derivatives.

    ``value(x, eps)`` returns the field vector, ``jacobian(x, eps)`` its
    n x n spatial derivative and ``eps_jacobian(x, eps)`` the n x p
    derivative in the parameters. The callables are raw (unvalidated) so
    they can sit inside integrator inner loops. Its ``terms`` are the
    (field, scale) pairs that sum to it: loop ``members``, or itself at 1.0.
    The scales are Python floats; :func:`scaled_kernels` hands them to
    the kernels' sums as 0-d arrays.
    Positional order: n, p, value, jacobian, eps_jacobian, members.
    """

    n: int
    p: int
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    eps_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    members: tuple[tuple[Field, float], ...] = ()

    @property
    def terms(self) -> tuple[tuple[Field, float], ...]:
        return self.members or ((self, 1.0),)


class VectorFieldFamily:
    """``k`` commuting parametric vector fields on an n-dimensional chart.

    Parameters
    ----------
    n, k, p:
        Chart dimension, number of fields (1 <= k <= n), parameter count.
    values:
        Sequence of k callables ``f_i(x, eps) -> (n,)``.
    jacobians:
        Optional analytic spatial jacobians ``(x, eps) -> (n, n)``. When
        absent, 4th-order central differences with step
        1e-5 * max(1, |x|_inf) are used; variational integration quality
        tracks jacobian quality, so analytic callbacks are preferred.
    eps_jacobians:
        Optional analytic parameter derivatives ``(x, eps) -> (n, p)``;
        finite differences otherwise.
    """

    def __init__(self, n: int, k: int, p: int, values,
                 jacobians=None, eps_jacobians=None,
                 name: str = ""):
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if p < 0:
            raise ValueError("parameter dimension must be nonnegative")
        if len(values) != k:
            raise ValueError(f"expected {k} field callables, got {len(values)}")
        if jacobians is not None and len(jacobians) != k:
            raise ValueError("jacobians must match the number of fields")
        if eps_jacobians is not None and len(eps_jacobians) != k:
            raise ValueError("eps_jacobians must match the number of fields")
        self.n = int(n)
        self.k = int(k)
        self.p = int(p)
        self.name = name
        self._fields = tuple(
            _field(self.n, self.p, values[i],
                   None if jacobians is None else jacobians[i],
                   None if eps_jacobians is None else eps_jacobians[i])
            for i in range(self.k))

    # -- validated public evaluation ------------------------------------

    def _checked(self, x, eps):
        return as_point(x, self.n), as_params(eps, self.p)

    def eval(self, i: int, x, eps) -> np.ndarray:
        """Value of the i-th field at (x, eps)."""
        x, eps = self._checked(x, eps)
        out = np.asarray(self._fields[i].value(x, eps), dtype=float).reshape(-1)
        if out.size != self.n:
            raise ValueError(
                f"field {i} returned length {out.size}, expected {self.n}")
        return out

    def generators(self, x, eps) -> np.ndarray:
        """The n x k matrix X(x) whose columns are the field values at x."""
        return np.column_stack([self.eval(i, x, eps) for i in range(self.k)])

    def jacobian(self, i: int, x, eps) -> np.ndarray:
        """Spatial derivative of the i-th field, analytic or differenced."""
        x, eps = self._checked(x, eps)
        return np.asarray(self._fields[i].jacobian(x, eps), dtype=float)

    # -- raw field views --------------------------------------------------

    def member(self, i: int) -> Field:
        """The i-th field as a standalone :class:`Field`."""
        return self._fields[i]


def _field(n, p, value, jac, ejac) -> Field:
    """A :class:`Field`, with difference quotients for absent derivatives."""
    if jac is None:
        def jac(x, eps):
            return numdiff.jacobian(lambda z: value(z, eps), x)
    if ejac is None and p == 0:
        def ejac(x, eps):
            return np.zeros((n, 0))
    elif ejac is None:
        def ejac(x, eps):
            return numdiff.jacobian(lambda e: value(x, e), eps,
                                    step=numdiff.step_for(eps))
    return Field(n, p, value, jac, ejac)


def scaled_kernels(terms, part: str):
    """The ``part`` kernels of (field, scale) terms, summed c0 * f0 + ...
    in this order: f0, c0 and the rest's (kernel, scale) pairs.

    Each scale comes back as a 0-d float64 array, the ufunc operand the
    stage rows are scaled by: numpy 2 takes a Python float operand about
    0.2 us slower per call (NEP 50's scalar rules), for the same multiply.
    """
    (first, c0), *rest = [(getattr(f, part), np.array(c, dtype=float))
                          for f, c in terms]
    return first, c0, rest


@dataclass(frozen=True)
class TorusSeed:
    """A parametrized invariant k-torus of a family at parameter ``eps0``.

    ``embed(phi)`` maps k angles to a chart point and must be 2*pi periodic
    in each angle. The embedding is expected to intertwine the generators
    with unit angle translations, i.e. X_i(embed(phi)) = d embed / d phi_i,
    so that time-one loop flows of the 2*pi-scaled combinations close up.
    ``angle_coords`` lists chart coordinates that are themselves periodic
    (flow endpoints get reduced mod 2*pi toward a reference before
    comparisons).
    """

    k: int
    embed: Callable[[np.ndarray], np.ndarray]
    eps0: np.ndarray
    angle_coords: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "eps0", np.array(self.eps0, dtype=float).reshape(-1))
        object.__setattr__(self, "angle_coords", tuple(int(i) for i in self.angle_coords))

    @property
    def base_point(self) -> np.ndarray:
        return self.point(np.zeros(self.k))

    def point(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float).reshape(-1)
        if phi.size != self.k:
            raise ValueError(f"expected {self.k} angles, got {phi.size}")
        return np.asarray(self.embed(phi), dtype=float).reshape(-1)

    def tangent_basis(self, phi) -> np.ndarray:
        """Columns d embed / d phi_j at phi, by 4th-order differences with
        angle step ``EMBED_STEP``."""
        phi = np.asarray(phi, dtype=float).reshape(-1)
        cols = [numdiff.directional(self.embed, phi, e, EMBED_STEP)
                for e in np.eye(self.k)]
        return np.column_stack(cols)


def loop_field(family: VectorFieldFamily, alpha) -> Field:
    """The combination 2*pi * sum_i alpha_i X_i for a winding vector alpha.

    Its time-one orbits on the seed torus are closed loops winding alpha_i
    times around the i-th basis cycle. Purely a pointwise linear
    combination; no integration is involved. Its ``members`` (X_i at
    2*pi * alpha_i != 0) are summed by its callables as by flow stages.
    """
    a = as_winding(alpha, family.k)
    if not np.any(a):
        raise ZeroClass("winding vector is identically zero")
    members = tuple((family.member(i), TWO_PI * float(c))
                    for i, c in enumerate(a) if c != 0)

    def combined(part):
        first, c0, rest = scaled_kernels(members, part)

        def total(x, eps):
            out = np.multiply(first(x, eps), c0)
            for fn, c in rest:
                np.add(out, np.multiply(fn(x, eps), c), out=out)
            return out
        return total

    return Field(family.n, family.p, combined("value"), combined("jacobian"),
                 combined("eps_jacobian"), members)


def lie_bracket(family: VectorFieldFamily, i: int, j: int, x, eps) -> np.ndarray:
    """[X_i, X_j](x) = (DX_j) X_i - (DX_i) X_j, using the family jacobians."""
    vi = family.eval(i, x, eps)
    vj = family.eval(j, x, eps)
    return family.jacobian(j, x, eps) @ vi - family.jacobian(i, x, eps) @ vj


@dataclass(frozen=True)
class CommutationReport:
    max_residual: float
    worst_pair: tuple[int, int] | None
    worst_sample: int | None
    tol: float
    passed: bool


def verify_commuting_family(family: VectorFieldFamily, sample_points,
                            tol: float = 1e-8) -> CommutationReport:
    """Check |[X_i, X_j]|_inf <= tol over all pairs and sample points.

    ``sample_points`` is a nonempty list of (x, eps) pairs. A single-field
    family passes vacuously with residual zero. A bracket that is not
    finite cannot be checked and raises :class:`NonFinite`.
    """
    samples = list(sample_points)
    if not samples:
        raise ValueError("need at least one sample point")
    worst = 0.0
    worst_pair = None
    worst_sample = None
    # an overflow shows as a residual that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for s_idx, (x, eps) in enumerate(samples):
            for i in range(family.k):
                for j in range(i + 1, family.k):
                    res = float(np.max(np.abs(
                        lie_bracket(family, i, j, x, eps))))
                    if not math.isfinite(res):
                        raise NonFinite(
                            f"commutation check: bracket [X_{i}, X_{j}] is "
                            f"{res} at sample {s_idx}")
                    if res > worst:
                        worst, worst_pair, worst_sample = res, (i, j), s_idx
    return CommutationReport(worst, worst_pair, worst_sample, tol, worst <= tol)


@dataclass(frozen=True)
class InvarianceReport:
    max_normal_residual: float
    worst_angles: np.ndarray | None
    tol: float
    passed: bool


def verify_torus_invariance(family: VectorFieldFamily, seed: TorusSeed,
                            grid: int = 8,
                            tol: float = 1e-8) -> InvarianceReport:
    """Check that every X_i at ``seed.eps0`` is tangent to the torus.

    At each point of a uniform angle grid (at least 4 points per angle) the
    field values are decomposed against the embedding tangents; the report
    carries the largest leftover normal component. Raises
    :class:`DegenerateTangent` when the tangent frame drops rank anywhere,
    and :class:`NonFinite` for tangents or a residual that are not finite.
    """
    if grid < 4:
        raise ValueError("need at least 4 grid points per angle")
    ticks = np.arange(grid) * (TWO_PI / grid)
    grids = np.meshgrid(*([ticks] * seed.k), indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=-1)
    worst = 0.0
    worst_phi = None
    with np.errstate(over="ignore", invalid="ignore"):
        for phi in angles:
            point = seed.point(phi)
            tang = seed.tangent_basis(phi)
            if not np.all(np.isfinite(tang)):
                raise NonFinite(f"invariance check: embedding tangents are "
                                f"not finite at phi={phi}")
            sv = np.linalg.svd(tang, compute_uv=False)
            if sv[-1] <= RANK_TOL * max(1.0, sv[0]):
                raise DegenerateTangent(
                    f"embedding tangents rank-deficient at phi={phi}")
            for i in range(family.k):
                v = family.eval(i, point, seed.eps0)
                coeff, *_ = np.linalg.lstsq(tang, v, rcond=None)
                res = float(np.max(np.abs(v - tang @ coeff)))
                if not math.isfinite(res):
                    raise NonFinite(
                        f"invariance check: normal residual of X_{i} is "
                        f"{res} at phi={phi}")
                if res > worst:
                    worst, worst_phi = res, phi.copy()
    return InvarianceReport(worst, worst_phi, tol, worst <= tol)
