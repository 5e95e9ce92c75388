"""Persistence of invariant tori as an algorithm.

Fixed points of the section return map at parameter eps correspond to
invariant tori of the family at eps. The corrector solves u - P(u) = 0
per parameter slice with a full Newton iteration (the jacobian I - L is
recomputed from variational flows every step; r is small at desk scale
and robustness near marginal hyperbolicity matters more than cost). The
branch walks a user-supplied parameter grid. Each slice starts from a
quadratic predictor: Lagrange extrapolation through the last three
accepted points, parametrized by cumulative parameter arclength, whose
O(h^3) error leaves the corrector about one Newton step per slice
(Allgower-Georg, Introduction to Numerical Continuation Methods, sec.
2.3). Folds in the parameter are excluded by the hyperbolicity
hypothesis, so no pseudo-arclength reparametrization is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectra
from .core import TorusSeed, VectorFieldFamily, as_params, loop_field, wrap_angles
from .errors import NoConvergence, OpenTorus, SingularJacobian
from .flow import DEFAULT_TOL, integrate_flow, integrate_orbit
from .section import SectionFrame, build_section, transversal_map

DELTA_MIN_DEFAULT = 1e-6
SINGULAR_TOL = 1e-13  # relative smallest singular value of I - L


@dataclass(frozen=True)
class HyperbolicityReport:
    """Distances of a transversal spectrum from 1 and from the unit circle.

    ``dist_from_one`` gauges invertibility of the corrector jacobian
    (its eigenvalues are 1 - lambda_i); ``dist_from_unit_circle`` gauges
    isolation of the torus among nearby invariant tori.
    """

    spectrum: np.ndarray
    dist_from_one: float
    dist_from_unit_circle: float
    B_invertible: bool
    B_condition: float
    delta: float


def hyperbolicity_report(L, delta: float = DELTA_MIN_DEFAULT) -> HyperbolicityReport:
    """Spectral margins of a transversal linearization L."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    spec = spectra.sorted_complex(np.linalg.eigvals(L))
    if spec.size == 0:
        return HyperbolicityReport(spec, np.inf, np.inf, True, 1.0, delta)
    dist_one = float(np.min(np.abs(spec - 1.0)))
    dist_circle = float(np.min(np.abs(np.abs(spec) - 1.0)))
    b = np.eye(L.shape[0]) - L
    cond = float(np.linalg.cond(b))
    return HyperbolicityReport(spec, dist_one, dist_circle,
                               dist_one >= delta, cond, delta)


def isolation_check(report: HyperbolicityReport, tol: float = 1e-9) -> bool:
    """True when no multiplier sits on the unit circle within tol.

    Then the fixed point is hyperbolic for the map, hence isolated on the
    section: no nearby invariant torus can intersect it in a second fixed
    point.
    """
    return report.dist_from_unit_circle > tol


@dataclass(frozen=True)
class NewtonResult:
    """Converged fixed point of the section return map at one parameter."""

    u: np.ndarray
    transversal: np.ndarray
    spectrum: np.ndarray
    jacobian_spectrum: np.ndarray  # eigenvalues of the corrector jacobian I - L
    iterations: int
    residual: float


def _newton_solve(step, u, tol: float, max_iter: int):
    """Full Newton on u - image(u) = 0 for a map step(u) -> (image, derivative).

    Returns (u, derivative, residual, iterations) at the first iterate
    whose residual max|u - image| is within tol; the iteration count
    excludes that final evaluation. Raises :class:`SingularJacobian` when
    I - derivative degenerates and :class:`NoConvergence`, carrying the
    iteration count and the last residual, on budget exhaustion.
    """
    eye = np.eye(u.size)
    for it in range(max_iter + 1):
        image, deriv = step(u)
        f = u - image
        rnorm = float(np.max(np.abs(f), initial=0.0))
        if rnorm <= tol:
            return u, deriv, rnorm, it
        if it == max_iter:
            exc = NoConvergence(
                f"fixed-point Newton stalled after {max_iter} iterations "
                f"(residual {rnorm:.3g})")
            exc.iterations = it
            exc.residual = rnorm
            raise exc
        jac = eye - deriv
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= SINGULAR_TOL * max(1.0, sv[0]):
            raise SingularJacobian(
                "corrector jacobian I - L is singular; a transversal "
                "multiplier sits at 1")
        u = u - np.linalg.solve(jac, f)


def newton_fixed_point(family: VectorFieldFamily, seed: TorusSeed, alpha,
                       frame: SectionFrame, eps, u_guess,
                       tol: float = DEFAULT_TOL,
                       max_iter: int = 20) -> NewtonResult:
    """Solve u - P(u) = 0 by full Newton from u_guess.

    The iteration count excludes the final verification, so an exact
    guess reports zero iterations. Raises :class:`SingularJacobian` when
    I - L degenerates (a transversal multiplier sits at 1) and
    :class:`NoConvergence` on budget exhaustion.
    """
    eps = as_params(eps, family.p)
    u = np.asarray(u_guess, dtype=float).reshape(-1)
    if u.size != frame.r:
        raise ValueError(f"guess has length {u.size}, expected {frame.r}")

    def step(v):
        res = transversal_map(family, frame, alpha, v, eps, tol,
                              with_jacobian=True)
        return res.u, res.jacobian

    u, ell, rnorm, iters = _newton_solve(step, u, tol, max_iter)
    return NewtonResult(
        u, ell,
        spectra.sorted_complex(np.linalg.eigvals(ell)),
        spectra.sorted_complex(np.linalg.eigvals(np.eye(frame.r) - ell)),
        iters, rnorm)


@dataclass(frozen=True)
class BranchPoint:
    """One accepted parameter slice of a continuation branch."""

    eps: np.ndarray
    u: np.ndarray
    spectrum: np.ndarray
    jacobian_spectrum: np.ndarray
    newton_iters: int
    residual: float
    dist_from_one: float
    dist_from_unit_circle: float


@dataclass(frozen=True)
class ContinuationBranch:
    points: list
    status: str  # "completed" | "stopped_at_critical" | "diverged"
    message: str
    alpha: np.ndarray
    frame: SectionFrame


@dataclass(frozen=True)
class ContinuationOptions:
    tol: float = DEFAULT_TOL
    max_iter: int = 20
    delta_min: float = DELTA_MIN_DEFAULT


def _branch_point(nr: NewtonResult, eps, delta_min) -> BranchPoint:
    rep = hyperbolicity_report(nr.transversal, delta_min)
    return BranchPoint(eps, nr.u, nr.spectrum, nr.jacobian_spectrum,
                       nr.iterations, nr.residual,
                       rep.dist_from_one, rep.dist_from_unit_circle)


def _checked_path(eps_path, eps0, p: int) -> list[np.ndarray]:
    """The parameter vectors of a continuation path, each of length p;
    raises ValueError unless the path is nonempty and starts at eps0."""
    path = [as_params(e, p) for e in eps_path]
    if not path:
        raise ValueError("parameter path is empty")
    if not np.allclose(path[0], eps0, rtol=0, atol=1e-12):
        raise ValueError(
            f"path must start at the seed parameter {eps0}, got {path[0]}")
    return path


def predict_fixed_point(points, eps) -> np.ndarray:
    """Extrapolate the branch ``points`` (in branch order) to ``eps``.

    The points sit at their cumulative parameter arclength; ``eps`` sits
    at its signed distance from the last point along the last segment, so
    a target between two of the points interpolates. Of points at the
    same arclength (a repeated parameter) only the last is kept, and the
    Lagrange polynomial through the remaining ones (constant, linear or
    quadratic for one, two or three) is evaluated at the target.
    """
    eps = np.asarray(eps, dtype=float)
    nodes = [points[-1]]
    arc = [0.0]
    for pt in reversed(points[:-1]):
        step = float(np.linalg.norm(nodes[-1].eps - pt.eps))
        if step > 0:
            nodes.append(pt)
            arc.append(arc[-1] - step)
    if len(nodes) == 1:
        return nodes[0].u.copy()
    tangent = (nodes[0].eps - nodes[1].eps) / (arc[0] - arc[1])
    s = float((eps - nodes[0].eps) @ tangent)
    guess = np.zeros_like(nodes[0].u)
    for i, (pt, si) in enumerate(zip(nodes, arc)):
        weight = 1.0
        for j, sj in enumerate(arc):
            if j != i:
                weight *= (s - sj) / (si - sj)
        guess += weight * pt.u
    return guess


def continue_branch(family: VectorFieldFamily, seed: TorusSeed, alpha,
                    eps_path, opts: ContinuationOptions | None = None,
                    frame: SectionFrame | None = None) -> ContinuationBranch:
    """Continue the seed torus fixed point over a parameter grid.

    The section is built once at the seed base point and reused for every
    slice; only field evaluations see the varying parameter. The first
    path entry must equal the seed parameter, where u = 0 is the known
    fixed point. Slices are corrected in order, each from
    :func:`predict_fixed_point` through the last three accepted points;
    the branch stops with ``stopped_at_critical`` when the margin
    min |lambda - 1| falls below ``delta_min`` and with ``diverged`` when
    a corrector fails (failures are recorded, not raised).
    """
    opts = opts or ContinuationOptions()
    path = _checked_path(eps_path, seed.eps0, family.p)
    if frame is None:
        frame = build_section(family, seed)
    alpha = np.asarray(alpha).reshape(-1)

    points: list[BranchPoint] = []
    status, message = "completed", ""
    for idx, eps in enumerate(path):
        guess = (predict_fixed_point(points[-3:], eps) if points
                 else np.zeros(frame.r))
        try:
            nr = newton_fixed_point(family, seed, alpha, frame, eps, guess,
                                    opts.tol, opts.max_iter)
        except (NoConvergence, SingularJacobian) as exc:
            status, message = "diverged", f"slice {idx} at eps={eps}: {exc}"
            break
        pt = _branch_point(nr, eps, opts.delta_min)
        points.append(pt)
        if pt.dist_from_one < opts.delta_min:
            status = "stopped_at_critical"
            message = (f"margin {pt.dist_from_one:.3g} below delta_min "
                       f"{opts.delta_min:.3g} at eps={eps}")
            break
    return ContinuationBranch(points, status, message, alpha, frame)


@dataclass(frozen=True)
class TorusReconstruction:
    """A fixed point transported over the full angle grid."""

    fractions: np.ndarray          # grid fractions in [0, 1) per angle
    samples: np.ndarray            # shape (g,)*k + (n,)
    closure_defect: float
    eps: np.ndarray
    u_fixed: np.ndarray


def reconstruct_torus(family: VectorFieldFamily, seed: TorusSeed, eps,
                      u_fixed, grid_per_angle: int = 32,
                      tol: float = 1e-8, frame: SectionFrame | None = None,
                      integration_tol: float = DEFAULT_TOL) -> TorusReconstruction:
    """Sweep a verified fixed point over the torus by the generator flows.

    Grid point (t_1, ..., t_k) is the image of the fixed point under the
    composed flows of the loop-normalized generators for times t_i. Each
    grid row along angle d is one adaptive run of generator d from the
    row's first sample, sampled at the grid times from the DOP853 dense
    output, so the k dimensions take 1 + g + ... + g^(k-1) runs in all.
    The closure defect is measured on the periodic wrap edges: flowing
    the last grid sample of a row one more grid step, by a separate
    flow, must land back on the row's first sample (angles reduced mod
    2*pi). Interior edges reproduce the construction and only re-measure
    commutation, so the wrap edges carry the entire closure content.
    Raises :class:`OpenTorus` (with the partial reconstruction attached)
    when the defect exceeds tol.
    """
    eps = as_params(eps, family.p)
    if grid_per_angle < 2:
        raise ValueError("need at least 2 grid points per angle")
    if frame is None:
        frame = build_section(family, seed)
    u_fixed = np.asarray(u_fixed, dtype=float).reshape(-1)
    x0 = frame.chart_point(u_fixed)
    k, n, g = seed.k, family.n, grid_per_angle
    dt = 1.0 / g
    generators = [loop_field(family, np.eye(k, dtype=int)[d]) for d in range(k)]

    samples = np.empty((g,) * k + (n,))
    samples[(0,) * k] = x0
    # chain transport dimension by dimension, one run per grid row
    times = dt * np.arange(1, g)
    for d in range(k):
        lead = (0,) * (k - d - 1)
        for prefix in np.ndindex(*((g,) * d)):
            samples[prefix + (slice(1, None),) + lead] = integrate_orbit(
                generators[d], samples[prefix + (0,) + lead], eps, times,
                integration_tol)

    defect = 0.0
    for d in range(k):
        for idx in np.ndindex(*((g,) * (k - 1))):
            full = idx[:d] + (g - 1,) + idx[d:]
            target = idx[:d] + (0,) + idx[d:]
            end = integrate_flow(generators[d], samples[full], eps, dt,
                                 integration_tol).endpoint
            end = wrap_angles(end, samples[target], seed.angle_coords)
            defect = max(defect, float(np.max(np.abs(end - samples[target]))))

    recon = TorusReconstruction(np.arange(g) * dt, samples, defect, eps, u_fixed)
    if defect > tol:
        raise OpenTorus(
            f"torus closure defect {defect:.3g} exceeds {tol:.3g}; the "
            "transported point does not generate a closed torus", recon)
    return recon
