"""Persistence of invariant tori as an algorithm.

Fixed points of the section return map at parameter eps correspond to
invariant tori of the family at eps. The corrector,
:func:`newton_fixed_point`, solves u - P(u) = 0 with a full Newton
iteration (the jacobian I - L is recomputed from variational flows every
step; r is small at desk scale and robustness near marginal
hyperbolicity matters more than cost). It is pnk's one Newton solver on
the map: branch slices, crossing refines and every start of the
post-critical probes (at winding 2 alpha for P o P) call it. Its
:class:`NewtonResult` is the one fixed-point record: branches keep one
per slice and probes one per find. The branch walks a user-supplied
parameter grid. Each slice starts from a quadratic predictor: Lagrange
extrapolation through the last three accepted points, parametrized by
cumulative parameter arclength, whose O(h^3) error leaves the corrector
about one Newton step per slice (Allgower-Georg, Introduction to
Numerical Continuation Methods, sec. 2.3). Folds in the parameter are
excluded by the hyperbolicity hypothesis, so no pseudo-arclength
reparametrization is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectra
from .core import (TorusSeed, VectorFieldFamily, as_count, as_params,
                   as_winding, loop_field, wrap_angles)
from .errors import NoConvergence, OpenTorus, PnkError, SingularJacobian
from .flow import DEFAULT_TOL, integrate_flow
from .section import SectionFrame, build_section, transversal_map

SINGULAR_TOL = 1e-13  # relative smallest singular value of I - L


@dataclass(frozen=True)
class NewtonResult:
    """Converged fixed point of the section return map at parameter eps;
    ``spectrum`` holds the eigenvalues of L = ``transversal``, whose
    margins from 1 and from the unit circle are :func:`spectra.margins`."""

    eps: np.ndarray
    u: np.ndarray
    transversal: np.ndarray
    spectrum: np.ndarray
    jacobian_spectrum: np.ndarray  # eigenvalues of the corrector jacobian I - L
    iterations: int
    residual: float

    @property
    def dist_from_one(self) -> float:
        return spectra.margins(self.spectrum)[0]

    @property
    def dist_from_unit_circle(self) -> float:
        return spectra.margins(self.spectrum)[1]


def newton_fixed_point(family: VectorFieldFamily, seed: TorusSeed, alpha,
                       frame: SectionFrame, eps, u_guess,
                       tol: float = DEFAULT_TOL,
                       max_iter: int = 20) -> NewtonResult:
    """Solve u - P(u) = 0 by full Newton from u_guess.

    P is the return map at winding alpha, so a fixed point at winding
    2 alpha is a 2-cycle of the map at alpha. Each iterate evaluates P
    with its jacobian L; the result is the first iterate whose residual
    max|u - P(u)| is within tol, and the iteration count excludes that
    final evaluation, so an exact guess reports zero iterations. Raises
    :class:`SingularJacobian` when I - L degenerates (a transversal
    multiplier sits at 1) and :class:`NoConvergence`, carrying the
    iteration count and the last residual, on budget exhaustion.
    """
    eps = as_params(eps, family.p)
    u = np.asarray(u_guess, dtype=float).reshape(-1)
    if u.size != frame.r:
        raise ValueError(f"guess has length {u.size}, expected {frame.r}")
    eye = np.eye(u.size)
    for it in range(max_iter + 1):
        res = transversal_map(family, frame, alpha, u, eps, tol,
                              with_jacobian=True)
        ell = res.jacobian
        f = u - res.u
        rnorm = float(np.max(np.abs(f), initial=0.0))
        if rnorm <= tol:
            return NewtonResult(
                eps, u, ell,
                spectra.sorted_complex(np.linalg.eigvals(ell)),
                spectra.sorted_complex(np.linalg.eigvals(eye - ell)),
                it, rnorm)
        if it == max_iter:
            exc = NoConvergence(
                f"fixed-point Newton stalled after {max_iter} iterations "
                f"(residual {rnorm:.3g})")
            exc.iterations = it
            exc.residual = rnorm
            raise exc
        jac = eye - ell
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= SINGULAR_TOL * max(1.0, sv[0]):
            raise SingularJacobian(
                "corrector jacobian I - L is singular; a transversal "
                "multiplier sits at 1")
        u = u - np.linalg.solve(jac, f)


@dataclass(frozen=True)
class ContinuationOptions:
    tol: float = DEFAULT_TOL
    max_iter: int = 20
    delta_min: float = 1e-6


@dataclass(frozen=True)
class ContinuationBranch:
    """The accepted slices of a branch, why it ended, and what it was
    solved with: ``options`` holds the corrector settings of every slice,
    which the crossing refines of
    :func:`~pnk.bifurcation.analyze_branch` reuse."""

    points: list  # one NewtonResult per accepted slice
    status: str  # "completed" | "stopped_at_critical" | "diverged"
    message: str
    alpha: np.ndarray
    frame: SectionFrame
    options: ContinuationOptions


def checked_path(eps_path, eps0, p: int) -> list[np.ndarray]:
    """The parameter vectors of a continuation path, each of length p;
    raises ValueError unless the path is nonempty and starts at eps0.
    :func:`continue_branch` and the config check of ``pnk validate``
    share this rule."""
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
    a slice raises any :class:`~pnk.errors.PnkError` (a corrector that
    fails, or a map whose flow fails): failures are recorded, with the
    slice and its parameter, not raised, so the report keeps the points.
    """
    opts = opts or ContinuationOptions()
    path = checked_path(eps_path, seed.eps0, family.p)
    if frame is None:
        frame = build_section(family, seed)
    alpha = as_winding(alpha, family.k)

    points: list[NewtonResult] = []
    status, message = "completed", ""
    for idx, eps in enumerate(path):
        guess = (predict_fixed_point(points[-3:], eps) if points
                 else np.zeros(frame.r))
        try:
            nr = newton_fixed_point(family, seed, alpha, frame, eps, guess,
                                    opts.tol, opts.max_iter)
        except PnkError as exc:
            status = "diverged"
            message = (f"slice {idx} at eps={eps}: "
                       f"{type(exc).__name__}: {exc}")
            break
        points.append(nr)
        if nr.dist_from_one < opts.delta_min:
            status = "stopped_at_critical"
            message = (f"margin {nr.dist_from_one:.3g} below delta_min "
                       f"{opts.delta_min:.3g} at eps={eps}")
            break
    return ContinuationBranch(points, status, message, alpha, frame, opts)


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
    g = as_count(grid_per_angle, "grid_per_angle")
    if g < 2:
        raise ValueError("need at least 2 grid points per angle")
    if frame is None:
        frame = build_section(family, seed)
    u_fixed = np.asarray(u_fixed, dtype=float).reshape(-1)
    x0 = frame.chart_point(u_fixed)
    k, n = seed.k, family.n
    dt = 1.0 / g
    generators = [loop_field(family, np.eye(k, dtype=int)[d]) for d in range(k)]

    samples = np.empty((g,) * k + (n,))
    samples[(0,) * k] = x0
    # chain transport dimension by dimension, one run per grid row
    times = dt * np.arange(1, g)
    for d in range(k):
        lead = (0,) * (k - d - 1)
        for prefix in np.ndindex(*((g,) * d)):
            samples[prefix + (slice(1, None),) + lead] = integrate_flow(
                generators[d], samples[prefix + (0,) + lead], eps, times[-1],
                integration_tol, times=times).samples

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
