"""Transversal sections, monodromy operators and the section return map.

A section frame at a base point m splits the tangent space into the k
generator directions X_i(m) and an orthonormal transversal complement S.
The derivative A of the time-one loop flow fixes each X_i(m) exactly
(the flow pushes commuting fields forward onto themselves), so in the
frame basis A is block triangular with a k-dimensional identity block:
its spectrum is always {1 x k} plus the r transversal eigenvalues. The
transversal block is obtained by projection rather than by deflating the
eigenvalues of A nearest 1; near a bifurcation a transversal eigenvalue
approaches 1 and deflation would be ambiguous, while the projection stays
well posed. The spectrum relation then serves as a cross check.

The return map is P_alpha = Pi o phi^alpha_1, with phi^alpha_t the flow
of the loop field for the winding alpha and Pi the projection onto the
section along the group orbits (near intersection). Iterates of P are
return maps of longer loops: P_alpha^n = Pi o phi^alpha_n = P_{n alpha}.
Proof: Pi(y) = g(y) for a time-s composition g of generator flows, and
phi^alpha commutes with g, so phi^alpha(Pi y) = g(phi^alpha(y)) lies on
the group orbit of phi^alpha(y) and Pi o phi^alpha o Pi = Pi o phi^alpha;
induct on n, and note phi^alpha_n = phi^{n alpha}_1. So
:func:`transversal_orbit` takes n iterates from one loop-flow run, and a
probe gets P o P with its jacobian as one map at winding 2 alpha (source
paper, arXiv math-ph/0207001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .core import (RANK_TOL, TorusSeed, VectorFieldFamily, as_params, as_point,
                   loop_field, wrap_angles)
from .errors import DegenerateTangent, NonFinite, OpenLoop, PnkError
from .flow import (DEFAULT_TOL, integrate_flow, integrate_orbit,
                   integrate_variational, section_pairing, solve_return_times)

UNIT_TOL = 1e-8

# Largest group time max|s| that projects a later sample of one orbit run:
# a quarter turn of a unit-speed generator, so the projection of a
# twisting system still lands on the near intersection with the section.
ORBIT_MAX_GROUP_TIME = 0.5 * math.pi


@dataclass(frozen=True)
class SectionFrame:
    """Local transversal section data at a base point.

    ``constraints`` holds the k covectors dual to the generator directions
    (they annihilate the transversal basis and pair to the identity with
    the generators); ``dual_transversal`` holds the r covectors dual to
    the transversal basis. Together they are the inverse of the column
    frame [group | transversal].
    """

    base: np.ndarray
    eps: np.ndarray
    group_basis: np.ndarray        # n x k, columns X_i(base)
    transversal_basis: np.ndarray  # n x r, orthonormal complement
    constraints: np.ndarray        # k x n
    dual_transversal: np.ndarray   # r x n
    angle_coords: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.base.size

    @property
    def k(self) -> int:
        return self.group_basis.shape[1]

    @property
    def r(self) -> int:
        return self.transversal_basis.shape[1]

    def chart_point(self, u) -> np.ndarray:
        """Chart point of transversal coordinates u on the section."""
        u = np.asarray(u, dtype=float).reshape(-1)
        return self.base + self.transversal_basis @ u


def build_section(family: VectorFieldFamily, seed: TorusSeed,
                  m=None, eps=None) -> SectionFrame:
    """Build the orthogonal transversal section at m (default: seed base).

    The transversal complement is chosen orthogonal in chart coordinates
    for conditioning; the map's spectrum does not depend on the choice.
    Raises :class:`NonFinite` when the generator values at m are not
    finite and :class:`DegenerateTangent` when they are rank deficient.
    """
    m = seed.base_point if m is None else as_point(m, family.n)
    eps = seed.eps0 if eps is None else as_params(eps, family.p)
    group = family.generators(m, eps)
    if not np.all(np.isfinite(group)):
        raise NonFinite("generator values at the base point are not finite")
    sv = np.linalg.svd(group, compute_uv=False)
    if sv[-1] <= RANK_TOL * max(1.0, sv[0]):
        raise DegenerateTangent(
            "generator directions are linearly dependent at the base point")
    q, _ = np.linalg.qr(group, mode="complete")
    transversal = q[:, family.k:].copy()
    # canonical orientation: largest-magnitude component of each column
    # positive, so section coordinates do not inherit QR sign conventions
    for j in range(transversal.shape[1]):
        lead = int(np.argmax(np.abs(transversal[:, j])))
        if transversal[lead, j] < 0:
            transversal[:, j] *= -1.0
    frame = np.column_stack([group, transversal])
    inv = np.linalg.inv(frame)
    return SectionFrame(
        base=m,
        eps=eps,
        group_basis=group,
        transversal_basis=transversal,
        constraints=inv[:family.k],
        dual_transversal=inv[family.k:],
        angle_coords=seed.angle_coords,
    )


def _loop_variational(family, seed, alpha, m, eps, tol):
    """Time-one variational flow of the loop field; returns (A, defect).

    Raises :class:`OpenLoop` when the closure defect exceeds 10 * tol.
    """
    m = seed.base_point if m is None else as_point(m, family.n)
    eps = seed.eps0 if eps is None else as_params(eps, family.p)
    closure_tol = 10.0 * tol
    field = loop_field(family, alpha)
    res = integrate_variational(field, m, eps, 1.0, tol)
    end = wrap_angles(res.endpoint, m, seed.angle_coords)
    defect = float(np.max(np.abs(end - m)))
    if defect > closure_tol:
        raise OpenLoop(
            f"loop closure defect {defect:.3g} exceeds {closure_tol:.3g}; "
            "base point is not on an invariant torus")
    return res.tangent, defect


def total_monodromy(family: VectorFieldFamily, seed: TorusSeed, alpha,
                    m=None, eps=None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Derivative of the time-one loop flow at m on the invariant torus.

    The loop's closure defect |flow(m) - m| (angles reduced mod 2*pi) must
    stay below 10 * tol; a larger defect means m does not sit on an
    invariant torus and raises :class:`OpenLoop`. The bound separates
    genuine drift from integrator noise.
    """
    return _loop_variational(family, seed, alpha, m, eps, tol)[0]


def transversal_linearization(A, frame: SectionFrame) -> np.ndarray:
    """Project A onto the transversal subspace along the generators.

    Returns the r x r block W A S with S the transversal basis and W its
    dual covectors; its eigenvalues are the non-unit eigenvalues of A.
    """
    A = np.asarray(A, dtype=float)
    return frame.dual_transversal @ A @ frame.transversal_basis


@dataclass(frozen=True)
class MonodromyReport:
    """Total and transversal monodromy data at one base point."""

    total: np.ndarray
    transversal: np.ndarray
    full_spectrum: np.ndarray
    transversal_spectrum: np.ndarray
    trivial_unit_count: int
    pairing_distance: float
    closure_defect: float


def monodromy_report(family: VectorFieldFamily, seed: TorusSeed, alpha,
                     m=None, eps=None, tol: float = DEFAULT_TOL,
                     unit_tol: float = UNIT_TOL) -> MonodromyReport:
    """Compute A, its transversal block and the paired spectra at m.

    The full spectrum is matched against the transversal spectrum plus k
    unit eigenvalues; ``pairing_distance`` is the largest matched gap and
    ``trivial_unit_count`` counts full eigenvalues that landed on the unit
    block within ``unit_tol``.
    """
    matrix, defect = _loop_variational(family, seed, alpha, m, eps, tol)
    frame = build_section(family, seed, m, eps)
    trans = transversal_linearization(matrix, frame)
    full = spectra.sorted_complex(np.linalg.eigvals(matrix))
    tspec = spectra.sorted_complex(np.linalg.eigvals(trans)) if frame.r else \
        np.zeros(0, dtype=complex)
    padded = np.concatenate([tspec, np.ones(family.k, dtype=complex)])
    perm, dists = spectra.match(full, padded)
    unit_count = sum(1 for i, j in enumerate(perm)
                     if j >= frame.r and abs(full[i] - 1.0) <= unit_tol)
    pairing = float(np.max(dists)) if dists.size else 0.0
    return MonodromyReport(matrix, trans, full, tspec, unit_count, pairing,
                           defect)


@dataclass(frozen=True)
class TransversalMapResult:
    """One evaluation of the section return map in transversal coordinates."""

    u: np.ndarray
    endpoint: np.ndarray
    return_times: np.ndarray
    iterations: int
    jacobian: np.ndarray | None = None


def transversal_map(family: VectorFieldFamily, frame: SectionFrame, alpha,
                    u, eps=None, tol: float = DEFAULT_TOL,
                    with_jacobian: bool = False) -> TransversalMapResult:
    """Apply the section return map to transversal coordinates u.

    Flows the section point for time one under the loop field, then
    projects back onto the section along the group orbit (a short Newton
    solve on the k return times). With ``with_jacobian`` the exact r x r
    derivative is assembled from the variational flows:

        D = S^T Pr(z) M_return A_flow S

    where Pr(z) = I - X (N X)^{-1} N projects along the group directions
    at the landing point z; a singular pairing N X(z) there raises
    :class:`~pnk.errors.SingularGeometry` by the return solve's rule.
    """
    eps = frame.eps if eps is None else as_params(eps, family.p)
    u = np.asarray(u, dtype=float).reshape(-1)
    x = frame.chart_point(u)
    field = loop_field(family, alpha)
    if with_jacobian:
        flow_res = integrate_variational(field, x, eps, 1.0, tol)
        y = flow_res.endpoint
    else:
        flow_res = None
        y = integrate_flow(field, x, eps, 1.0, tol).endpoint
    ret = solve_return_times(family, y, eps, frame, tol, with_jacobian)
    z = ret.endpoint
    u_out = frame.transversal_basis.T @ (z - frame.base)
    jac = None
    if with_jacobian:
        xmat, pairing = section_pairing(family, frame.constraints, z, eps)
        proj = np.eye(family.n) - xmat @ np.linalg.solve(
            pairing, frame.constraints)
        d_chart = proj @ ret.variational @ flow_res.tangent
        jac = frame.transversal_basis.T @ d_chart @ frame.transversal_basis
    return TransversalMapResult(u_out, z, ret.times, ret.iterations, jac)


@dataclass(frozen=True)
class TransversalOrbitResult:
    """Iterates of the section return map from chained loop-flow runs."""

    u: np.ndarray  # count x r: P(u), ..., P^count(u)
    runs: int      # loop-flow runs; more than one means a restart


def transversal_orbit(family: VectorFieldFamily, frame: SectionFrame, alpha,
                      u, count: int, eps=None, tol: float = DEFAULT_TOL
                      ) -> TransversalOrbitResult:
    """Iterates P(u), ..., P^count(u) of the section return map.

    Because P^n = P_{n alpha} (see the module docstring), the iterates
    come from one :func:`~pnk.flow.integrate_orbit` run of the loop field
    sampled at t = 1..count, each sample projected onto the section as
    :func:`transversal_map` projects its image. When the projection of a
    later sample fails, or needs a group time with max|s| above
    ``ORBIT_MAX_GROUP_TIME``, the run restarts from the last projected
    iterate; the first sample of a run is projected exactly as
    :func:`transversal_map` does, so its failures propagate. A restarted
    run covers at most twice the iterates its predecessor kept, so a
    twisting system does not integrate the whole remainder per restart.
    """
    eps = frame.eps if eps is None else as_params(eps, family.p)
    field = loop_field(family, alpha)
    x = frame.chart_point(u)
    iterates = []
    runs = 0
    span = count
    while len(iterates) < count:
        span = min(span, count - len(iterates))
        samples = integrate_orbit(field, x, eps, np.arange(1.0, span + 1.0),
                                  tol)
        runs += 1
        kept = 0
        for y in samples:
            try:
                ret = solve_return_times(family, y, eps, frame, tol)
            except PnkError:
                if not kept:
                    raise
                break
            if kept and np.max(np.abs(ret.times)) > ORBIT_MAX_GROUP_TIME:
                break
            x = ret.endpoint
            iterates.append(frame.transversal_basis.T @ (x - frame.base))
            kept += 1
        span = 2 * kept
    return TransversalOrbitResult(np.reshape(iterates, (-1, frame.r)), runs)


@dataclass(frozen=True)
class BasePointCheck:
    """Transversal spectra at several base points on the torus."""

    angles: list
    spectra: list
    max_spectral_distance: float
    tol: float
    passed: bool


def basepoint_spectrum_check(family: VectorFieldFamily, seed: TorusSeed,
                             alpha, sample_angles, eps=None,
                             tol: float = 1e-6,
                             integration_tol: float = DEFAULT_TOL) -> BasePointCheck:
    """Transversal spectra at embed(phi) for each sample; they must agree.

    Monodromy operators at different base points of the same loop class
    are conjugate, so the sorted spectra coincide up to numerics. A single
    sample passes vacuously.
    """
    angles = [np.asarray(phi, dtype=float).reshape(-1) for phi in sample_angles]
    specs = []
    for phi in angles:
        m = seed.point(phi)
        frame = build_section(family, seed, m, eps)
        A = total_monodromy(family, seed, alpha, m, eps, tol=integration_tol)
        L = transversal_linearization(A, frame)
        specs.append(spectra.sorted_complex(np.linalg.eigvals(L)))
    worst = 0.0
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            worst = max(worst, spectra.match_distance(specs[i], specs[j]))
    return BasePointCheck(angles, specs, worst, tol, worst <= tol)
