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
section along the group orbits (near intersection). Pi is
:func:`solve_return_times`, a Newton solve for the k generator times
that bring a point back onto the section; it lives here with the frame
it reads, and :mod:`pnk.flow` only integrates. Iterates of P are return
maps of longer loops: P_alpha^n = Pi o phi^alpha_n = P_{n alpha}.
Proof: Pi(y) = g(y) for a time-s composition g of generator flows, and
phi^alpha commutes with g, so phi^alpha(Pi y) = g(phi^alpha(y)) lies on
the group orbit of phi^alpha(y) and Pi o phi^alpha o Pi = Pi o phi^alpha;
induct on n, and note phi^alpha_n = phi^{n alpha}_1. So
:func:`transversal_orbit` takes n iterates from one loop-flow run, and a
probe gets P o P with its jacobian as one map at winding 2 alpha (source
paper, arXiv math-ph/0207001).

The seed-based constructions (frame, monodromy, base-point check) run at
the seed parameter ``seed.eps0``, where the torus is invariant; only the
map and its orbit take a parameter of their own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import spectra
from .core import (RANK_TOL, TorusSeed, VectorFieldFamily, as_count,
                   as_params, as_point, loop_field, wrap_angles)
from .errors import (DegenerateTangent, NoConvergence, NonFinite, OpenLoop,
                     PnkError, SingularGeometry)
from .flow import DEFAULT_TOL, TINY_TIME, integrate_flow, integrate_variational

UNIT_TOL = 1e-8
RETURN_MAX_ITER = 25

# Largest group time max|s| that projects a later sample of one orbit run:
# a quarter turn of a unit-speed generator, so the projection of a
# twisting system still lands on the near intersection with the section.
ORBIT_MAX_GROUP_TIME = 0.5 * math.pi


class SectionFrame(NamedTuple):
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
    def r(self) -> int:
        return self.transversal_basis.shape[1]

    def chart_point(self, u) -> np.ndarray:
        """Chart point of transversal coordinates u on the section."""
        u = np.asarray(u, dtype=float).reshape(-1)
        return self.base + self.transversal_basis @ u

    def coords(self, z) -> np.ndarray:
        """Transversal coordinates of a point z on the section, the
        inverse of :meth:`chart_point`."""
        return self.transversal_basis.T @ (z - self.base)


def build_section(family: VectorFieldFamily, seed: TorusSeed,
                  m=None) -> SectionFrame:
    """Build the orthogonal transversal section at m (default: seed base).

    The transversal complement is chosen orthogonal in chart coordinates
    for conditioning; the map's spectrum does not depend on the choice.
    Raises :class:`NonFinite` when the generator values at m are not
    finite and :class:`DegenerateTangent` when they are rank deficient.
    """
    m = seed.base_point if m is None else as_point(m, family.n)
    group = family.generators(m, seed.eps0)
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
        eps=seed.eps0,
        group_basis=group,
        transversal_basis=transversal,
        constraints=inv[:family.k],
        dual_transversal=inv[family.k:],
        angle_coords=seed.angle_coords,
    )


def _loop_variational(family, seed, alpha, m, tol):
    """(A, closure defect) of :func:`total_monodromy`."""
    m = seed.base_point if m is None else as_point(m, family.n)
    closure_tol = 10.0 * tol
    field = loop_field(family, alpha)
    res = integrate_variational(field, m, seed.eps0, 1.0, tol)
    end = wrap_angles(res.endpoint, m, seed.angle_coords)
    defect = float(np.max(np.abs(end - m)))
    if defect > closure_tol:
        raise OpenLoop(
            f"loop closure defect {defect:.3g} exceeds {closure_tol:.3g}; "
            "base point is not on an invariant torus")
    return res.tangent, defect


def total_monodromy(family: VectorFieldFamily, seed: TorusSeed, alpha,
                    m=None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Derivative of the time-one loop flow at m on the invariant torus.

    The loop's closure defect |flow(m) - m| (angles reduced mod 2*pi) must
    stay below 10 * tol; a larger defect means m does not sit on an
    invariant torus and raises :class:`OpenLoop`. The bound separates
    genuine drift from integrator noise.
    """
    return _loop_variational(family, seed, alpha, m, tol)[0]


def transversal_linearization(A, frame: SectionFrame) -> np.ndarray:
    """Project A onto the transversal subspace along the generators.

    Returns the r x r block W A S with S the transversal basis and W its
    dual covectors; its eigenvalues are the non-unit eigenvalues of A.
    """
    A = np.asarray(A, dtype=float)
    return frame.dual_transversal @ A @ frame.transversal_basis


class MonodromyReport(NamedTuple):
    """Total and transversal monodromy data at one base point."""

    total: np.ndarray
    transversal: np.ndarray
    full_spectrum: np.ndarray
    transversal_spectrum: np.ndarray
    trivial_unit_count: int
    pairing_distance: float
    closure_defect: float


def monodromy_report(family: VectorFieldFamily, seed: TorusSeed, alpha,
                     m=None, tol: float = DEFAULT_TOL,
                     unit_tol: float = UNIT_TOL) -> MonodromyReport:
    """Compute A, its transversal block and the paired spectra at m.

    The full spectrum is matched against the transversal spectrum plus k
    unit eigenvalues; ``pairing_distance`` is the largest matched gap and
    ``trivial_unit_count`` counts full eigenvalues that landed on the unit
    block within ``unit_tol``.
    """
    matrix, defect = _loop_variational(family, seed, alpha, m, tol)
    frame = build_section(family, seed, m)
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


class ReturnSolve(NamedTuple):
    """Result of the section-return Newton solve.

    ``times`` are the k flow times (one per generator, composed in index
    order; the order is immaterial because the flows commute),
    ``endpoint`` lies on the section within tolerance, ``variational`` is
    the derivative of the composed return flow at the start point when
    requested.
    """

    times: np.ndarray
    endpoint: np.ndarray
    iterations: int
    variational: np.ndarray | None = None


def _compose_legs(family, y, eps, times, tol, with_variational):
    """Flow y under the generators for the given times, composing in order."""
    z = y
    var = np.eye(family.n) if with_variational else None
    leg = integrate_variational if with_variational else integrate_flow
    for i, s in enumerate(times):
        if abs(s) < TINY_TIME:
            continue
        res = leg(family.member(i), z, eps, float(s), tol)
        if with_variational:
            var = res.tangent @ var
        z = res.endpoint
    return z, var


def section_pairing(family: VectorFieldFamily, frame: SectionFrame, z, eps):
    """X(z) and the pairing ``frame.constraints @ X(z)``;
    :class:`SingularGeometry` when its singular values have
    sv_min <= 1e-12 * max(1, sv_max)."""
    xmat = family.generators(z, eps)
    pairing = frame.constraints @ xmat
    sv = np.linalg.svd(pairing, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise SingularGeometry(
            "constraint-field pairing matrix is singular "
            "(fields tangent to the section)")
    return xmat, pairing


def solve_return_times(family: VectorFieldFamily, y, eps, frame: SectionFrame,
                       tol: float = DEFAULT_TOL,
                       with_variational: bool = False) -> ReturnSolve:
    """Find flow times s under X_1..X_k taking y back onto the section.

    Newton on the k section constraints; the jacobian is the pairing of
    the constraint covectors with the field values at the current point,
    which is exact because commuting flows differentiate in their own
    times by the field value. Convergence needs both the constraint norm
    and the step norm at or below tol.

    The start y may sit far from the section base, since the loop-flow
    image of a section point lies farther out under expanding
    multipliers. A wild start is stopped by the iteration budget and by
    :func:`section_pairing`; :func:`transversal_orbit` keeps an orbit's
    samples on the near intersection by ``ORBIT_MAX_GROUP_TIME``.

    Raises :class:`NoConvergence` when the iteration budget runs out, and
    :class:`SingularGeometry` when the pairing matrix degenerates (fields
    tangent to the section).
    """
    y = wrap_angles(as_point(y, family.n), frame.base, frame.angle_coords)
    eps = frame.eps if eps is None else as_params(eps, family.p)

    constraints = frame.constraints
    s = np.zeros(family.k)
    z = y
    for it in range(RETURN_MAX_ITER + 1):
        g = constraints @ (z - frame.base)
        gnorm = float(np.abs(g).max())
        if gnorm <= tol and (it == 0 or last_step <= tol):
            break
        if it == RETURN_MAX_ITER:
            raise NoConvergence(
                f"section return did not converge in {RETURN_MAX_ITER} "
                f"iterations (constraint residual {gnorm:.3g})")
        _, pairing = section_pairing(family, frame, z, eps)
        ds = -np.linalg.solve(pairing, g)
        last_step = float(np.abs(ds).max())
        z, _ = _compose_legs(family, z, eps, ds, tol, False)
        s = s + ds
    var = None
    if with_variational:
        z, var = _compose_legs(family, y, eps, s, tol, True)
    return ReturnSolve(s, z, it, var)


class TransversalMapResult(NamedTuple):
    """One evaluation of the section return map in transversal coordinates."""

    u: np.ndarray
    endpoint: np.ndarray
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
    flow = integrate_variational if with_jacobian else integrate_flow
    run = flow(loop_field(family, alpha), x, eps, 1.0, tol)
    ret = solve_return_times(family, run.endpoint, eps, frame, tol,
                             with_jacobian)
    z = ret.endpoint
    jac = None
    if with_jacobian:
        xmat, pairing = section_pairing(family, frame, z, eps)
        proj = np.eye(family.n) - xmat @ np.linalg.solve(
            pairing, frame.constraints)
        d_chart = proj @ ret.variational @ run.tangent
        jac = frame.transversal_basis.T @ d_chart @ frame.transversal_basis
    return TransversalMapResult(frame.coords(z), z, jac)


class TransversalOrbitResult(NamedTuple):
    """Iterates of the section return map from chained loop-flow runs."""

    u: np.ndarray  # count x r: P(u), ..., P^count(u)
    runs: int      # loop-flow runs; more than one means a restart


def transversal_orbit(family: VectorFieldFamily, frame: SectionFrame, alpha,
                      u, count: int, eps=None, tol: float = DEFAULT_TOL
                      ) -> TransversalOrbitResult:
    """Iterates P(u), ..., P^count(u) of the section return map.

    Because P^n = P_{n alpha} (see the module docstring), the iterates
    are the ``times`` samples t = 1..count of one
    :func:`~pnk.flow.integrate_flow` run of the loop field, each
    projected onto the section as :func:`transversal_map` projects its
    image; ``runs`` counts those runs. When the projection of a
    later sample fails, or needs a group time with max|s| above
    ``ORBIT_MAX_GROUP_TIME``, the run restarts from the last projected
    iterate; the first sample of a run is projected exactly as
    :func:`transversal_map` does, so its failures propagate. A restarted
    run covers at most twice the iterates its predecessor kept, so a
    twisting system does not integrate the whole remainder per restart.
    A count that is not an integer (see :func:`~pnk.core.as_count`) or
    is negative raises ValueError; a count of 0 gives no iterates.
    """
    count = as_count(count, "count")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    eps = frame.eps if eps is None else as_params(eps, family.p)
    field = loop_field(family, alpha)
    x = frame.chart_point(u)
    iterates = []
    runs = 0
    span = count
    while len(iterates) < count:
        span = min(span, count - len(iterates))
        samples = integrate_flow(field, x, eps, span, tol,
                                 times=np.arange(1.0, span + 1.0)).samples
        runs += 1
        kept = 0
        for y in samples:
            try:
                ret = solve_return_times(family, y, eps, frame, tol)
            except PnkError:
                if not kept:
                    raise
                break
            if kept and np.abs(ret.times).max() > ORBIT_MAX_GROUP_TIME:
                break
            x = ret.endpoint
            iterates.append(frame.coords(x))
            kept += 1
        span = 2 * kept
    return TransversalOrbitResult(np.reshape(iterates, (-1, frame.r)), runs)


class BasePointCheck(NamedTuple):
    """Transversal spectra at several base points on the torus."""

    spectra: list
    max_spectral_distance: float
    passed: bool


def basepoint_spectrum_check(family: VectorFieldFamily, seed: TorusSeed,
                             alpha, sample_angles, tol: float = 1e-6,
                             integration_tol: float = DEFAULT_TOL,
                             base: MonodromyReport | None = None) -> BasePointCheck:
    """Transversal spectra at embed(phi) for each sample; they must agree.

    Monodromy operators at different base points of the same loop class
    are conjugate, so the sorted spectra coincide up to numerics. A single
    sample passes vacuously. ``base``, the report at the seed's base point
    for integration_tol, serves the samples at that point.
    """
    known = {} if base is None else {seed.base_point.tobytes(): base}
    specs = []
    for phi in sample_angles:
        m = seed.point(phi)
        rep = known.get(m.tobytes()) or monodromy_report(
            family, seed, alpha, m, tol=integration_tol)
        specs.append(rep.transversal_spectrum)
    worst = 0.0
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            worst = max(worst, spectra.match_distance(specs[i], specs[j]))
    return BasePointCheck(specs, worst, worst <= tol)
