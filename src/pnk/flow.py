"""Adaptive integration of flows and variational (tangent) flows.

:func:`_run` is the one integration routine of pnk, and the only
``solve_ivp`` call: it serves flows, orbit samples, variational flows,
the Floquet frame transport, fundamental matrices and forced responses.
One run may make at most ``MAX_EVALS`` = 100,000 right-hand-side calls;
beyond that it raises :class:`~pnk.errors.StepFailure`, so a stiff or
non-finite field stops instead of stepping on. A run that stops short
raises :class:`~pnk.errors.NonFinite` or :class:`~pnk.errors.StepFailure`.

The stepper is scipy's DOP853, the explicit Dormand-Prince Runge-Kutta
8(5,3) pair with scipy's elementary step-size control (no PI term), run
at rtol = tol and atol = tol / 100 so the default tol = 1e-10 lands at
the (1e-10, 1e-12) pair. Monodromy spectra downstream feed eigenvalue
gaps, so integration error has to sit well below them; tolerances are
per-call arguments everywhere, none below ``MIN_TOL`` (scipy's rtol floor,
100 machine epsilons, about 2.2e-14).

:func:`integrate_orbit` samples one orbit at many times from a single
run: the samples come from DOP853's dense output (its continuous
extension, 7th order), which costs three extra field evaluations on each
step that holds a sample, and the state check still sees every field
evaluation and every sample.

Variational matrices are integrated jointly with the state (dimension
n + n^2) rather than by differencing repeated flows: differencing a
tolerance-controlled integrator is noise limited, while the joint system
inherits the step control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import Field, VectorFieldFamily, as_params, as_point, wrap_angles
from .errors import Escape, NoConvergence, NonFinite, SingularGeometry, StepFailure

# The solve_ivp method of every integration in pnk (flow and floquet).
METHOD = "DOP853"
DEFAULT_TOL = 1e-10
ATOL_FACTOR = 1e-2
RETURN_MAX_ITER = 25

# Right-hand-side calls one integration may make before StepFailure.
MAX_EVALS = 100_000

# Smallest relative tolerance of an integration: scipy raises a smaller
# rtol to this with a warning, so the run would not be the one requested.
MIN_TOL = 100 * np.finfo(float).eps

# Below this, a requested flow time is treated as zero (no integration).
TINY_TIME = 1e-14


@dataclass(frozen=True)
class FlowResult:
    """Endpoint of an adaptive flow integration."""

    endpoint: np.ndarray
    steps_taken: int


@dataclass(frozen=True)
class VariationalResult:
    """Flow endpoint together with the derivative of the time-t map."""

    endpoint: np.ndarray
    tangent: np.ndarray
    steps_taken: int


def _check_state(x, chart_radius):
    # One reduction: NaN and inf propagate through max.
    m = float(np.abs(x).max())
    if not math.isfinite(m):
        raise NonFinite("trajectory left the finite chart (inf/nan state)")
    if chart_radius is not None and m > chart_radius:
        raise Escape(f"trajectory exceeded chart radius {chart_radius}")


def _checked_rhs(field: Field, eps):
    """The field as a solve_ivp right-hand side that checks each state."""
    value = field.value
    radius = field.chart_radius

    def rhs(_t, y):
        _check_state(y, radius)
        return value(y, eps)

    return rhs


def _check_tol(tol):
    if not tol >= MIN_TOL:
        raise ValueError(f"tol must be at least MIN_TOL = {MIN_TOL:.3g}")


def _run(rhs, y0, t, rtol, atol, t_eval=None, dense_output=False):
    """The one integration routine, over [0, t] (see the module docstring).

    Raises ValueError for an rtol below ``MIN_TOL``.
    """
    _check_tol(rtol)
    calls = 0

    def budgeted(s, y):
        nonlocal calls
        calls += 1
        if calls > MAX_EVALS:
            raise StepFailure(
                f"integration exceeded {MAX_EVALS} field evaluations")
        return rhs(s, y)

    # A blow-up overflows inside the stepper before the state check sees
    # it; NonFinite below reports it, so numpy's warning is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(budgeted, (0.0, t), y0, method=METHOD, rtol=rtol,
                        atol=atol, t_eval=t_eval, dense_output=dense_output)
    if sol.status != 0:
        # with t_eval, sol.y holds the samples reached so far (maybe none)
        reached = np.asarray(sol.y)
        last = reached[:, -1] if reached.size else y0
        if not np.all(np.isfinite(last)):
            raise NonFinite(f"integration blew up: {sol.message}")
        raise StepFailure(f"integration failed: {sol.message}")
    return sol


def _checked_start(field: Field, x0, eps, times, tol):
    """Validated start point and parameters of an integration of field."""
    x0 = as_point(x0, field.n)
    eps = as_params(eps, field.p)
    _check_tol(tol)
    if not np.all(np.isfinite(times)):
        raise ValueError("flow time must be finite")
    return x0, eps


def integrate_flow(field: Field, x0, eps, t: float,
                   tol: float = DEFAULT_TOL) -> FlowResult:
    """Flow x0 for time t under the field, with local error control."""
    x0, eps = _checked_start(field, x0, eps, t, tol)
    if abs(t) < TINY_TIME:
        return FlowResult(x0.copy(), 0)

    sol = _run(_checked_rhs(field, eps), x0, t, tol, tol * ATOL_FACTOR)
    end = sol.y[:, -1].copy()
    _check_state(end, field.chart_radius)
    return FlowResult(end, len(sol.t) - 1)


def integrate_orbit(field: Field, x0, eps, times,
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Sample the orbit of x0 at increasing positive times in one run.

    One adaptive integration to ``times[-1]``; the intermediate samples
    come from the stepper's dense output (the continuous extension of
    DOP853), so they cost no steps of their own. Returns an array of
    shape ``(len(times), n)``; its last row is the endpoint of the same
    run that :func:`integrate_flow` makes for time ``times[-1]``.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    x0, eps = _checked_start(field, x0, eps, times, tol)
    if times.size == 0 or times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be finite, positive and "
                         "strictly increasing")

    sol = _run(_checked_rhs(field, eps), x0, times[-1], tol,
               tol * ATOL_FACTOR, t_eval=times)
    _check_state(sol.y, field.chart_radius)
    return sol.y.T.copy()


def integrate_variational(field: Field, x0, eps, t: float,
                          tol: float = DEFAULT_TOL) -> VariationalResult:
    """Flow the state jointly with M' = DX(x(t)) M, M(0) = I.

    The returned ``tangent`` is the derivative of the time-t flow map at
    x0 (the total monodromy operator when the orbit is a closed loop).
    """
    x0, eps = _checked_start(field, x0, eps, t, tol)
    n = field.n
    if abs(t) < TINY_TIME:
        return VariationalResult(x0.copy(), np.eye(n), 0)

    value = field.value
    jac = field.jacobian
    radius = field.chart_radius

    def rhs(_t, y):
        x = y[:n]
        _check_state(x, radius)
        m = y[n:].reshape(n, n)
        dx = value(x, eps)
        dm = jac(x, eps) @ m
        return np.concatenate([np.asarray(dx, dtype=float).ravel(), dm.ravel()])

    y0 = np.concatenate([x0, np.eye(n).ravel()])
    sol = _run(rhs, y0, t, tol, tol * ATOL_FACTOR)
    end = sol.y[:n, -1].copy()
    _check_state(end, radius)
    tangent = sol.y[n:, -1].reshape(n, n).copy()
    return VariationalResult(end, tangent, len(sol.t) - 1)


@dataclass(frozen=True)
class ReturnSolve:
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
    for i, s in enumerate(times):
        if abs(s) < TINY_TIME:
            continue
        if with_variational:
            res = integrate_variational(family.member(i), z, eps, float(s), tol)
            var = res.tangent @ var
        else:
            res = integrate_flow(family.member(i), z, eps, float(s), tol)
        z = res.endpoint
    return z, var


def section_pairing(family: VectorFieldFamily, constraints, z, eps):
    """X(z) and the pairing ``constraints @ X(z)``; :class:`SingularGeometry`
    when its singular values have sv_min <= 1e-12 * max(1, sv_max)."""
    xmat = family.generators(z, eps)
    pairing = constraints @ xmat
    sv = np.linalg.svd(pairing, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise SingularGeometry(
            "constraint-field pairing matrix is singular "
            "(fields tangent to the section)")
    return xmat, pairing


def solve_return_times(family: VectorFieldFamily, y, eps, section,
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
    multipliers. A wild start is stopped by the iteration budget, by
    :func:`section_pairing` and by the chart escape check of each leg;
    :func:`~pnk.section.transversal_orbit` keeps an orbit's samples on
    the near intersection by ``ORBIT_MAX_GROUP_TIME``.

    Raises :class:`NoConvergence` when the iteration budget runs out, and
    :class:`SingularGeometry` when the pairing matrix degenerates (fields
    tangent to the section).
    """
    y = wrap_angles(as_point(y, family.n), section.base, section.angle_coords)
    eps = section.eps if eps is None else as_params(eps, family.p)

    constraints = section.constraints
    s = np.zeros(family.k)
    z = y
    for it in range(RETURN_MAX_ITER + 1):
        g = constraints @ (z - section.base)
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol and it > 0 and last_step <= tol:
            break
        if gnorm <= tol and it == 0:
            break
        if it == RETURN_MAX_ITER:
            raise NoConvergence(
                f"section return did not converge in {RETURN_MAX_ITER} "
                f"iterations (constraint residual {gnorm:.3g})")
        _, pairing = section_pairing(family, constraints, z, eps)
        ds = -np.linalg.solve(pairing, g)
        last_step = float(np.max(np.abs(ds)))
        z, _ = _compose_legs(family, z, eps, ds, tol, False)
        s = s + ds
    var = None
    if with_variational:
        z, var = _compose_legs(family, y, eps, s, tol, True)
    return ReturnSolve(s, z, it, var)
