"""Adaptive integration of flows and variational (tangent) flows.

This module only integrates: it knows fields, start points, times and
tolerances, and nothing of tori.

:func:`integrate` is the one integration routine of pnk: it serves
flows and their orbit samples, variational flows, the Floquet frame
transport, fundamental matrices and forced responses, and returns one
record, :class:`FlowResult` (with the ``tangent`` of a variational run).
A run may make at most ``MAX_EVALS`` = 100,000 right-hand-side calls,
charged per batch of stages before it runs, so a stiff or non-finite
field raises :class:`~pnk.errors.StepFailure` instead of stepping on.
The right-hand sides of :func:`integrate_flow` and
:func:`integrate_variational` refuse a state that is not finite; each
step evaluates its end state, so that check covers a run's end too.

The stepper is DOP853, the explicit Dormand-Prince Runge-Kutta 8(5,3)
pair (Hairer, Norsett and Wanner, *Solving Ordinary Differential
Equations I*, sec. II.10), with elementary step-size control (no PI
term). :func:`integrate` owns the step loop but does scipy's arithmetic
in scipy's order. Its tableau, controller constants, initial-step rule and
dense-output polynomial are pnk's own copy of scipy 1.17.1's
(:mod:`pnk._dop853`), which the tests check equal to scipy's, so no
scipy module is imported; its end state, step count and samples are
those of ``solve_ivp(method="DOP853")``, bit for bit. What the loop
saves is the per-call wrapping: a stage calls the right-hand side,
which writes c_0 X_0(x) into the stage's row and adds each further term
c_i X_i(x) there (a plain field is one term at scale 1.0, exact); a
variational stage sums the jacobians so into one n x n buffer and writes
its product with M. A one-term stage thus costs the state check, a
kernel call and a ufunc (variational: two of each and a dot), and skips
the loop over further terms. A state of any shape steps as its flat
row-major form, seen by the right-hand side in y0's shape ([x; M] is one
(n + 1, n) array). At pnk's chart sizes a numpy call's fixed cost, about
a microsecond, outweighs its arithmetic, so products are ``ndarray.dot``
calls into buffers, and the state check and the step-size controller
work on Python floats. A view costs about 0.1 us, so every view a
right-hand side receives is built once per run, at its start: the
stage rows, the stage state and the two buffers that hold the accepted
state in turn. A state that splits into blocks ([x; M] of a variational
run, [Theta; S] of a transported Floquet frame) reaches its right-hand
side as the tuple of its block views, built there too, so no stage
makes a view. A trial step writes its new state and its error scale
into buffers of the run, so no step allocates an array either. A ufunc takes no
Python float, though: the step size h, the scales c_i
(:func:`~pnk.core.scaled_kernels`) and the tolerances of the error scale
are 0-d float64 arrays. Under numpy 2's rules for Python scalars (NEP
50), ``np.multiply(dy, h, out=dy)`` on a 2-vector took 0.72 us at best
with h a Python float, or a numpy float64 scalar, and 0.49 us with h a
0-d array (numpy 2.4.6, 2-vCPU Xeon). The multiply by the same double
is the same, so each bit of a float64 kernel's row is too; a float32
kernel's result is scaled in float64, not in float32.
A run takes one tolerance tol and steps at rtol = tol and atol = tol *
``ATOL_FACTOR`` = tol / 100, so the default tol = 1e-10 lands at the
(1e-10, 1e-12) pair. Monodromy spectra downstream feed eigenvalue gaps,
so integration error has to sit well below them; tolerances are
per-call arguments everywhere, none below ``MIN_TOL`` (100 machine
epsilons, about 2.2e-14).

An orbit sampled at many times is one :func:`integrate_flow` run with
``times``: the samples come from DOP853's dense output (its continuous
extension, 7th order). A step that holds no sample time costs one float
compare against the next pending time. A step that holds some costs
three extra field evaluations and h D K, one ``ndarray.dot`` scaled by
h (a sum of products rewritten on floats would not keep BLAS's
rounding); then, on Python floats, each entry's other three
coefficients once and scipy's Horner loop once per held time, each
with scipy's operations in scipy's order, so every sample's bits are
those of ``solve_ivp``'s ``sol``. At pnk's chart sizes this costs a few
microseconds for a step that holds one or two times, as each step of a
return-map orbit sampled at integer times does, and grows with the
times a step holds (a torus row's steps hold dozens). The state check
still sees every field evaluation and every sample.

Variational matrices are integrated jointly with the state (dimension
n + n^2) rather than by differencing repeated flows: differencing a
tolerance-controlled integrator is noise limited, while the joint system
inherits the step control.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from . import _dop853 as dop853
from ._dop853 import (MAX_FACTOR, MIN_FACTOR, SAFETY, TOO_SMALL_STEP,
                      select_initial_step)
from .core import Field, all_finite, as_params, as_point, scaled_kernels
from .errors import NonFinite, StepFailure

# The method of every integration in pnk (flow and floquet), as reported.
METHOD = "DOP853"
DEFAULT_TOL = 1e-10
ATOL_FACTOR = 1e-2

# Right-hand-side calls one integration may make before StepFailure.
MAX_EVALS = 100_000

# Smallest relative tolerance of an integration, 100 machine epsilons:
# the floor of scipy's solvers, below which the local error test would
# mostly measure rounding. A smaller tol is refused, not raised to it.
MIN_TOL = 100 * np.finfo(float).eps

# Below this, a requested flow time is treated as zero (no integration).
TINY_TIME = 1e-14

# DOP853 takes 12 stages per step and 3 more for its dense output; the
# step-size controller works with its 7th-order error estimator.
_STAGES = dop853.N_STAGES
_ERROR_ORDER = 7
_ERROR_EXPONENT = -1 / (_ERROR_ORDER + 1)

# Stage s's coefficients (s, A[s, :s], C[s]) of every stage after the
# first, the step's and the dense output's.
_TABLEAU = [(s, dop853.A[s, :s], float(dop853.C[s]))
            for s in range(1, dop853.N_STAGES_EXTENDED)]


class FlowResult(NamedTuple):
    """What a run returns: the state ``endpoint`` at time t, the number of
    accepted steps, ``samples``, one state per requested time (None when
    no times were requested), all in the start state's shape, and the
    ``tangent`` M(t) of a variational run (None for any other run)."""

    endpoint: np.ndarray
    steps_taken: int
    samples: np.ndarray | None = None
    tangent: np.ndarray | None = None


def _check_state(x):
    """Raise NonFinite for a NaN or inf entry of the 1-D array x."""
    if not all_finite(x):
        raise NonFinite("trajectory left the finite chart (inf/nan state)")


def _checked_rhs(field: Field, eps):
    """The field as an :func:`integrate` right-hand side that checks each
    state and writes the scaled sum of its terms into the stage row."""
    value, c0, rest = scaled_kernels(field.terms, "value")

    def rhs(_t, y, out):
        _check_state(y)
        np.multiply(value(y, eps), c0, out=out)
        if rest:  # a one-term field skips the loop's set-up
            for kernel, c in rest:
                np.add(out, np.multiply(kernel(y, eps), c), out=out)

    return rhs


def _check_tol(tol):
    if not tol >= MIN_TOL:
        raise ValueError(f"tol must be at least MIN_TOL = {MIN_TOL:.3g}")


def _stages(fun, stages, t, y, h, h_arr, dy, y_stage, y_shaped):
    """Evaluate ``stages`` of a DOP853 step of size h from (t, y).

    Each stage (K[:s].T, a, c, K[s] in the state's shape) writes the
    derivative at time t + c h and state y + h (K[:s].T @ a) into K[s];
    h_arr is h as a 0-d array, dy and y_stage are the flat buffers of the
    increment and of the state, y_shaped is y_stage in the state's shape.
    """
    for kt, a, c, out in stages:
        kt.dot(a, out=dy)
        np.multiply(dy, h_arr, out=dy)
        np.add(y, dy, out=y_stage)
        fun(t + c * h, y_shaped, out)


def _error_norm(k_step, h_abs, scale, err5, err3):
    """The DOP853 error norm of a step with stages ``k_step`` (K[:13].T),
    from its 5th- and 3rd-order estimates (written into err5 and err3)."""
    k_step.dot(dop853.E5, out=err5)
    np.divide(err5, scale, out=err5)
    k_step.dot(dop853.E3, out=err3)
    np.divide(err3, scale, out=err3)
    # np.linalg.norm(err) ** 2 on Python floats; sqrt(max) ** 2 is finite
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    if denom == 0:  # 0.01 * err3_norm_2 underflowed: numpy's 0 / 0
        return math.nan
    return h_abs * err5_norm_2 / math.sqrt(denom * len(scale))


def integrate(rhs, y0, t, tol, times=None, split=None) -> FlowResult:
    """The one integration routine, over [0, t] at rtol = tol and atol =
    tol * ``ATOL_FACTOR`` (see the module docstring).

    ``rhs(s, y, out)`` writes the derivative at time s and state y into
    ``out``, the stage row it fills; both have y0's shape, and it must
    keep neither after it returns, since both are buffers of the next
    stage. Each y and out it receives is one of a few views that the run
    builds once, at its start. With ``split``, a tuple of indices into
    y0's shape, y and out are instead the tuples of those blocks of the
    state and of the row (``(0, slice(1, None))`` gives the x row and the
    M block of [x; M]), also built at the start, so a right-hand side
    that reads blocks makes no view of its own. A state of any shape
    takes the steps of its flat row-major form; ``endpoint`` has y0's
    shape, ``samples`` ``(len(times),) + y0.shape``. ``times``, when given, is a nonempty 1-D array of finite,
    strictly increasing times in [0, t], so t is positive; each time is
    sampled by the dense output of the step that ends at or after it.

    Raises ValueError for a tol below ``MIN_TOL``, a non-finite y0 or
    ``times`` that break that rule.
    A run whose step size falls below 10 spacings of its time raises
    :class:`~pnk.errors.NonFinite` when the last state the stepper
    accepted is not finite, :class:`~pnk.errors.StepFailure` otherwise.
    """
    _check_tol(tol)
    rtol, atol = tol, tol * ATOL_FACTOR
    rtol_arr, atol_arr = np.array(rtol), np.array(atol)
    y0 = np.array(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise ValueError(
            "All components of the initial state `y0` must be finite.")
    shape, n = y0.shape, y0.size
    t0, t_bound = 0.0, float(t)
    direction = float(np.sign(t_bound - t0)) if t_bound != t0 else 1.0
    if times is not None:
        times = np.asarray(times, dtype=float)
        if not (t_bound > t0 and times.ndim == 1 and times.size
                and np.isfinite(times).all() and times[0] >= t0
                and times[-1] <= t_bound and (np.diff(times) > 0).all()):
            raise ValueError("sample times need a positive t and must be "
                             "finite, strictly increasing and in [0, t]")
        samples = np.empty(times.size * n)  # flat, time by time
    calls = 0

    def charge(count):  # before a batch of count rhs calls runs
        nonlocal calls
        calls += count
        if calls > MAX_EVALS:
            raise StepFailure(
                f"integration exceeded {MAX_EVALS} field evaluations")

    def handed(flat):
        """What the right-hand side receives for the flat buffer flat."""
        shaped = flat.reshape(shape)
        return shaped if split is None else tuple(shaped[i] for i in split)

    # Row s of K is stage s; row _STAGES is the derivative at the step's
    # end, which the next step copies to its stage 0. The stage views,
    # the two accepted-state buffers, which the steps take in turn, and
    # the increment, state, error and error-scale buffers serve every
    # step of the run.
    K = np.empty((dop853.N_STAGES_EXTENDED, n))
    stages = [(K[:s].T, a, c, handed(K[s])) for s, a, c in _TABLEAU]
    step_stages, extra_stages = stages[:_STAGES - 1], stages[_STAGES:]
    k_body, k_step, f_new = K[:_STAGES].T, K[:_STAGES + 1].T, K[_STAGES]
    states = np.empty((2, n))
    state_views = [handed(y) for y in states]
    dy, y_stage, err5, err3, scale, scale_new = np.empty((6, n))
    h_arr = np.empty(())  # h of the trial step, as a ufunc operand
    # the dense output's coefficient rows 3 on, h D K
    hdk = np.empty((dop853.INTERPOLATOR_POWER - 3, n))
    f_view, stage_view = handed(f_new), handed(y_stage)

    def step(t_old, y_old, y_new, y_new_view, h_abs):
        """Trial steps from (t_old, y_old), from size h_abs on, until one
        passes the error test: (t_new, h, next h_abs), with the new state
        in y_new, or None once the size falls below 10 spacings of
        t_old."""
        K[0] = f_new
        min_step = 10 * abs(math.nextafter(t_old, direction * math.inf)
                            - t_old)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while h_abs >= min_step:
            h = h_abs * direction
            t_new = t_old + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t_old
            h_abs = abs(h)
            h_arr[()] = h
            charge(_STAGES - 1)
            _stages(rhs, step_stages, t_old, y_old, h, h_arr, dy, y_stage,
                    stage_view)
            k_body.dot(dop853.B, out=dy)
            np.multiply(dy, h_arr, out=dy)
            np.add(y_old, dy, out=y_new)
            charge(1)
            rhs(t_old + h, y_new_view, f_view)
            # atol + max(|y_old|, |y_new|) * rtol
            np.abs(y_old, out=scale)
            np.abs(y_new, out=scale_new)
            np.maximum(scale, scale_new, out=scale)
            np.multiply(scale, rtol_arr, out=scale)
            np.add(atol_arr, scale, out=scale)
            error_norm = _error_norm(k_step, h_abs, scale, err5, err3)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                return t_new, h, h_abs * factor
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        return None

    def extend(t_old, y_old, h):
        """The dense output's 3 extra stages over the step just accepted,
        of size h (still in h_arr), and h D K into hdk."""
        charge(len(extra_stages))
        _stages(rhs, extra_stages, t_old, y_old, h, h_arr, dy, y_stage,
                stage_view)
        dop853.D.dot(K, out=hdk)
        np.multiply(hdk, h_arr, out=hdk)

    def dense(t_old, y_old, y_new, h, at):
        """The dense output over the step just accepted, after
        :func:`extend`, at the times at (Python floats), as one flat list
        of their states in turn: each entry's coefficients once, then the
        Horner loop of scipy's ``Dop853DenseOutput._call_impl`` per time,
        all on Python floats with scipy's operations in scipy's order."""
        coefficients = []
        for y0, y1, k0, k1, f3, f4, f5, f6 in zip(
                y_old.tolist(), y_new.tolist(), K[0].tolist(),
                f_new.tolist(), *hdk.tolist()):
            f0 = y1 - y0
            coefficients.append((y0, f0, h * k0 - f0,
                                 2.0 * f0 - h * (k1 + k0), f3, f4, f5, f6))
        xs = []
        for s in at:
            x = (s - t_old) / h
            xs.append((x, 1 - x))
        # from 0, y = (y + f) * x, then * x1, and so on, f6 down to f0
        return [(((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2)
                  * x + f1) * x1 + f0) * x + y0
                for x, x1 in xs
                for y0, f0, f1, f2, f3, f4, f5, f6 in coefficients]

    def initial_slope(s, x):  # select_initial_step's one call, into row 1
        rhs(s, handed(x), stages[0][-1])
        return K[1].reshape(shape)

    steps, sampled, t_now = 0, 0, t0
    # the times as Python floats, and the first not yet sampled
    pending = [] if times is None else times.tolist()
    next_time = pending[0] if pending else math.inf
    # y is the state the stepper last accepted, y_new the other buffer
    (y, y_new), (y_view, y_new_view) = states, state_views
    y[:] = y0.reshape(n)
    # A blow-up overflows inside the stepper before the state check sees
    # it; NonFinite below reports it, so numpy's warning is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        charge(2)  # the start-up batch: at t0 and initial_slope
        rhs(t0, y_view, f_view)
        h_abs = float(select_initial_step(
            initial_slope, t0, y0, t_bound, np.inf, f_new.reshape(shape),
            direction, _ERROR_ORDER, rtol, atol))
        while t_now != t_bound:
            t_old = t_now
            accepted = step(t_old, y, y_new, y_new_view, h_abs)
            if accepted is None:
                if not np.all(np.isfinite(y)):
                    raise NonFinite(f"integration blew up: {TOO_SMALL_STEP}")
                raise StepFailure(f"integration failed: {TOO_SMALL_STEP}")
            t_now, h, h_abs = accepted
            y_old, y, y_new = y, y_new, y
            y_view, y_new_view = y_new_view, y_view
            steps += 1
            # a time equal to t_now is sampled on this step
            if t_now < next_time:
                continue
            extend(t_old, y_old, h)
            held = bisect_right(pending, t_now, sampled)
            samples[sampled * n:held * n] = dense(t_old, y_old, y, h,
                                                  pending[sampled:held])
            sampled = held
            next_time = pending[sampled] if sampled < len(pending) \
                else math.inf
    return FlowResult(y.reshape(shape), steps, None if times is None
                      else samples.reshape(times.shape + shape))


def _checked_start(field: Field, x0, eps, t, tol):
    """Validated start point and parameters of an integration of field."""
    x0 = as_point(x0, field.n)
    eps = as_params(eps, field.p)
    _check_tol(tol)
    if not np.isfinite(t):
        raise ValueError("flow time must be finite")
    return x0, eps


def integrate_flow(field: Field, x0, eps, t: float, tol: float = DEFAULT_TOL,
                   times=None) -> FlowResult:
    """Flow x0 for time t under the field, with local error control.

    With ``times`` (under :func:`integrate`'s rule) the same run also
    samples the orbit at them, from the stepper's dense output, so the
    samples cost no steps of their own; a time-0 sample is x0.
    """
    x0, eps = _checked_start(field, x0, eps, t, tol)
    if times is None and abs(t) < TINY_TIME:
        return FlowResult(x0.copy(), 0)

    run = integrate(_checked_rhs(field, eps), x0, t, tol, times)
    if times is not None:
        _check_state(run.samples.ravel())
    return run


def integrate_variational(field: Field, x0, eps, t: float,
                          tol: float = DEFAULT_TOL) -> FlowResult:
    """Flow the state jointly with M' = DX(x(t)) M, M(0) = I.

    The returned ``tangent`` is the derivative of the time-t flow map at
    x0 (the total monodromy operator when the orbit is a closed loop).
    """
    x0, eps = _checked_start(field, x0, eps, t, tol)
    n = field.n
    if abs(t) < TINY_TIME:
        return FlowResult(x0.copy(), 0, tangent=np.eye(n))

    value, c0, values = scaled_kernels(field.terms, "value")
    jac, _, jacs = scaled_kernels(field.terms, "jacobian")
    rest = [(value_i, jac_i, c)
            for (value_i, c), (jac_i, _) in zip(values, jacs)]
    jac_sum = np.empty((n, n))

    def rhs(_t, y, out):
        x, m = y
        _check_state(x)
        row, m_dot = out
        np.multiply(value(x, eps), c0, out=row)
        np.multiply(jac(x, eps), c0, out=jac_sum)
        if rest:  # a one-term field skips the loop's set-up
            for value_i, jac_i, c in rest:
                np.add(row, np.multiply(value_i(x, eps), c), out=row)
                np.add(jac_sum, np.multiply(jac_i(x, eps), c), out=jac_sum)
        jac_sum.dot(m, out=m_dot)

    run = integrate(rhs, np.vstack([x0, np.eye(n)]), t, tol,
                    split=(0, slice(1, None)))
    return FlowResult(run.endpoint[0], run.steps_taken,
                      tangent=run.endpoint[1:])
