"""Linearized periodic systems along a torus loop: coefficient extraction,
fundamental matrices, Floquet decomposition and forced periodic response.

Along the unperturbed loop orbit the deviation dynamics are carried in a
moving frame made of the generator values G(t) and a transversal
complement S(t). Because commuting fields push forward onto themselves,
the G columns solve the variational equation exactly and the transversal
block decouples:

    w' = W(t) (J(t) S(t) - S'(t)) w =: Ahat(t) w

with W the covectors dual to S. The frame is anchored to the section
basis at t = 0 and must return to it after one loop, so the monodromy
matrix of this linear periodic system carries the transversal multipliers
of the loop, independently computed from the coefficient route rather
than from the full variational flow.

The blocks are evaluated exactly at every time the integrator asks for,
from the loop field at ``seed.eps0``, as in every seed-based analysis:
``LinearizedCoefficients.at(t, S)`` makes one generator evaluation and
takes one loop jacobian J per stage. The frame S is constant when the
chart carries angle coordinates, and otherwise transported along the
loop with Theta, as one state [Theta; S], by :func:`fundamental_matrix`;
by the same push-forward, G' = J G, so its transport is exact too.
Every integration runs through :func:`pnk.flow.integrate`, so failures
are those of a flow. A period T must be finite and positive, and its
``n_out`` >= 2 samples hold both ends, 0 and T.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import flow, spectra
from .core import (RANK_TOL, TWO_PI, TorusSeed, VectorFieldFamily, as_winding,
                   loop_field)
from .errors import DegenerateTangent, NoConvergence, Resonance, SingularMonodromy
from .flow import DEFAULT_TOL
from .section import build_section

# A transported frame that misses its start by more after one loop twists
# the normal bundle: no periodic frame of this kind exists.
HOLONOMY_TOL = 1e-6

# A multiplier this close to 1 makes the forced response resonant.
RESONANCE_TOL = 1e-8

# A monodromy matrix with a smaller relative singular value has no logarithm.
SINGULAR_TOL = 1e-8


class LinearizedCoefficients(NamedTuple):
    """Periodic coefficient blocks along the loop orbit, exact at any time.

    ``at(t, S)`` returns ``(S', Ahat, Bhat, Phat, Qhat)`` at time t in the
    transversal frame S: the frame's time derivative and the four blocks.
    ``Ahat`` (r x r) drives the transversal deviations, ``Bhat`` (r x p)
    their parameter forcing; ``Phat`` (k x r) and ``Qhat`` (k x p)
    describe the drift of the angle deviations, and drive no analysis
    here. ``frame`` is S(0), so ``at(0.0, frame)`` holds the blocks at 0.
    When ``transported`` is False the frame is constant and S' is zero;
    otherwise S' is the transport of S along the loop, exact from G' = J G,
    and S(t) for t > 0 is known only inside :func:`fundamental_matrix`.
    """

    T: float
    frame: np.ndarray
    transported: bool
    at: Callable[[float, np.ndarray], tuple]


def extract_linearization(family: VectorFieldFamily, seed: TorusSeed,
                          alpha) -> LinearizedCoefficients:
    """The coefficient blocks along the loop orbit.

    The orbit is phi(t) = 2*pi*alpha*t over t in [0, 1]; all
    derivatives are evaluated on the embedded torus at ``seed.eps0``. The
    transversal gauge is the constant coordinate complement when the chart
    carries angle coordinates (flow-box form: the frame never rotates),
    and the parallel-transported section basis otherwise.
    """
    a = as_winding(alpha, seed.k)
    eps0 = seed.eps0
    field = loop_field(family, a)
    transported = len(seed.angle_coords) != seed.k
    if transported:
        frame = build_section(family, seed).transversal_basis
    else:
        frame = np.delete(np.eye(family.n), seed.angle_coords, axis=1)
    zero = np.zeros_like(frame)

    def at(t, s_basis):
        z = seed.point(TWO_PI * a * t)
        gens = family.generators(z, eps0)
        full = np.column_stack([gens, s_basis])
        sv = np.linalg.svd(full, compute_uv=False)
        if sv[-1] <= RANK_TOL * max(1.0, sv[0]):
            raise DegenerateTangent(
                "transversal gauge degenerates against the generators "
                f"at t={t:.4g}")
        jac = field.jacobian(z, eps0)
        s_dot = zero
        if transported:
            # Kato's transport S' = (P' P - P P') S along the projector P
            # onto the complement of G = QR keeps S orthonormal in range P.
            # With L = P G' G^+, G^+ = R^-1 Q^T and G' = J G, P' = -(L + L^T)
            # and the generator is L - L^T. A loop that twists the normal
            # bundle has no periodic frame of this kind.
            q, r_fac = np.linalg.qr(gens)
            g_dot = jac @ gens
            lift = (g_dot - q @ (q.T @ g_dot)) @ np.linalg.solve(r_fac, q.T)
            s_dot = (lift - lift.T) @ s_basis
        inv = np.linalg.inv(full)
        n_cov, w_cov = inv[:family.k], inv[family.k:]
        core = jac @ s_basis - s_dot
        epsjac = field.eps_jacobian(z, eps0)
        return (s_dot, w_cov @ core, w_cov @ epsjac, n_cov @ core,
                n_cov @ epsjac)

    return LinearizedCoefficients(1.0, frame, transported, at)


def _coefficient_flow(coeffs: LinearizedCoefficients):
    """Right-hand side, start and :func:`pnk.flow.integrate` split of
    Theta' = Ahat(t) Theta with exact blocks; a transported frame S joins
    Theta as one state [Theta; S], which the split hands over as the
    blocks Theta and S."""
    at, frame = coeffs.at, coeffs.frame
    r = frame.shape[1]
    if not coeffs.transported:
        def rhs(t, y, out):
            at(t, frame)[1].dot(y, out=out)
        return rhs, np.eye(r), None

    def joint_rhs(t, y, out):
        theta, s_basis = y
        theta_dot, s_out = out
        s_dot, ahat = at(t, s_basis)[:2]
        s_out[...] = s_dot
        ahat.dot(theta, out=theta_dot)
    return (joint_rhs, np.vstack([np.eye(r), frame]),
            (slice(None, r), slice(r, None)))


def _as_matrix_func(Ahat):
    """Normalize matrix input: callable of t, or constant matrix."""
    if callable(Ahat):
        probe = np.atleast_2d(np.asarray(Ahat(0.0), dtype=float))
        r = probe.shape[0]
        return (lambda t: np.atleast_2d(np.asarray(Ahat(t), dtype=float))), r
    const = np.atleast_2d(np.asarray(Ahat, dtype=float))
    return (lambda t: const), const.shape[0]


class FundamentalMatrix(NamedTuple):
    """Sampled fundamental matrix Theta(t) with Theta(0) = I, and Q = Theta(T)."""

    times: np.ndarray
    samples: np.ndarray  # (m, r, r)
    Q: np.ndarray
    T: float


def _period_sampler(T, n_out, tol):
    """Refuse a period T that is not finite and positive, or ``n_out`` < 2
    (``ValueError``); else ``sample(rhs, y0, split=None) -> (times,
    run)``, one :func:`pnk.flow.integrate` run over [0, T] at ``n_out``
    uniform times, whose last sample is the endpoint itself."""
    if not 0.0 < T < math.inf:
        raise ValueError("period must be finite and positive")
    if n_out < 2:
        raise ValueError("n_out must be at least 2")
    times = np.linspace(0.0, T, n_out)

    def sample(rhs, y0, split=None):
        run = flow.integrate(rhs, y0, T, tol, times, split)
        run.samples[-1] = run.endpoint
        return times, run
    return sample


def fundamental_matrix(Ahat, T: float, tol: float = DEFAULT_TOL,
                       n_out: int = 129) -> FundamentalMatrix:
    """Integrate Theta' = Ahat(t) Theta, Theta(0) = I over [0, T].

    ``Ahat`` is a callable of t, a constant matrix, or the coefficients
    of :func:`extract_linearization`. A transported frame that misses
    S(0) at T by more than ``HOLONOMY_TOL`` raises
    :class:`DegenerateTangent`. A period that is not finite and positive,
    or ``n_out`` < 2, raises ``ValueError`` before Ahat is evaluated.
    """
    sample = _period_sampler(T, n_out, tol)
    if isinstance(Ahat, LinearizedCoefficients):
        rhs, y0, split = _coefficient_flow(Ahat)
    else:
        func, r = _as_matrix_func(Ahat)

        def rhs(t, y, out):
            func(t).dot(y, out=out)
        y0, split = np.eye(r), None
    times, run = sample(rhs, y0, split)
    r = y0.shape[1]  # rows below r carry a transported frame S
    holonomy = float(np.max(np.abs(run.endpoint[r:] - y0[r:]), initial=0.0))
    if holonomy > HOLONOMY_TOL:
        raise DegenerateTangent(
            f"normal frame does not return after one loop (holonomy defect "
            f"{holonomy:.3g}); supply chart angle coordinates instead")
    return FundamentalMatrix(times, run.samples[:, :r], run.endpoint[:r],
                             float(T))


class FloquetDecomposition(NamedTuple):
    """Factorization Theta(t) = M(t) exp(B t) of a fundamental matrix.

    ``real_form`` is False when Q has eigenvalues on the negative real
    axis, which forces the complex principal branch of the logarithm; the
    decomposition is reported as-is rather than doubling the period.
    ``multipliers`` are the eigenvalues of Q, ``exponents`` their
    principal logarithms over T (so mu = exp(lambda T) holds by
    construction).
    """

    Q: np.ndarray
    B: np.ndarray
    multipliers: np.ndarray
    exponents: np.ndarray
    times: np.ndarray
    periodic_part: np.ndarray  # samples of M(t)
    real_form: bool
    T: float
    log_residual: float
    periodicity_defect: float


def floquet_decompose(theta: FundamentalMatrix) -> FloquetDecomposition:
    """Split a fundamental matrix into periodic part and constant exponent.

    B = log(Q) / T, T = ``theta.T``, via the Schur-based matrix logarithm
    (real when the spectrum allows, complex principal branch otherwise);
    then M(t) = Theta(t) exp(-B t). Raises :class:`SingularMonodromy` when
    Q is singular within ``SINGULAR_TOL``.
    """
    from scipy.linalg import expm, logm

    T = theta.T
    q = theta.Q
    sv = np.linalg.svd(q, compute_uv=False)
    if sv[-1] <= SINGULAR_TOL * max(1.0, sv[0]):
        raise SingularMonodromy(
            f"monodromy matrix is singular (smallest singular value {sv[-1]:.3g})")
    log_q = logm(q)
    if np.iscomplexobj(log_q):
        scale = 1.0 + float(np.max(np.abs(log_q.real)))
        if float(np.max(np.abs(log_q.imag))) <= 1e-12 * scale:
            log_q = log_q.real
            real_form = True
        else:
            real_form = False
    else:
        real_form = True
    b = log_q / T
    periodic = np.stack([theta.samples[i] @ expm(-b * t)
                         for i, t in enumerate(theta.times)])
    multipliers = spectra.sorted_complex(np.linalg.eigvals(q))
    exponents = np.log(multipliers.astype(complex)) / T
    log_residual = float(np.max(np.abs(expm(b * T) - q)))
    periodicity_defect = float(np.max(np.abs(periodic[0] - periodic[-1])))
    return FloquetDecomposition(q, b, multipliers, exponents, theta.times,
                                periodic, real_form, T, log_residual,
                                periodicity_defect)


class ForcedResponse(NamedTuple):
    """The unique T-periodic solution of u' = Ahat(t) u + b(t)."""

    times: np.ndarray
    samples: np.ndarray  # (m, r)
    initial: np.ndarray
    periodicity_residual: float
    multipliers: np.ndarray


def forced_response(Ahat, bhat, T: float, tol: float = DEFAULT_TOL,
                    n_out: int = 129) -> ForcedResponse:
    """Periodic response to periodic forcing, by variation of constants.

    When no multiplier sits within ``RESONANCE_TOL`` of 1, the unique
    periodic solution starts at (I - Q)^{-1} u_p(T) with u_p the
    zero-initial particular solution; otherwise secular terms appear and
    :class:`Resonance` is raised. A period that is not finite and
    positive, or ``n_out`` < 2, raises ``ValueError`` before Ahat or bhat
    is evaluated.
    """
    sample = _period_sampler(T, n_out, tol)
    func, r = _as_matrix_func(Ahat)
    fm = fundamental_matrix(Ahat, T, tol=tol, n_out=2)
    multipliers = spectra.sorted_complex(np.linalg.eigvals(fm.Q))
    gap = spectra.margins(multipliers)[0]
    if gap <= RESONANCE_TOL:
        raise Resonance(
            f"a multiplier lies within {RESONANCE_TOL:.3g} of 1 "
            f"(gap {gap:.3g}); no unique periodic response")

    def forcing(t):
        return np.asarray(bhat(t), dtype=float).reshape(r)

    def rhs(t, y, out):
        func(t).dot(y, out=out)
        out += forcing(t)

    part = flow.integrate(rhs, np.zeros(r), T, tol)
    u0 = np.linalg.solve(np.eye(r) - fm.Q, part.endpoint)
    times, run = sample(rhs, u0)
    samples = run.samples
    residual = float(np.max(np.abs(run.endpoint - u0)))
    scale = 1.0 + float(np.max(np.abs(samples)))
    if residual > 100.0 * tol * scale:
        raise NoConvergence(
            f"periodic response failed verification (residual {residual:.3g})")
    return ForcedResponse(times, samples, u0, residual, multipliers)


class BlockSpectrumReport(NamedTuple):
    spectrum: np.ndarray
    expected: np.ndarray
    max_distance: float
    passed: bool


def block_spectrum_check(Ahat0, Bhat0, tol: float = 1e-10) -> BlockSpectrumReport:
    """Spectrum of [[A, B], [0, 0]] must be spec(A) plus p zeros.

    The parameter directions contribute only zero eigenvalues, so they
    never affect invertibility of I - L; this check makes that explicit
    for given constant blocks.
    """
    a = np.atleast_2d(np.asarray(Ahat0, dtype=float))
    b = np.asarray(Bhat0, dtype=float)
    if b.ndim == 1:
        b = b.reshape(a.shape[0], -1)
    r = a.shape[0]
    p = b.shape[1]
    w = np.zeros((r + p, r + p))
    w[:r, :r] = a
    w[:r, r:] = b
    spectrum = spectra.sorted_complex(np.linalg.eigvals(w))
    expected = spectra.sorted_complex(
        np.concatenate([np.linalg.eigvals(a), np.zeros(p, dtype=complex)]))
    dist = spectra.match_distance(spectrum, expected)
    return BlockSpectrumReport(spectrum, expected, dist, dist <= tol)
