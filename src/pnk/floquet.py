"""Linearized periodic systems along a torus loop: coefficient extraction,
fundamental matrices, Floquet decomposition and forced periodic response.

Along the unperturbed loop orbit the deviation dynamics are carried in a
moving frame made of the generator values G(t) and a transversal
complement S(t). Because commuting fields push forward onto themselves,
the G columns solve the variational equation exactly and the transversal
block decouples:

    w' = W(t) (J(t) S(t) - S'(t)) w =: Ahat(t) w

with W the covectors dual to S. The frame is anchored to the section
basis at t = 0 and is periodic by construction, so the monodromy matrix
of this linear periodic system carries the transversal multipliers of the
loop, independently computed from the coefficient route rather than from
the full variational flow.

The coefficients come from the loop field that the loop flows integrate,
at the seed parameter ``seed.eps0``, as in every seed-based analysis.
The frame transport, fundamental matrices and forced responses run
through :func:`pnk.flow.integrate`, so their failures are the
:class:`~pnk.errors.NonFinite`/:class:`~pnk.errors.StepFailure` of a flow.
Their ``n_out`` >= 2 samples hold both ends of the period, 0 and T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import flow, numdiff, spectra
from .core import TWO_PI, TorusSeed, VectorFieldFamily, as_winding, loop_field
from .errors import DegenerateTangent, NoConvergence, Resonance, SingularMonodromy
from .flow import ATOL_FACTOR, DEFAULT_TOL
from .section import build_section

FRAME_FD_STEP = 1e-3

# A multiplier this close to 1 makes the forced response resonant.
RESONANCE_TOL = 1e-8

# A monodromy matrix with a smaller relative singular value has no logarithm.
SINGULAR_TOL = 1e-8


@dataclass(frozen=True)
class LinearizedCoefficients:
    """Periodic coefficient blocks along the loop orbit.

    ``Ahat(t)`` (r x r) drives the transversal deviations, ``Bhat(t)``
    (r x p) their parameter forcing; ``Phat`` (k x r) and ``Qhat`` (k x p)
    describe the drift of the angle deviations. The angle blocks are
    extracted and stored for completeness but drive no analysis here. All
    callables are periodic cubic interpolants of ``n_samples`` samples.
    """

    T: float
    times: np.ndarray
    Ahat: Callable[[float], np.ndarray]
    Bhat: Callable[[float], np.ndarray]
    Phat: Callable[[float], np.ndarray]
    Qhat: Callable[[float], np.ndarray]
    Ahat_samples: np.ndarray
    Bhat_samples: np.ndarray
    Phat_samples: np.ndarray
    Qhat_samples: np.ndarray


def _coordinate_gauge(family, seed, times):
    """Constant transversal frame from the non-angle chart coordinates,
    and its derivative, at each of ``times``.

    Valid when the chart splits into k angle coordinates plus r
    transversal ones (flow-box form); then the frame never rotates and
    its time derivative vanishes identically.
    """
    trans_idx = [i for i in range(family.n) if i not in seed.angle_coords]
    s_const = np.eye(family.n)[:, trans_idx]
    frames = np.broadcast_to(s_const, (len(times),) + s_const.shape)
    return frames, np.zeros_like(frames)


def _transport_gauge(family, seed, a, period, times):
    """Parallel transport of the initial complement along the orbit.

    The orthogonal projector P(t) onto the complement of the generator
    span is canonical and smooth; frames are carried by the subspace
    transport S' = (P' P - P P') S, which keeps them orthonormal and
    inside range P. The loop may in principle twist the normal bundle
    (nontrivial holonomy), in which case no periodic gauge of this kind
    exists and the chart must provide angle coordinates instead. Returns
    the frames S and their derivatives S' at each of ``times`` in
    [0, period], sampled from the transport run.
    """
    base = build_section(family, seed)
    n = family.n

    def projector(t):
        gq, _ = np.linalg.qr(
            family.generators(seed.point(TWO_PI * a * t), seed.eps0))
        return np.eye(n) - gq @ gq.T

    def transport(t):
        p = projector(t)
        pdot = numdiff.directional(projector, t, 1.0, FRAME_FD_STEP)
        return pdot @ p - p @ pdot

    def rhs(t, frame, out):
        transport(t).dot(frame, out=out)

    run = flow.integrate(rhs, base.transversal_basis, period, 1e-11, 1e-13,
                         times=times)
    holonomy = float(np.max(np.abs(run.end - base.transversal_basis)))
    if holonomy > 1e-6:
        raise DegenerateTangent(
            f"normal frame does not return after one loop (holonomy defect "
            f"{holonomy:.3g}); supply chart angle coordinates instead")
    return run.samples, [transport(t) @ s for t, s in zip(times, run.samples)]


def extract_linearization(family: VectorFieldFamily, seed: TorusSeed, alpha,
                          n_samples: int = 256) -> LinearizedCoefficients:
    """Sample the coefficient blocks along the loop orbit and interpolate.

    The orbit is phi(t) = 2*pi*alpha*t over t in [0, 1]; all
    derivatives are evaluated on the embedded torus at ``seed.eps0``. The
    transversal gauge is the constant coordinate complement when the chart
    carries angle coordinates, and the parallel-transported complement of
    the generator span otherwise.
    """
    a = as_winding(alpha, seed.k)
    eps0 = seed.eps0
    field = loop_field(family, a)
    period = 1.0
    times = np.arange(n_samples) * (period / n_samples)
    if len(seed.angle_coords) == seed.k:
        frames, frame_dots = _coordinate_gauge(family, seed, times)
    else:
        frames, frame_dots = _transport_gauge(family, seed, a, period, times)

    def blocks_at(t, s_basis, s_dot):
        z = seed.point(TWO_PI * a * t)
        frame = np.column_stack([family.generators(z, eps0), s_basis])
        sv = np.linalg.svd(frame, compute_uv=False)
        if sv[-1] <= 1e-10 * max(1.0, sv[0]):
            raise DegenerateTangent(
                "transversal gauge degenerates against the generators "
                f"at t={t:.4g}")
        inv = np.linalg.inv(frame)
        n_cov = inv[:family.k]
        w_cov = inv[family.k:]
        core = field.jacobian(z, eps0) @ s_basis - s_dot
        epsjac = field.eps_jacobian(z, eps0)
        return w_cov @ core, w_cov @ epsjac, n_cov @ core, n_cov @ epsjac

    sampled = [blocks_at(*at) for at in zip(times, frames, frame_dots)]
    arrays = [np.stack([s[b] for s in sampled]) for b in range(4)]

    from scipy.interpolate import CubicSpline

    t_ext = np.concatenate([times, [period]])

    def periodic_spline(samples):
        closed = np.concatenate([samples, samples[:1]], axis=0)
        spline = CubicSpline(t_ext, closed, axis=0, bc_type="periodic")
        return lambda t: spline(float(t) % period)

    funcs = [periodic_spline(arr) for arr in arrays]
    return LinearizedCoefficients(period, times, funcs[0], funcs[1],
                                  funcs[2], funcs[3],
                                  arrays[0], arrays[1], arrays[2], arrays[3])


def _as_matrix_func(Ahat):
    """Normalize matrix input: coefficients, callable, or constant matrix."""
    if isinstance(Ahat, LinearizedCoefficients):
        Ahat = Ahat.Ahat
    if callable(Ahat):
        probe = np.atleast_2d(np.asarray(Ahat(0.0), dtype=float))
        r = probe.shape[0]
        return (lambda t: np.atleast_2d(np.asarray(Ahat(t), dtype=float))), r
    const = np.atleast_2d(np.asarray(Ahat, dtype=float))
    return (lambda t: const), const.shape[0]


@dataclass(frozen=True)
class FundamentalMatrix:
    """Sampled fundamental matrix Theta(t) with Theta(0) = I, and Q = Theta(T)."""

    times: np.ndarray
    samples: np.ndarray  # (m, r, r)
    Q: np.ndarray
    T: float


def fundamental_matrix(Ahat, T: float, tol: float = DEFAULT_TOL,
                       n_out: int = 129) -> FundamentalMatrix:
    """Integrate Theta' = Ahat(t) Theta, Theta(0) = I over [0, T]."""
    func, r = _as_matrix_func(Ahat)
    if T <= 0:
        raise ValueError("period must be positive")
    if n_out < 2:
        raise ValueError("n_out must be at least 2")

    def rhs(t, y, out):
        func(t).dot(y, out=out)

    times = np.linspace(0.0, T, n_out)
    run = flow.integrate(rhs, np.eye(r), T, tol, tol * ATOL_FACTOR,
                         times=times)
    run.samples[-1] = run.end
    return FundamentalMatrix(times, run.samples, run.end, float(T))


@dataclass(frozen=True)
class FloquetDecomposition:
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


@dataclass(frozen=True)
class ForcedResponse:
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
    :class:`Resonance` is raised. Raises ``ValueError`` for ``n_out`` < 2.
    """
    if n_out < 2:
        raise ValueError("n_out must be at least 2")
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

    atol = tol * ATOL_FACTOR
    part = flow.integrate(rhs, np.zeros(r), T, tol, atol)
    u0 = np.linalg.solve(np.eye(r) - fm.Q, part.end)
    times = np.linspace(0.0, T, n_out)
    run = flow.integrate(rhs, u0, T, tol, atol, times=times)
    samples = run.samples
    samples[-1] = run.end
    residual = float(np.max(np.abs(run.end - u0)))
    scale = 1.0 + float(np.max(np.abs(samples)))
    if residual > 100.0 * tol * scale:
        raise NoConvergence(
            f"periodic response failed verification (residual {residual:.3g})")
    return ForcedResponse(times, samples, u0, residual, multipliers)


@dataclass(frozen=True)
class BlockSpectrumReport:
    spectrum: np.ndarray
    expected: np.ndarray
    max_distance: float
    tol: float
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
    return BlockSpectrumReport(spectrum, expected, dist, tol, dist <= tol)
