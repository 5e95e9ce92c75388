"""Loss of hyperbolicity along a branch: multiplier tracking, crossing
detection, classification at the critical parameter, and post-critical
probes of the section return map.

Crossings are found in one pass over each matched multiplier path, and
every bracket is refined, with the corrector settings the branch was
solved with, before it is classified. Classification keys on the
critical multiplier of the last refine only:

* ``CaseA``: a single real multiplier at -1;
* ``CaseB``: a single real multiplier at +1;
* ``CaseC``: a complex conjugate pair on the unit circle away from the
  real axis (an invariant circle of the map appears, i.e. a torus of one
  more dimension for the flow);
* ``Degenerate``: more than one independent critical multiplier.

Conventions in the literature differ on which of the two real cases
carries the twin fixed-point branches and which the period-two points.
Probes at a real crossing therefore let the sign of the critical
multiplier choose: Newton starts from normal-form seeds on the critical
eigenvector, on P for a positive and on P o P for a negative multiplier.
Every start on P runs, since twin fixed points are distinct objects. A
flip makes a single 2-cycle {u, P(u)}, whose two points are the two
nonzero roots of the fitted P o P cubic, so the starts on P o P run in
order only until one files a 2-cycle; one that fails or lands on a
fixed point of P (u0 included) hands over to the next.
A Degenerate probe runs the searches of the cases it mixes: the seeds on
the real multiplier nearest the unit circle, and the circle fit when the
linearization has a complex pair. The report states what was found.

Iterates of P are return maps of longer loops, P^n = P_{n alpha} (see
:mod:`pnk.section`): P o P and its jacobian come from one map at winding
2 alpha, so every Newton start of a probe, on P or on P o P, is a
:func:`~pnk.continuation.newton_fixed_point` call. The CaseC probe takes
its whole orbit from one loop-flow run
(:func:`~pnk.section.transversal_orbit`).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from . import spectra
from .core import (TWO_PI, TorusSeed, VectorFieldFamily, as_count, as_params,
                   as_winding)
from .errors import (MatchingAmbiguityWarning, NonFinite, NothingFound,
                     PnkError, StepFailure)
from .section import SectionFrame, transversal_map, transversal_orbit
from .continuation import (ContinuationBranch, NewtonResult,
                           newton_fixed_point, predict_fixed_point)

CASE_A = "CaseA"
CASE_B = "CaseB"
CASE_C = "CaseC"
DEGENERATE = "Degenerate"

# Fixed settings of the matching, the crossing refiner, the classification
# and the probes, as track_multipliers, _refine_bracket, classify_event,
# ProbeOptions and postcritical_probe state them.
TIE_TOL = 1e-9
MAX_REFINES = 80  # at least 1: every bracket is refined
DEGENERATE_TOL = 1e-3
PROBE_MAX_ITER = 30
PROBE_EXCLUDE_TOL = 1e-6
FOURIER_ORDER = 4

# A probe start (a normal-form seed fit or a Newton solve) that raises one
# of these has failed; the probe goes on with its other starts.
FAILED_START = (PnkError, np.linalg.LinAlgError)

KIND_LABELS = {
    CASE_A: ("real multiplier -1: conventionally a period-doubling (a "
             "2-cycle of the map); this label is also associated with twin "
             "fixed-point branches in part of the literature; the probe solves "
             "from normal-form seeds on the critical eigenvector"),
    CASE_B: ("real multiplier +1: conventionally twin fixed-point branches "
             "(pitchfork-type); this label is also associated with "
             "period-two points in part of the literature; the probe solves "
             "from normal-form seeds on the critical eigenvector"),
    CASE_C: ("complex pair on the unit circle: an invariant circle of the "
             "map, i.e. an invariant torus of one more dimension for the "
             "flow"),
    DEGENERATE: "more than one independent critical multiplier",
}


class MultiplierPaths(NamedTuple):
    """Multipliers matched into continuous paths along a branch."""

    eps_values: list
    paths: np.ndarray              # (n_points, r) complex
    ambiguous_steps: list          # indices where the matching tied


def track_multipliers(branch: ContinuationBranch) -> MultiplierPaths:
    """Match spectra between consecutive slices by minimal distance.

    A tie (a cost gap within ``TIE_TOL``, relative) between two
    assignments that swap genuinely distinct multipliers is recorded and
    warned about; the first assignment is kept.
    """
    pts = branch.points
    if len(pts) < 2:
        raise ValueError("need at least two branch points to track")
    r = len(pts[0].spectrum)
    paths = np.empty((len(pts), r), dtype=complex)
    paths[0] = spectra.sorted_complex(pts[0].spectrum)
    ambiguous = []
    for i in range(1, len(pts)):
        prev = paths[i - 1]
        cur = np.asarray(pts[i].spectrum, dtype=complex)
        cost = np.abs(prev[:, None] - cur[None, :])
        perm, _ = spectra.match(prev, cur)
        scale = 1.0 + float(np.max(np.abs(cur)))
        tied = False
        for a in range(r):
            for b in range(a + 1, r):
                if abs(cur[perm[a]] - cur[perm[b]]) <= TIE_TOL * scale:
                    continue  # swapping equal values is not an ambiguity
                gain = (cost[a, perm[b]] + cost[b, perm[a]]
                        - cost[a, perm[a]] - cost[b, perm[b]])
                if gain <= TIE_TOL * scale:
                    tied = True
        if tied:
            ambiguous.append(i)
            warnings.warn(
                f"multiplier matching ties at step {i}; first assignment kept",
                MatchingAmbiguityWarning, stacklevel=2)
        paths[i] = cur[perm]
    return MultiplierPaths([p.eps for p in pts], paths, ambiguous)


class CrossingBracket(NamedTuple):
    """A refined |mu| = 1 crossing of one path (of a conjugate pair, the
    member with Im mu >= 0): the bracket ends with their multipliers, and
    the multiplier and whole spectrum of the last refine."""

    eps_lo: np.ndarray
    eps_hi: np.ndarray
    mu_lo: complex
    mu_hi: complex
    mu_mid: complex
    spectrum_mid: np.ndarray

    @property
    def eps_mid(self) -> np.ndarray:
        return 0.5 * (self.eps_lo + self.eps_hi)


def detect_crossings(paths: MultiplierPaths, circle_tol: float = 1e-9, *,
                     refine, eps_tol: float = 1e-6) -> list[CrossingBracket]:
    """Bracket and refine every sign change of phi = |mu| - 1 along the
    matched paths.

    A slice with |phi| <= circle_tol lies on the circle and is skipped:
    each bracket runs from the last slice off the circle to the next one
    whose phi has the other sign, so a crossing on a grid slice is
    bracketed and a tangency is not. A conjugate pair crosses together,
    so a path whose multiplier at the bracket's low end has
    Im mu < -circle_tol is left to its partner. ``refine`` is a callable
    eps -> spectrum re-solving the fixed point; each bracket is narrowed
    by :func:`_refine_bracket`. Events are returned in parameter order.
    """
    eps_vals = [np.array(e, dtype=float) for e in paths.eps_values]
    found: list[CrossingBracket] = []
    for path in paths.paths.T:
        lo = phi_lo = None  # the last slice off the circle
        for i, mu in enumerate(path):
            phi = abs(mu) - 1.0
            if abs(phi) <= circle_tol:
                continue
            if lo is not None and (phi > 0) != (phi_lo > 0) \
                    and path[lo].imag >= -circle_tol:
                found.append(_refine_bracket(
                    eps_vals[lo], eps_vals[i], complex(path[lo]),
                    complex(mu), refine, eps_tol))
            lo, phi_lo = i, phi
    found.sort(key=lambda b: tuple(b.eps_mid))
    return found


def _refine_bracket(lo, hi, mu_lo, mu_hi, refine, eps_tol) -> CrossingBracket:
    """Illinois iteration on phi = |mu| - 1 along the bracket segment
    (Dowell-Jarratt, BIT 11, 1971), to width <= eps_tol in at most
    ``MAX_REFINES`` refines.

    The regula falsi point is clamped eps_tol/2 inside the bracket, so a
    point next to the root lands across it and the bracket closes. When
    one end is kept twice in a row, its working phi is halved (the
    Illinois step), so that end moves too. A refined phi of exactly 0
    joins the side of positive phi, and the other side keeps a strictly
    signed phi, so the secant denominator never vanishes. A bracket
    already no wider than eps_tol gets one refine, at its midpoint.
    """
    phi_lo, phi_hi = abs(mu_lo) - 1.0, abs(mu_hi) - 1.0
    sign_lo = math.copysign(1.0, phi_lo)
    moved = 0  # -1 when the last step moved lo, +1 when it moved hi
    for n in range(MAX_REFINES):
        width = float(np.max(np.abs(hi - lo)))
        if width > eps_tol:
            margin = 0.5 * eps_tol / width
        elif n == 0:
            margin = 0.5
        else:
            break
        t = min(max(phi_lo / (phi_lo - phi_hi), margin), 1.0 - margin)
        mid = lo + t * (hi - lo)
        spec = np.asarray(refine(mid), dtype=complex)
        target = mu_lo + t * (mu_hi - mu_lo)
        mu = complex(spec[int(np.argmin(np.abs(spec - target)))])
        phi = abs(mu) - 1.0
        if math.copysign(1.0, phi) == sign_lo:
            lo, mu_lo, phi_lo = mid, mu, phi
            if moved == -1:
                phi_hi *= 0.5
            moved = -1
        else:
            hi, mu_hi, phi_hi = mid, mu, phi
            if moved == 1:
                phi_lo *= 0.5
            moved = 1
    return CrossingBracket(lo, hi, mu_lo, mu_hi, mu, spec)


class BifurcationEvent(NamedTuple):
    """A classified loss of transversal hyperbolicity."""

    eps_critical: np.ndarray
    critical_multipliers: np.ndarray
    kind: str
    transversality: float          # d|mu|/d eps (p = 1), else along the path
    split_margin: float            # distance of the rest of the spectrum to the circle
    angle: float                   # |arg mu| of the critical multiplier
    resonant_warning: bool
    bracket: CrossingBracket

    @property
    def label(self) -> str:
        return KIND_LABELS[self.kind]


def _resonant_angle(angle: float) -> bool:
    """Whether angle lies within 1e-3 of 2*pi*p/q for some q <= 6."""
    return any(abs(angle - TWO_PI * p / q) <= 1e-3
               for q in range(1, 7) for p in range(q + 1))


def classify_event(bracket: CrossingBracket, angle_tol: float = 1e-3
                   ) -> BifurcationEvent:
    """Classify a crossing by the multiplier of its last refine.

    ``transversality`` is the finite-difference slope of |mu| across the
    bracket: d|mu|/d eps for a scalar parameter, and per unit parameter
    arclength along the path direction otherwise. ``split_margin`` is the
    smallest distance of the remaining multipliers of ``spectrum_mid`` to
    the unit circle. More critical multipliers within ``DEGENERATE_TOL`` of
    the circle than the kind expects classify as Degenerate. A rotation
    number within 1e-3 of a rational with denominator <= 6 flags the
    structurally unstable resonant case but still classifies as CaseC.
    """
    mu = bracket.mu_mid
    angle = abs(np.angle(mu))
    if abs(angle - math.pi) <= angle_tol:
        kind = CASE_A
        criticals = np.array([mu], dtype=complex)
    elif angle <= angle_tol:
        kind = CASE_B
        criticals = np.array([mu], dtype=complex)
    else:
        kind = CASE_C
        criticals = np.array([mu, np.conj(mu)], dtype=complex)

    spec = np.asarray(bracket.spectrum_mid, dtype=complex)
    on_circle = np.abs(np.abs(spec) - 1.0) <= DEGENERATE_TOL
    if int(np.sum(on_circle)) > len(criticals):
        kind = DEGENERATE
        criticals = spec[on_circle]
    split = spectra.margins(spec[~on_circle])[1]

    d_eps = bracket.eps_hi - bracket.eps_lo
    arclen = float(np.linalg.norm(d_eps))
    if d_eps.size == 1:
        arclen = float(d_eps[0])  # keep the sign for a scalar parameter
    trans = ((abs(bracket.mu_hi) - abs(bracket.mu_lo)) / arclen
             if arclen != 0.0 else math.inf)
    resonant = kind == CASE_C and _resonant_angle(angle)
    return BifurcationEvent(bracket.eps_mid, criticals, kind, trans, split,
                            float(angle), resonant, bracket)


# ---------------------------------------------------------------------------
# post-critical probes


class ProbeOptions(NamedTuple):
    """Search radius (also the step of the normal-form seed fit),
    Newton tolerance, and orbit-sampling controls.

    The CaseC probe drops ``transient`` iterates and fits the next
    ``n_samples``, all from one loop-flow run, by a radial Fourier series
    of order ``FOURIER_ORDER``. :func:`postcritical_probe` requires
    ``transient >= 0`` and ``n_samples >= 2 * FOURIER_ORDER + 1`` (the
    fit's unknowns).
    """

    search_radius: float = 0.5
    tol: float = 1e-9
    transient: int = 150
    n_samples: int = 128


class TwoCycleFinding(NamedTuple):
    points: tuple
    multipliers: np.ndarray  # eigenvalues of the cycle derivative
    residual: float


class CircleFinding(NamedTuple):
    center: np.ndarray
    mean_radius: float
    fit_residual: float
    radii: np.ndarray
    angles: np.ndarray
    samples: np.ndarray


class ProbeReport(NamedTuple):
    kind: str
    eps_post: np.ndarray
    base_u: np.ndarray
    base_spectrum: np.ndarray
    fixed_points: list  # the NewtonResult of each new fixed point of P
    two_cycles: list
    circle: CircleFinding | None
    notes: str


def _complex_direction(ell):
    """Eigenvector of the complex multiplier of ``ell`` of largest modulus,
    or None when every multiplier is real."""
    vals, vecs = np.linalg.eig(ell)
    pair = [i for i in np.argsort(-np.abs(vals)) if abs(vals[i].imag) > 1e-9]
    return vecs[:, pair[0]] if pair else None


def _fit_circle(orbit, u_star, v, opts):
    """Sample the orbit of the map near u_star, starting in the plane of
    the complex eigenvector v, and fit radius(theta) with a Fourier
    series; ``orbit(u, count)`` returns P(u), ..., P^count(u).
    """
    plane, _ = np.linalg.qr(np.column_stack([v.real, v.imag]))
    u = u_star + plane[:, 0] * (0.5 * opts.search_radius)
    try:
        pts = orbit(u, opts.transient + opts.n_samples)
    except (NonFinite, StepFailure) as exc:
        raise NothingFound(
            f"probe orbit escaped the search region ({exc})") from exc
    if np.any(np.linalg.norm(pts - u_star, axis=1)
              > 5.0 * opts.search_radius):
        raise NothingFound("probe orbit escaped the search region")
    pts = pts[opts.transient:]
    rel = pts - u_star
    radii = np.linalg.norm(rel, axis=1)
    if float(np.max(radii)) <= 100.0 * opts.tol:
        raise NothingFound("probe orbit collapsed onto the fixed point")
    angles = np.arctan2(rel @ plane[:, 1], rel @ plane[:, 0])
    cols = [np.ones_like(angles)]
    for mth in range(1, FOURIER_ORDER + 1):
        cols.append(np.cos(mth * angles))
        cols.append(np.sin(mth * angles))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, radii, rcond=None)
    resid = float(np.sqrt(np.mean((radii - design @ coef) ** 2)))
    return CircleFinding(u_star, float(coef[0]), resid, radii, angles, pts)


def _critical_direction(ell):
    """Real multiplier of ``ell`` nearest the unit circle, with its
    eigenvectors: (mu, v, w) with |v| = 1, the largest entry of v
    positive, and w a left eigenvector scaled to w.v = 1; None when no
    multiplier is real or the pair is defective.
    """
    vals = np.linalg.eigvals(ell)
    real = vals[vals.imag == 0].real
    if real.size == 0:
        return None
    mu = float(real[np.argmin(np.abs(np.abs(real) - 1.0))])
    left, _, right = np.linalg.svd(ell - mu * np.eye(len(ell)))
    v, w = right[-1], left[:, -1]
    v = v * math.copysign(1.0, v[np.argmax(np.abs(v))])
    overlap = float(w @ v)
    if overlap == 0.0:
        return None
    return mu, v, w / overlap


def _seed_amplitudes(lam: float, g_plus: float, g_minus: float,
                     step: float) -> list[float]:
    """Nonzero real roots within ``step`` of (lam - 1) + q s + c s^2 = 0,
    positive first, where g(s) ~ (lam - 1) s + q s^2 + c s^3 is the
    reduced map fitted through g(+step) and g(-step); solved for
    t = s / step, so that no power of a tiny step underflows.
    """
    q_step = 0.5 * (g_plus + g_minus) / step
    c_step2 = 0.5 * (g_plus - g_minus) / step - (lam - 1.0)
    roots = np.roots([c_step2, q_step, lam - 1.0])
    return sorted((float(t.real) * step for t in roots
                   if t.imag == 0 and t.real != 0 and abs(t.real) <= 1.0),
                  reverse=True)


def postcritical_probe(family: VectorFieldFamily, seed: TorusSeed, alpha,
                       frame: SectionFrame, eps_post, kind: str,
                       opts: ProbeOptions | None = None) -> ProbeReport:
    """Search for the post-critical objects of the map just past a crossing.

    Real crossings (CaseA/CaseB) solve from normal-form seeds on the
    critical eigenvector v of L = DP(u0): the target is P for a positive
    critical multiplier mu and P o P for a negative one, the reduced map
    g(s) = w.(F(u0 + s v) - u0) - s is fitted as a cubic through
    F(u0 +- search_radius v) (w the left eigenvector, w.v = 1), and its
    nonzero real branch amplitudes within the search radius seed Newton
    (Kuznetsov, Elements of Applied Bifurcation Theory, ch. 4); P o P is
    one map at winding 2 alpha, jacobian included. Each seed gets
    ``PROBE_MAX_ITER`` iterations of
    :func:`~pnk.continuation.newton_fixed_point`; a solve that lands
    within ``PROBE_EXCLUDE_TOL`` of u0 is solved once more from its seed
    with u0 and the fixed points found so far deflated, so a seed in u0's
    basin can still reach a new object; a seed that lands on an earlier
    find has been served and is not retried. A fixed point
    within ``PROBE_EXCLUDE_TOL`` of u0, or a 2-cycle whose points are that
    close, is not new, and fixed points closer than
    max(``PROBE_EXCLUDE_TOL``, 100*tol) to an earlier one are merged. A
    fit or a Newton solve that raises ``FAILED_START`` (any
    :class:`~pnk.errors.PnkError`, say a map whose flow fails from a far
    seed) is a failed start: the fit yields no seeds, the solve no find.
    Every seed on P is solved. The seeds on P o P are solved in order
    until one files a 2-cycle, and the rest are not: past a flip the map
    has a single 2-cycle {u, P(u)}, and the two nonzero roots of the
    cubic are its two points, so a later start could only find it again.
    CaseC samples an orbit from one loop-flow run
    (:func:`~pnk.section.transversal_orbit`), started in the plane of
    the complex eigenvector of L, and fits an invariant circle by a
    radial Fourier series around the continued fixed point.
    Degenerate runs the searches of the cases it mixes: the seeds on the
    real multiplier of L nearest the unit circle, when L has one, and
    the circle fit when L has a complex pair.
    Every find is re-verified under the map
    before being reported; finds correspond to new invariant tori of the
    flow (twin tori, a doubled torus, or a torus of one more dimension).
    Raises :class:`NothingFound` when nothing is found within the search
    radius (no real amplitude before or in a subcritical crossing, or
    Newton falls back onto u0), which may indicate a subcritical
    scenario, or when the circle orbit escapes (leaves five search
    radii, or its integration fails); a Degenerate probe raises only
    when neither search finds anything. Raises ``ValueError`` for
    options outside the bounds :class:`ProbeOptions` states.
    """
    opts = opts or ProbeOptions()
    if not opts.search_radius > 0:
        raise ValueError("search_radius must be positive")
    if not as_count(opts.transient, "transient") >= 0:
        raise ValueError("transient must be nonnegative")
    if not as_count(opts.n_samples, "n_samples") >= 2 * FOURIER_ORDER + 1:
        raise ValueError("n_samples must be at least 2 * FOURIER_ORDER + 1, "
                         "the unknowns of the radial fit")
    eps_post = as_params(eps_post, family.p)
    alpha_twice = 2 * as_winding(alpha, family.k)

    def image(u, winding=alpha):
        return transversal_map(family, frame, winding, u, eps_post,
                               opts.tol).u

    def solve(winding, guess, deflate=()):
        """The fixed point of the map at winding from guess, or None for a
        failed start."""
        try:
            return newton_fixed_point(family, seed, winding, frame, eps_post,
                                      guess, opts.tol, PROBE_MAX_ITER,
                                      deflate=deflate)
        except FAILED_START:
            return None

    base = solve(alpha, np.zeros(frame.r))
    if base is None:
        raise NothingFound("could not locate the continued fixed point")
    u0, ell0 = base.u, base.transversal

    dedupe = max(PROBE_EXCLUDE_TOL, 100.0 * opts.tol)
    fixed: list[NewtonResult] = []
    cycles: list[TwoCycleFinding] = []
    circle = None
    notes = []

    def classify(twice, guess):
        """Solve P (or P o P when ``twice``) from guess and file a new find.
        A solve that lands on u0 is retried from the same guess with u0
        and the fixed points found so far deflated."""
        winding = alpha_twice if twice else alpha
        got = solve(winding, guess)
        if got is not None and \
                float(np.linalg.norm(got.u - u0)) <= PROBE_EXCLUDE_TOL:
            got = solve(winding, guess, [u0] + [f.u for f in fixed])
        if got is None:
            return
        u = got.u
        if not twice:
            if float(np.linalg.norm(u - u0)) <= PROBE_EXCLUDE_TOL:
                return
            if any(float(np.linalg.norm(u - f.u)) <= dedupe for f in fixed):
                return
            fixed.append(got)
            return
        partner = image(u)
        if float(np.linalg.norm(partner - u)) <= PROBE_EXCLUDE_TOL:
            return  # a fixed point of P, not a genuine 2-cycle
        cycles.append(TwoCycleFinding((u.copy(), partner.copy()),
                                      got.spectrum, got.residual))

    def seeds():
        """(twice, guess) normal-form seeds; [] when the fit has no root."""
        critical = _critical_direction(ell0)
        if critical is None:
            return []
        mu, v, w = critical
        twice = mu < 0
        h = opts.search_radius

        def reduced(s):
            u = image(u0 + s * v, alpha_twice if twice else alpha)
            return float(w @ (u - u0)) - s

        try:
            g_plus, g_minus = reduced(h), reduced(-h)
        except FAILED_START:
            return []
        lam = mu * mu if twice else mu
        return [(twice, u0 + s * v)
                for s in _seed_amplitudes(lam, g_plus, g_minus, h)]

    if kind in (CASE_A, CASE_B, DEGENERATE):
        starts = seeds()
        for twice, guess in starts:
            classify(twice, guess)
            if twice and cycles:
                break  # the other root is a point of the same 2-cycle
        notes.append(f"{len(fixed)} non-trivial fixed point(s), "
                     f"{len(cycles)} two-cycle(s) found from {len(starts)} "
                     "normal-form seed(s) on the critical eigenvector")

    if kind in (CASE_C, DEGENERATE):
        v = _complex_direction(ell0)
        if v is None and kind == CASE_C:
            raise NothingFound("no complex multiplier pair at the probe "
                               "parameter")

        def orbit(u, count):
            return transversal_orbit(family, frame, alpha, u, count, eps_post,
                                     opts.tol).u

        if v is not None:
            try:
                circle = _fit_circle(orbit, u0, v, opts)
            except NothingFound:
                if not fixed and not cycles:
                    raise  # a Degenerate probe keeps what the seeds found
            else:
                notes.append(f"invariant circle of mean radius "
                             f"{circle.mean_radius:.6g} (fit residual "
                             f"{circle.fit_residual:.2g}); corresponds to an "
                             "invariant torus of one more dimension for the "
                             "flow")

    if not fixed and not cycles and circle is None:
        raise NothingFound(
            "no non-trivial fixed points or 2-cycles within the search "
            "radius; possibly a subcritical scenario")
    return ProbeReport(kind, eps_post, u0, base.spectrum, fixed, cycles, circle,
                       "; ".join(notes))


# ---------------------------------------------------------------------------
# pipeline


class BifurcationAnalysis(NamedTuple):
    paths: MultiplierPaths
    events: list
    probes: list  # (event_index, ProbeReport)


def analyze_branch(family: VectorFieldFamily, seed: TorusSeed, alpha,
                   branch: ContinuationBranch, circle_tol: float = 1e-9,
                   eps_tol: float = 1e-6, angle_tol: float = 1e-3,
                   probe_offsets=None, probe_options: ProbeOptions | None = None
                   ) -> BifurcationAnalysis:
    """Track multipliers, bracket and classify crossings, optionally probe.

    The crossing refiner re-solves the fixed point at each parameter the
    Illinois iteration of :func:`detect_crossings` asks for, with the
    tolerance and iteration budget of the branch's slices
    (``branch.options``), seeded by
    :func:`~pnk.continuation.predict_fixed_point` through the three
    branch points nearest that parameter. For each entry of
    ``probe_offsets``, a probe runs at that distance from eps_critical
    toward the bracket end whose critical multiplier has |mu| > 1.
    An ``alpha`` other than ``branch.alpha`` raises ValueError.
    """
    alpha = as_winding(alpha, family.k)
    if not np.array_equal(alpha, branch.alpha):
        raise ValueError(f"winding {alpha.tolist()} is not the branch's "
                         f"winding {branch.alpha.tolist()}")
    paths = track_multipliers(branch)
    frame = branch.frame
    pts = branch.points

    def refine(eps):
        eps = np.asarray(eps, dtype=float)
        dists = [float(np.linalg.norm(eps - p.eps)) for p in pts]
        nearest = sorted(np.argsort(dists, kind="stable")[:3])
        guess = predict_fixed_point([pts[i] for i in nearest], eps)
        return newton_fixed_point(family, seed, alpha, frame, eps, guess,
                                  branch.options.tol,
                                  branch.options.max_iter).spectrum

    brackets = detect_crossings(paths, circle_tol, refine=refine,
                                eps_tol=eps_tol)
    events = [classify_event(br, angle_tol) for br in brackets]

    probes = []
    if probe_offsets:
        for ev_idx, ev in enumerate(events):
            br = ev.bracket
            d_eps = br.eps_hi - br.eps_lo
            norm = float(np.linalg.norm(d_eps))
            direction = d_eps / norm if norm > 0 else np.ones_like(d_eps)
            # a refined |mu| of exactly 1 sits on the side of |mu| > 1
            side = 1.0 if abs(br.mu_hi) >= 1.0 else -1.0
            for offset in probe_offsets:
                eps_post = ev.eps_critical + side * float(offset) * direction
                probes.append((ev_idx, postcritical_probe(
                    family, seed, alpha, frame, eps_post, ev.kind,
                    probe_options)))
    return BifurcationAnalysis(paths, events, probes)
