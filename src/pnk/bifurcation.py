"""Loss of hyperbolicity along a branch: multiplier tracking, crossing
detection, classification at the critical parameter, and post-critical
probes of the section return map.

Classification keys on the critical multiplier value only:

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
Only when the seeds find nothing does a star of starts search for both
object types; the report states which search ran and what was found.

Iterates of P are return maps of longer loops, P^n = P_{n alpha} (see
:mod:`pnk.section`): P o P and its jacobian come from one map at winding
2 alpha, and the CaseC probe takes its whole orbit from one loop-flow
run (:func:`~pnk.section.transversal_orbit`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import spectra
from .core import TWO_PI, TorusSeed, VectorFieldFamily, as_params, as_winding
from .errors import (Escape, MatchingAmbiguityWarning, NoConvergence,
                     NonFinite, NothingFound, SingularJacobian, StepFailure)
from .flow import DEFAULT_TOL
from .section import SectionFrame, transversal_map, transversal_orbit
from .continuation import (ContinuationBranch, _newton_solve,
                           newton_fixed_point, predict_fixed_point)

CASE_A = "CaseA"
CASE_B = "CaseB"
CASE_C = "CaseC"
DEGENERATE = "Degenerate"

# Fixed settings of the multiplier matching, the classification and the
# probes, as the docstrings of track_multipliers, classify_event and
# postcritical_probe state them.
TIE_TOL = 1e-9
DEGENERATE_TOL = 1e-3
PROBE_DIRECTIONS = 8
PROBE_RADII = 4
PROBE_MAX_ITER = 30
PROBE_EXCLUDE_TOL = 1e-6

KIND_LABELS = {
    CASE_A: ("real multiplier -1: conventionally a period-doubling (a "
             "2-cycle of the map); this label is also associated with twin "
             "fixed-point branches in part of the literature; the probe solves "
             "from normal-form seeds on the critical eigenvector and, when "
             "they find nothing, searches for both with a star of starts"),
    CASE_B: ("real multiplier +1: conventionally twin fixed-point branches "
             "(pitchfork-type); this label is also associated with "
             "period-two points in part of the literature; the probe solves "
             "from normal-form seeds on the critical eigenvector and, when "
             "they find nothing, searches for both with a star of starts"),
    CASE_C: ("complex pair on the unit circle: an invariant circle of the "
             "map, i.e. an invariant torus of one more dimension for the "
             "flow"),
    DEGENERATE: "more than one independent critical multiplier",
}


@dataclass(frozen=True)
class MultiplierPaths:
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


@dataclass
class CrossingBracket:
    """A bracketed |mu| = 1 crossing of one (or a conjugate pair of) path."""

    eps_lo: np.ndarray
    eps_hi: np.ndarray
    mu_lo: complex
    mu_hi: complex
    mu_mid: complex | None = None
    spectrum_mid: np.ndarray | None = None
    refined: bool = False

    @property
    def eps_mid(self) -> np.ndarray:
        return 0.5 * (self.eps_lo + self.eps_hi)


def detect_crossings(paths: MultiplierPaths, circle_tol: float = 1e-9,
                     refine=None, eps_tol: float = 1e-6,
                     max_bisect: int = 80) -> list[CrossingBracket]:
    """Bracket every sign change of |mu| - 1 along the matched paths.

    ``refine``, when given, is a callable eps -> spectrum re-solving the
    fixed point; each bracket is then narrowed to width <= eps_tol by the
    Illinois modified regula falsi on phi = |mu| - 1 along the bracket
    segment (Dowell-Jarratt, BIT 11, 1971), with every new point at
    least eps_tol/2 inside the bracket and at most ``max_bisect`` refines.
    Conjugate-pair crossings in the same grid segment are merged into a
    single bracket carrying the multiplier of nonnegative imaginary part.
    Events are returned in parameter order.
    """
    eps_vals = [np.asarray(e, dtype=float) for e in paths.eps_values]
    m, r = paths.paths.shape
    raw: list[CrossingBracket] = []
    for j in range(r):
        mods = np.abs(paths.paths[:, j]) - 1.0
        for i in range(m - 1):
            a, b = mods[i], mods[i + 1]
            if (a < -circle_tol and b > circle_tol) or \
               (a > circle_tol and b < -circle_tol):
                raw.append(CrossingBracket(
                    eps_vals[i], eps_vals[i + 1],
                    complex(paths.paths[i, j]), complex(paths.paths[i + 1, j])))

    merged: list[CrossingBracket] = []
    used = [False] * len(raw)
    for i, br in enumerate(raw):
        if used[i]:
            continue
        for j in range(i + 1, len(raw)):
            other = raw[j]
            if used[j]:
                continue
            same_segment = (np.array_equal(br.eps_lo, other.eps_lo)
                            and np.array_equal(br.eps_hi, other.eps_hi))
            conj = (abs(br.mu_lo - np.conj(other.mu_lo))
                    <= 1e-8 * (1.0 + abs(br.mu_lo))
                    and abs(br.mu_lo.imag) > circle_tol)
            if same_segment and conj:
                br = CrossingBracket(br.eps_lo, br.eps_hi,
                                     br.mu_lo if br.mu_lo.imag >= 0 else other.mu_lo,
                                     br.mu_hi if br.mu_hi.imag >= 0 else other.mu_hi)
                used[j] = True
                break
        used[i] = True
        merged.append(br)

    if refine is not None:
        merged = [_refine_bracket(br, refine, eps_tol, max_bisect)
                  for br in merged]
    merged.sort(key=lambda b: tuple(b.eps_mid))
    return merged


def _refine_bracket(br: CrossingBracket, refine, eps_tol, max_bisect):
    """Illinois iteration on phi = |mu| - 1 along the bracket segment.

    The regula falsi point is clamped eps_tol/2 inside the bracket, so a
    point next to the root lands across it and the bracket closes. When
    one end is kept twice in a row, its working phi is halved (the
    Illinois step), so that end moves too. A refined phi of exactly 0
    joins the side of positive phi, and the other side keeps a strictly
    signed phi, so the secant denominator never vanishes.
    """
    lo, hi = br.eps_lo.copy(), br.eps_hi.copy()
    mu_lo, mu_hi = br.mu_lo, br.mu_hi
    phi_lo, phi_hi = abs(mu_lo) - 1.0, abs(mu_hi) - 1.0
    sign_lo = math.copysign(1.0, phi_lo)
    moved = 0  # -1 when the last step moved lo, +1 when it moved hi
    mu_mid = None
    spec_mid = None
    for _ in range(max_bisect):
        width = float(np.max(np.abs(hi - lo)))
        if width <= eps_tol:
            break
        margin = 0.5 * eps_tol / width
        t = min(max(phi_lo / (phi_lo - phi_hi), margin), 1.0 - margin)
        mid = lo + t * (hi - lo)
        spec = np.asarray(refine(mid), dtype=complex)
        target = mu_lo + t * (mu_hi - mu_lo)
        jj = int(np.argmin(np.abs(spec - target)))
        mu = complex(spec[jj])
        phi = abs(mu) - 1.0
        mu_mid, spec_mid = mu, spec
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
    return CrossingBracket(lo, hi, mu_lo, mu_hi, mu_mid, spec_mid,
                           refined=True)


@dataclass(frozen=True)
class BifurcationEvent:
    """A classified loss of transversal hyperbolicity."""

    eps_critical: np.ndarray
    critical_multipliers: np.ndarray
    kind: str
    transversality: float          # d|mu|/d eps across the refined bracket
    split_margin: float            # distance of the rest of the spectrum to the circle
    angle: float                   # |arg mu| of the critical multiplier
    resonant_warning: bool
    bracket: CrossingBracket

    @property
    def label(self) -> str:
        return KIND_LABELS[self.kind]


def _resonant_angle(angle: float, angle_tol: float = 1e-3,
                    max_denominator: int = 6) -> bool:
    for q in range(1, max_denominator + 1):
        for p in range(q + 1):
            if abs(angle - TWO_PI * p / q) <= angle_tol:
                return True
    return False


def classify_event(bracket: CrossingBracket, angle_tol: float = 1e-3
                   ) -> BifurcationEvent:
    """Classify a refined crossing by its critical multiplier.

    ``transversality`` is the finite-difference slope of |mu| across the
    bracket, per unit parameter arclength and signed along the path
    direction; ``split_margin`` is the smallest distance of the remaining
    multipliers to the unit circle at the crossing. More critical
    multipliers within ``DEGENERATE_TOL`` of the circle than the kind
    expects classify as Degenerate. A rotation number within 1e-3 of a
    rational with denominator <= 6 flags the structurally unstable
    resonant case but still classifies as CaseC.
    """
    mu = bracket.mu_mid if bracket.mu_mid is not None else \
        0.5 * (bracket.mu_lo + bracket.mu_hi)
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

    split = math.inf
    if bracket.spectrum_mid is not None:
        spec = np.asarray(bracket.spectrum_mid, dtype=complex)
        on_circle = np.abs(np.abs(spec) - 1.0) <= DEGENERATE_TOL
        n_crit = int(np.sum(on_circle))
        if n_crit > len(criticals):
            kind = DEGENERATE
            criticals = spec[on_circle]
        rest = spec[~on_circle]
        if rest.size:
            split = float(np.min(np.abs(np.abs(rest) - 1.0)))

    d_eps = bracket.eps_hi - bracket.eps_lo
    arclen = float(np.linalg.norm(d_eps))
    if d_eps.size == 1:
        arclen = float(d_eps[0])  # keep the sign for a scalar parameter
    trans = ((abs(bracket.mu_hi) - abs(bracket.mu_lo)) / arclen
             if arclen != 0.0 else math.inf)
    resonant = kind == CASE_C and _resonant_angle(angle, 1e-3)
    return BifurcationEvent(bracket.eps_mid, criticals, kind, trans, split,
                            float(angle), resonant, bracket)


# ---------------------------------------------------------------------------
# post-critical probes


@dataclass(frozen=True)
class ProbeOptions:
    """Search radius (also the step of the normal-form seed fit and the
    outer radius of the fallback star), Newton tolerance, and
    orbit-sampling controls.

    The CaseC probe drops ``transient`` iterates and fits the next
    ``n_samples``, all from one loop-flow run, by a radial Fourier series
    of order ``fourier_order``. :func:`postcritical_probe` requires
    ``transient >= 0``, ``fourier_order >= 0`` and ``n_samples >=
    2 * fourier_order + 1`` (the fit's unknowns).
    """

    search_radius: float = 0.5
    tol: float = 1e-9
    transient: int = 150
    n_samples: int = 128
    fourier_order: int = 4


@dataclass(frozen=True)
class FixedPointFinding:
    u: np.ndarray
    spectrum: np.ndarray
    residual: float


@dataclass(frozen=True)
class TwoCycleFinding:
    points: tuple
    multipliers: np.ndarray  # eigenvalues of the cycle derivative
    residual: float


@dataclass(frozen=True)
class CircleFinding:
    center: np.ndarray
    mean_radius: float
    fit_residual: float
    radii: np.ndarray
    angles: np.ndarray
    samples: np.ndarray


@dataclass(frozen=True)
class ProbeReport:
    kind: str
    eps_post: np.ndarray
    base_u: np.ndarray
    base_spectrum: np.ndarray
    fixed_points: list
    two_cycles: list
    circle: CircleFinding | None
    notes: str


def _probe_directions(r: int, count: int) -> list[np.ndarray]:
    eye = np.eye(r)
    dirs: list[np.ndarray] = []
    for i in range(r):
        dirs.append(eye[i])
        dirs.append(-eye[i])
    for i in range(r):
        for j in range(i + 1, r):
            d = (eye[i] + eye[j]) / math.sqrt(2.0)
            dirs.append(d)
            dirs.append(-d)
            d2 = (eye[i] - eye[j]) / math.sqrt(2.0)
            dirs.append(d2)
            dirs.append(-d2)
    return dirs[:count] if len(dirs) >= count else dirs


def _cycle_key(a, b) -> np.ndarray:
    """Order-independent representative of a 2-cycle for deduplication."""
    return np.asarray(min((tuple(a), tuple(b))))


def _fit_circle(orbit, u_star, spectrum_vecs, opts):
    """Sample the orbit of the map near u_star and fit radius(theta) with
    a Fourier series; ``orbit(u, count)`` returns P(u), ..., P^count(u).
    """
    vals, vecs = spectrum_vecs
    order = np.argsort(-np.abs(vals))
    pair = [i for i in order if abs(vals[i].imag) > 1e-9]
    if not pair:
        raise NothingFound("no complex multiplier pair at the probe parameter")
    v = vecs[:, pair[0]]
    plane, _ = np.linalg.qr(np.column_stack([v.real, v.imag]))
    u = u_star + plane[:, 0] * (0.5 * opts.search_radius)
    try:
        pts = orbit(u, opts.transient + opts.n_samples)
    except (NonFinite, Escape, StepFailure) as exc:
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
    for mth in range(1, opts.fourier_order + 1):
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

    Real crossings (CaseA/CaseB) first solve from normal-form seeds on
    the critical eigenvector v of L = DP(u0): the target is P for a
    positive critical multiplier mu and P o P for a negative one, the
    reduced map g(s) = w.(F(u0 + s v) - u0) - s is fitted as a cubic
    through F(u0 +- search_radius v) (w the left eigenvector, w.v = 1),
    and its nonzero real branch amplitudes within the search radius seed
    Newton (Kuznetsov, Elements of Applied Bifurcation Theory, ch. 4);
    P o P is one map at winding 2 alpha, jacobian included.
    When the seeds find nothing (no real amplitude before or in a
    subcritical crossing, or Newton falls back onto u0), and always for
    Degenerate, a deterministic star of starts (``PROBE_DIRECTIONS`` x
    ``PROBE_RADII``, radii geometric between 10*tol and the search
    radius) is probed for both non-trivial fixed points and genuine
    2-cycles. Each start gets ``PROBE_MAX_ITER`` Newton iterations; a
    fixed point within ``PROBE_EXCLUDE_TOL`` of u0, or a 2-cycle whose
    points are that close, is not new, and finds closer than
    max(``PROBE_EXCLUDE_TOL``, 100*tol) to an earlier one are merged.
    CaseC samples an orbit from one loop-flow run
    (:func:`~pnk.section.transversal_orbit`) and fits an invariant
    circle by a radial Fourier series around the continued fixed point.
    Every find is re-verified under the map
    before being reported; finds correspond to new invariant tori of the
    flow (twin tori, a doubled torus, or a torus of one more dimension).
    Raises :class:`NothingFound` when the search comes up empty, which
    may indicate a subcritical scenario, or when the CaseC orbit escapes
    (leaves five search radii, or its integration fails), and
    ``ValueError`` for options outside the bounds :class:`ProbeOptions`
    states.
    """
    opts = opts or ProbeOptions()
    if not opts.search_radius > 0:
        raise ValueError("search_radius must be positive")
    if not opts.transient >= 0:
        raise ValueError("transient must be nonnegative")
    if not opts.fourier_order >= 0:
        raise ValueError("fourier_order must be nonnegative")
    if not opts.n_samples >= 2 * opts.fourier_order + 1:
        raise ValueError("n_samples must be at least 2 * fourier_order + 1, "
                         "the unknowns of the radial fit")
    eps_post = as_params(eps_post, family.p)
    alpha_twice = 2 * as_winding(alpha, family.k)

    def image(u, winding=alpha, with_jacobian=False):
        return transversal_map(family, frame, winding, u, eps_post, opts.tol,
                               with_jacobian=with_jacobian)

    def newton_map(winding):
        def step(u):
            res = image(u, winding, with_jacobian=True)
            return res.u, res.jacobian
        return step

    map_once, map_twice = newton_map(alpha), newton_map(alpha_twice)

    def solve(step, guess):
        """(u, derivative, residual, iterations), or None for a failed start."""
        try:
            return _newton_solve(step, guess, opts.tol, PROBE_MAX_ITER)
        except (NoConvergence, SingularJacobian, np.linalg.LinAlgError):
            return None

    base = solve(map_once, np.zeros(frame.r))
    if base is None:
        raise NothingFound("could not locate the continued fixed point")
    u0, ell0, _, _ = base
    base_spec = spectra.sorted_complex(np.linalg.eigvals(ell0))

    dedupe = max(PROBE_EXCLUDE_TOL, 100.0 * opts.tol)
    fixed: list[FixedPointFinding] = []
    cycles: list[TwoCycleFinding] = []
    circle = None
    notes = []

    def classify(twice, guess):
        """Solve P (or P o P when ``twice``) from guess and file a new find."""
        got = solve(map_twice if twice else map_once, guess)
        if got is None:
            return
        u, deriv, res, _ = got
        if not twice:
            if float(np.linalg.norm(u - u0)) <= PROBE_EXCLUDE_TOL:
                return
            if any(float(np.linalg.norm(u - f.u)) <= dedupe for f in fixed):
                return
            fixed.append(FixedPointFinding(
                u, spectra.sorted_complex(np.linalg.eigvals(deriv)), res))
            return
        partner = image(u).u
        if float(np.linalg.norm(partner - u)) <= PROBE_EXCLUDE_TOL:
            return  # a fixed point of P, not a genuine 2-cycle
        key = _cycle_key(u, partner)
        if any(float(np.linalg.norm(key - _cycle_key(*c.points)))
               <= dedupe for c in cycles):
            return
        cycles.append(TwoCycleFinding(
            (u.copy(), partner.copy()),
            spectra.sorted_complex(np.linalg.eigvals(deriv)), res))

    def seeds():
        """(twice, guess) normal-form seeds; [] when the fit has no root."""
        critical = _critical_direction(ell0)
        if critical is None:
            return []
        mu, v, w = critical
        twice = mu < 0
        h = opts.search_radius

        def reduced(s):
            u = image(u0 + s * v, alpha_twice if twice else alpha).u
            return float(w @ (u - u0)) - s

        try:
            g_plus, g_minus = reduced(h), reduced(-h)
        except NoConvergence:
            return []
        lam = mu * mu if twice else mu
        return [(twice, u0 + s * v)
                for s in _seed_amplitudes(lam, g_plus, g_minus, h)]

    if kind in (CASE_A, CASE_B, DEGENERATE):
        search = "by the star search (degenerate crossing)"
        if kind != DEGENERATE:
            starts = seeds()
            for twice, guess in starts:
                classify(twice, guess)
            search = (f"from {len(starts)} normal-form seed(s) on the "
                      "critical eigenvector")
            if not fixed and not cycles:
                search = (f"by the star search after {len(starts)} "
                          "normal-form seed(s) found nothing")
        if not fixed and not cycles:
            starts = [u0 + rad * d
                      for rad in np.geomspace(10.0 * opts.tol,
                                              opts.search_radius, PROBE_RADII)
                      for d in _probe_directions(frame.r, PROBE_DIRECTIONS)]
            for twice in (False, True):
                for guess in starts:
                    classify(twice, guess)
        notes.append(f"{len(fixed)} non-trivial fixed point(s), "
                     f"{len(cycles)} two-cycle(s) found {search}")
        if not fixed and not cycles:
            raise NothingFound(
                "no non-trivial fixed points or 2-cycles within the search "
                "radius; possibly a subcritical scenario")

    if kind in (CASE_C, DEGENERATE):
        def orbit(u, count):
            return transversal_orbit(family, frame, alpha, u, count, eps_post,
                                     opts.tol).u

        circle = _fit_circle(orbit, u0, np.linalg.eig(ell0), opts)
        notes.append(f"invariant circle of mean radius {circle.mean_radius:.6g} "
                     f"(fit residual {circle.fit_residual:.2g}); corresponds "
                     "to an invariant torus of one more dimension for the flow")

    return ProbeReport(kind, eps_post, u0, base_spec, fixed, cycles, circle,
                       "; ".join(notes))


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class BifurcationAnalysis:
    paths: MultiplierPaths
    events: list
    probes: list  # (event_index, ProbeReport)


def analyze_branch(family: VectorFieldFamily, seed: TorusSeed, alpha,
                   branch: ContinuationBranch, circle_tol: float = 1e-9,
                   eps_tol: float = 1e-6, angle_tol: float = 1e-3,
                   tol: float = DEFAULT_TOL, probe_offsets=None,
                   probe_options: ProbeOptions | None = None) -> BifurcationAnalysis:
    """Track multipliers, bracket and classify crossings, optionally probe.

    The crossing refiner re-solves the fixed point at each parameter the
    Illinois iteration of :func:`detect_crossings` asks for, seeded by
    :func:`~pnk.continuation.predict_fixed_point` through the three
    branch points nearest that parameter. Probes run at eps_critical +
    offset on the unstable side (sign taken from the transversality
    estimate) for each entry of ``probe_offsets``.
    """
    paths = track_multipliers(branch)
    frame = branch.frame
    pts = branch.points

    def refine(eps):
        eps = np.asarray(eps, dtype=float)
        dists = [float(np.linalg.norm(eps - p.eps)) for p in pts]
        nearest = sorted(np.argsort(dists, kind="stable")[:3])
        guess = predict_fixed_point([pts[i] for i in nearest], eps)
        nr = newton_fixed_point(family, seed, alpha, frame, eps, guess, tol)
        return nr.spectrum

    brackets = detect_crossings(paths, circle_tol, refine=refine,
                                eps_tol=eps_tol)
    events = [classify_event(br, angle_tol) for br in brackets]

    probes = []
    if probe_offsets:
        for ev_idx, ev in enumerate(events):
            d_eps = ev.bracket.eps_hi - ev.bracket.eps_lo
            norm = float(np.linalg.norm(d_eps))
            direction = d_eps / norm if norm > 0 else np.ones_like(d_eps)
            side = 1.0 if ev.transversality >= 0 else -1.0
            for offset in probe_offsets:
                eps_post = ev.eps_critical + side * float(offset) * direction
                probes.append((ev_idx, postcritical_probe(
                    family, seed, alpha, frame, eps_post, ev.kind,
                    probe_options)))
    return BifurcationAnalysis(paths, events, probes)
