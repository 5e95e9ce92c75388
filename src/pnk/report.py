"""Report assembly and serialization.

Reports are canonical JSON (sorted keys, two-space indent); floats are
serialized by Python's shortest round-trip repr, so byte-identical
reports mean bit-identical numerics. Complex numbers become
{"re": ..., "im": ...} objects and non-finite floats become the strings
"inf" / "-inf" / "nan" (strict JSON has no literal for them). Tables are
CSV with '.' decimal separator and 17 significant digits.

The ``timing`` block is wall-clock metadata; golden-file comparisons go
through :func:`strip_volatile`, which removes it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def jsonable(value):
    """Recursively convert numerics into strict-JSON-safe structures."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": jsonable(float(value.real)),
                "im": jsonable(float(value.imag))}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def canonical_json(doc: dict) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"


def write_report(doc: dict, path) -> None:
    Path(path).write_text(canonical_json(doc), encoding="utf-8")


def strip_volatile(doc: dict) -> dict:
    """Drop wall-clock fields before determinism comparisons."""
    out = {k: v for k, v in doc.items() if k != "timing"}
    return out


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def emit_branch_table(branch, path) -> None:
    """One CSV row per accepted parameter slice of a continuation branch.

    Columns: eps_0..eps_{p-1}, u_0..u_{r-1}, abs_lambda_0.., dist_from_one,
    newton_iters, residual.
    """
    points = branch.points
    if not points:
        raise ValueError("branch has no accepted points; nothing to emit")
    p = points[0].eps.size
    r = points[0].u.size
    header = ([f"eps_{i}" for i in range(p)]
              + [f"u_{i}" for i in range(r)]
              + [f"abs_lambda_{i}" for i in range(r)]
              + ["dist_from_one", "newton_iters", "residual"])
    lines = [",".join(header)]
    for pt in points:
        cells = ([_fmt(v) for v in pt.eps]
                 + [_fmt(v) for v in pt.u]
                 + [_fmt(abs(v)) for v in pt.spectrum]
                 + [_fmt(pt.dist_from_one), str(pt.iterations),
                    _fmt(pt.residual)])
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_torus_table(recon, path) -> None:
    """Grid samples of a reconstructed torus: fractions then chart coords."""
    samples = recon.samples
    k = samples.ndim - 1
    n = samples.shape[-1]
    g = samples.shape[0]
    header = [f"t_{i}" for i in range(k)] + [f"x_{i}" for i in range(n)]
    lines = [",".join(header)]
    for idx in np.ndindex(*((g,) * k)):
        cells = [_fmt(recon.fractions[j]) for j in idx]
        cells += [_fmt(v) for v in samples[idx]]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def branch_dict(branch) -> dict:
    return {
        "status": branch.status,
        "message": branch.message,
        "n_points": len(branch.points),
        "points": [{
            "eps": pt.eps,
            "u": pt.u,
            "spectrum": pt.spectrum,
            "jacobian_spectrum": pt.jacobian_spectrum,
            "newton_iters": pt.iterations,
            "residual": pt.residual,
            "dist_from_one": pt.dist_from_one,
            "dist_from_unit_circle": pt.dist_from_unit_circle,
        } for pt in branch.points],
    }


def event_dict(event) -> dict:
    return {
        "eps_critical": event.eps_critical,
        "kind": event.kind,
        "label": event.label,
        "critical_multipliers": event.critical_multipliers,
        "transversality": event.transversality,
        "split_margin": event.split_margin,
        "angle": event.angle,
        "resonant_warning": event.resonant_warning,
        "bracket": {
            "eps_lo": event.bracket.eps_lo,
            "eps_hi": event.bracket.eps_hi,
            "mu_lo": complex(event.bracket.mu_lo),
            "mu_hi": complex(event.bracket.mu_hi),
        },
    }


def probe_dict(probe) -> dict:
    out = {
        "kind": probe.kind,
        "eps_post": probe.eps_post,
        "base_u": probe.base_u,
        "base_spectrum": probe.base_spectrum,
        "notes": probe.notes,
        "fixed_points": [{
            "u": f.u, "spectrum": f.spectrum, "residual": f.residual,
        } for f in probe.fixed_points],
        "two_cycles": [{
            "points": list(c.points), "multipliers": c.multipliers,
            "residual": c.residual,
        } for c in probe.two_cycles],
    }
    if probe.circle is not None:
        out["circle"] = {
            "center": probe.circle.center,
            "mean_radius": probe.circle.mean_radius,
            "fit_residual": probe.circle.fit_residual,
            "n_samples": int(probe.circle.samples.shape[0]),
        }
    else:
        out["circle"] = None
    return out
