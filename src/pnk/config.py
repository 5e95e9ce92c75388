"""Run configuration: strict JSON parsing, system and seed construction.

A configuration is a single JSON document describing one run. Unknown
keys are rejected everywhere so that a typo cannot silently change a
run. ``parse_config`` fills every default and returns the normalized
document; parsing the normalized echo again reproduces it bit for bit,
which is what makes reports replayable.

Systems come either from the named catalog or as polynomial fields
(per-component term lists over chart monomials and parameter monomials).
Arbitrary callable fields are library-API only; the CLI stays
declarative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .catalog import CATALOG, CatalogSystem, build_catalog_system
from .continuation import _checked_path
from .core import TorusSeed, VectorFieldFamily, as_params
from .errors import ConfigError, NonCommuting

ANALYSES = ("verify", "monodromy", "floquet", "continue", "bifurcate", "torus")

_OPTION_DEFAULTS = {
    "verify": {
        "samples": 20, "seed": 0, "ball_radius": 0.05,
        "commutation_tol": 1e-8, "invariance_tol": 1e-8, "grid": 8,
    },
    "monodromy": {
        "alpha": None, "tol": 1e-10, "unit_tol": 1e-8,
        "sample_angles": [], "spectrum_tol": 1e-6,
    },
    "floquet": {
        "alpha": None, "tol": 1e-10, "n_samples": 256, "n_out": 129,
        "resonance_tol": 1e-8,
    },
    "continue": {
        "alpha": None, "tol": 1e-10, "max_iter": 20, "delta_min": 1e-6,
        "eps_grid": None, "trust_radius": None,
    },
    "bifurcate": {
        "alpha": None, "tol": 1e-10, "max_iter": 20, "delta_min": 1e-6,
        "eps_grid": None, "trust_radius": None,
        "circle_tol": 1e-9, "eps_tol": 1e-6, "angle_tol": 1e-3,
        "probe_offsets": [], "search_radius": 0.5, "probe_tol": 1e-9,
    },
    "torus": {
        "alpha": None, "tol": 1e-10, "eps": None, "grid_per_angle": 32,
        "closure_tol": 1e-8, "max_iter": 20,
    },
}

_NEEDS_ALPHA = ("monodromy", "floquet", "continue", "bifurcate", "torus")

# Smallest accepted value of each integer option (the invariance check
# needs 4 grid points per angle, a torus row 2), and the options that
# must be strictly positive numbers.
_INT_MINIMA = {"samples": 0, "seed": 0, "grid": 4, "max_iter": 0,
               "n_samples": 1, "n_out": 1, "grid_per_angle": 2}
_POSITIVE = ("tol", "search_radius", "probe_tol")


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _check_keys(doc: dict, path: str, allowed, required=()):
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; "
                          f"allowed: {sorted(allowed)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _as_number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{path}: must be finite")
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be positive")
    return float(value)


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return int(value)


def _as_vector(value, path, length=None):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of numbers")
    out = [_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(out)}")
    return out


def _as_int_vector(value, path, length=None):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of integers")
    out = [_as_int(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class RunConfig:
    system_name: str
    system_params: dict
    torus: dict
    analysis: str
    options: dict
    output: dict
    normalized: dict


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc) -> RunConfig:
    doc = _require_mapping(doc, "config")
    _check_keys(doc, "config", ("system", "torus", "analysis", "options",
                                "output"),
                required=("system", "analysis"))

    system = _require_mapping(doc["system"], "system")
    _check_keys(system, "system", ("name", "params"), required=("name",))
    name = system["name"]
    if not isinstance(name, str):
        raise ConfigError("system.name: expected a string")
    params = _require_mapping(system.get("params", {}), "system.params")
    if name == "polynomial":
        params = _normalize_polynomial(params)
    elif name in CATALOG:
        params = _normalize_catalog_params(name, params)
    else:
        raise ConfigError(
            f"system.name: unknown system {name!r}; known: "
            f"{sorted(CATALOG) + ['polynomial']}")

    torus = _normalize_torus(doc.get("torus", {"kind": "catalog"}), name)

    analysis = doc["analysis"]
    if analysis not in ANALYSES:
        raise ConfigError(f"analysis: unknown analysis {analysis!r}; "
                          f"known: {list(ANALYSES)}")

    options = _normalize_options(analysis,
                                 _require_mapping(doc.get("options", {}),
                                                  "options"))
    output = _normalize_output(doc.get("output", {}))

    normalized = {
        "system": {"name": name, "params": params},
        "torus": torus,
        "analysis": analysis,
        "options": options,
        "output": output,
    }
    return RunConfig(name, params, torus, analysis, options, output,
                     normalized)


def _normalize_catalog_params(name: str, params: dict) -> dict:
    allowed = {
        "straightened": {"A": None, "C": None, "cubic": 0.0},
        "hopf": {"omega": 1.0, "eps0": 0.1},
        "uncoupled_oscillators": {"radii": [1.0, 1.0]},
        "pitchfork": {"eps0": -0.05},
        "flip": {"stable_exponent": -0.35, "eps0": -0.05},
        "neimark": {"rotation": 0.18, "damping": 1.0, "eps0": -0.05},
    }[name]
    _check_keys(params, "system.params", allowed,
                required=[k for k, v in allowed.items() if v is None])
    out = {}
    for key, default in allowed.items():
        value = params.get(key, default)
        path = f"system.params.{key}"
        if key in ("A",):
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{path}: expected a list of matrices")
            mats = []
            r = None
            for i, mat in enumerate(value):
                if not isinstance(mat, list):
                    raise ConfigError(f"{path}[{i}]: expected a matrix")
                rows = [_as_vector(row, f"{path}[{i}][{j}]")
                        for j, row in enumerate(mat)]
                if r is None:
                    r = len(rows)
                if len(rows) != r or any(len(row) != r for row in rows):
                    raise ConfigError(f"{path}[{i}]: matrices must be square "
                                      "and share one size")
                mats.append(rows)
            out[key] = mats
        elif key == "C":
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{path}: expected a matrix")
            rows = [_as_vector(row, f"{path}[{j}]")
                    for j, row in enumerate(value)]
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ConfigError(f"{path}: ragged matrix")
            out[key] = rows
        elif key == "radii":
            out[key] = _as_vector(value, path, length=2)
        else:
            out[key] = _as_number(value, path)
    return out


def _normalize_polynomial(params: dict) -> dict:
    _check_keys(params, "system.params", ("n", "k", "p", "fields"),
                required=("n", "k", "p", "fields"))
    n = _as_int(params["n"], "system.params.n", minimum=1)
    k = _as_int(params["k"], "system.params.k", minimum=1)
    p = _as_int(params["p"], "system.params.p", minimum=0)
    if k > n:
        raise ConfigError("system.params: need k <= n")
    fields = params["fields"]
    if not isinstance(fields, list) or len(fields) != k:
        raise ConfigError(f"system.params.fields: expected {k} fields")
    norm_fields = []
    for i, comps in enumerate(fields):
        path = f"system.params.fields[{i}]"
        if not isinstance(comps, list) or len(comps) != n:
            raise ConfigError(f"{path}: expected {n} component term lists")
        norm_comps = []
        for j, terms in enumerate(comps):
            cpath = f"{path}[{j}]"
            if not isinstance(terms, list):
                raise ConfigError(f"{cpath}: expected a list of terms")
            norm_terms = []
            for t, term in enumerate(terms):
                tpath = f"{cpath}[{t}]"
                if not isinstance(term, list) or len(term) not in (2, 3):
                    raise ConfigError(
                        f"{tpath}: expected [coeff, powers] or "
                        "[coeff, powers, eps_powers]")
                coeff = _as_number(term[0], f"{tpath}[0]")
                powers = _as_int_vector(term[1], f"{tpath}[1]", length=n)
                epow = (_as_int_vector(term[2], f"{tpath}[2]", length=p)
                        if len(term) == 3 else [0] * p)
                if any(v < 0 for v in powers + epow):
                    raise ConfigError(f"{tpath}: exponents must be >= 0")
                norm_terms.append([coeff, powers, epow])
            norm_comps.append(norm_terms)
        norm_fields.append(norm_comps)
    return {"n": n, "k": k, "p": p, "fields": norm_fields}


def _normalize_torus(torus, system_name: str) -> dict:
    torus = _require_mapping(torus, "torus")
    kind = torus.get("kind", "catalog")
    if kind == "catalog":
        _check_keys(torus, "torus", ("kind",))
        if system_name == "polynomial":
            raise ConfigError(
                "torus.kind 'catalog' needs a catalog system; give an "
                "explicit 'circle' or 'flat' torus for polynomial fields")
        return {"kind": "catalog"}
    if kind == "circle":
        _check_keys(torus, "torus", ("kind", "center", "radius", "plane",
                                     "eps0"),
                    required=("center", "radius", "eps0"))
        center = _as_vector(torus["center"], "torus.center")
        radius = _as_number(torus["radius"], "torus.radius", positive=True)
        plane = _as_int_vector(torus.get("plane", [0, 1]), "torus.plane",
                               length=2)
        if plane[0] == plane[1]:
            raise ConfigError("torus.plane: the two axes must differ")
        return {"kind": "circle", "center": center, "radius": radius,
                "plane": plane, "eps0": _as_vector(torus["eps0"], "torus.eps0")}
    if kind == "flat":
        _check_keys(torus, "torus", ("kind", "angle_coords", "values", "eps0"),
                    required=("angle_coords", "values", "eps0"))
        coords = _as_int_vector(torus["angle_coords"], "torus.angle_coords")
        if len(set(coords)) != len(coords) or not coords:
            raise ConfigError("torus.angle_coords: nonempty, distinct indices")
        return {"kind": "flat", "angle_coords": coords,
                "values": _as_vector(torus["values"], "torus.values"),
                "eps0": _as_vector(torus["eps0"], "torus.eps0")}
    raise ConfigError(f"torus.kind: unknown kind {kind!r}; "
                      "known: catalog, circle, flat")


def _normalize_options(analysis: str, options: dict) -> dict:
    defaults = _OPTION_DEFAULTS[analysis]
    _check_keys(options, "options", defaults)
    out = {}
    for key, default in defaults.items():
        value = options.get(key, default)
        path = f"options.{key}"
        if key == "alpha":
            if value is None:
                if analysis in _NEEDS_ALPHA:
                    raise ConfigError(f"{path}: required for {analysis}")
                out[key] = None
                continue
            alpha = _as_int_vector(value, path)
            if not any(alpha):
                raise ConfigError(f"{path}: winding numbers must not all be "
                                  "zero (no loop class)")
            out[key] = alpha
        elif key == "sample_angles":
            if not isinstance(value, list):
                raise ConfigError(f"{path}: expected a list of angle vectors")
            out[key] = [_as_vector(v, f"{path}[{i}]")
                        for i, v in enumerate(value)]
        elif key == "eps_grid":
            out[key] = _normalize_grid(value, path, analysis)
        elif key == "eps":
            if value is None:
                raise ConfigError(f"{path}: required for {analysis}")
            out[key] = _as_vector(value, path)
        elif key == "probe_offsets":
            out[key] = _as_vector(value, path)
        elif key in _INT_MINIMA:
            out[key] = _as_int(value, path, minimum=_INT_MINIMA[key])
        elif key == "trust_radius":
            out[key] = None if value is None else _as_number(value, path)
        else:
            out[key] = _as_number(value, path, positive=key in _POSITIVE)
    return out


def _normalize_grid(value, path, analysis):
    if value is None:
        raise ConfigError(f"{path}: required for {analysis}")
    value = _require_mapping(value, path)
    if "values" in value:
        _check_keys(value, path, ("values",))
        vals = value["values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"{path}.values: expected a nonempty list")
        rows = [_as_vector(v, f"{path}.values[{i}]")
                for i, v in enumerate(vals)]
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ConfigError(f"{path}.values: ragged parameter vectors")
        return {"values": rows}
    _check_keys(value, path, ("start", "stop", "num"),
                required=("start", "stop", "num"))
    start = _as_vector(value["start"], f"{path}.start")
    stop = _as_vector(value["stop"], f"{path}.stop", length=len(start))
    num = _as_int(value["num"], f"{path}.num", minimum=1)
    return {"start": start, "stop": stop, "num": num}


def _normalize_output(output) -> dict:
    output = _require_mapping(output, "output")
    _check_keys(output, "output", ("dir", "formats"))
    formats = output.get("formats", ["json", "csv"])
    if not isinstance(formats, list) or \
            any(f not in ("json", "csv") for f in formats):
        raise ConfigError("output.formats: entries must be 'json' or 'csv'")
    out_dir = output.get("dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir: expected a string")
    return {"dir": out_dir, "formats": sorted(set(formats))}


def eps_grid_values(options: dict) -> list[np.ndarray]:
    grid = options["eps_grid"]
    if "values" in grid:
        return [np.asarray(v, dtype=float) for v in grid["values"]]
    start = np.asarray(grid["start"], dtype=float)
    stop = np.asarray(grid["stop"], dtype=float)
    num = grid["num"]
    if num == 1:
        return [start]
    steps = np.linspace(0.0, 1.0, num)
    return [start + s * (stop - start) for s in steps]


# ---------------------------------------------------------------------------
# system construction


@dataclass(frozen=True)
class RunSetup:
    family: VectorFieldFamily
    seed: TorusSeed
    catalog: CatalogSystem | None


def _polynomial_family(params: dict) -> VectorFieldFamily:
    n, k, p = params["n"], params["k"], params["p"]
    compiled = []
    for comps in params["fields"]:
        comp_data = []
        for terms in comps:
            if terms:
                coeffs = np.array([t[0] for t in terms])
                powers = np.array([t[1] for t in terms], dtype=int)
                epows = np.array([t[2] for t in terms], dtype=int) \
                    if p else np.zeros((len(terms), 0), dtype=int)
            else:
                coeffs = np.zeros(0)
                powers = np.zeros((0, n), dtype=int)
                epows = np.zeros((0, p), dtype=int)
            comp_data.append((coeffs, powers, epows))
        compiled.append(comp_data)

    def term_values(coeffs, powers, epows, x, eps):
        if coeffs.size == 0:
            return 0.0
        vals = coeffs * np.prod(x[None, :] ** powers, axis=1)
        if epows.shape[1]:
            vals = vals * np.prod(eps[None, :] ** epows, axis=1)
        return float(np.sum(vals))

    def make_value(i):
        data = compiled[i]

        def value(x, eps, _d=data):
            return np.array([term_values(c, pw, ep, x, eps)
                             for c, pw, ep in _d])
        return value

    def diff_terms(coeffs, powers, epows, axis):
        mask = powers[:, axis] > 0
        if not np.any(mask):
            return (np.zeros(0), np.zeros((0, powers.shape[1]), dtype=int),
                    np.zeros((0, epows.shape[1]), dtype=int))
        c = coeffs[mask] * powers[mask, axis]
        pw = powers[mask].copy()
        pw[:, axis] -= 1
        return c, pw, epows[mask]

    def make_jacobian(i):
        data = compiled[i]
        derivs = [[diff_terms(c, pw, ep, a) for a in range(n)]
                  for c, pw, ep in data]

        def jac(x, eps, _derivs=derivs):
            out = np.empty((n, n))
            for j in range(n):
                for a in range(n):
                    out[j, a] = term_values(*_derivs[j][a], x, eps)
            return out
        return jac

    def diff_eps(coeffs, powers, epows, axis):
        mask = epows[:, axis] > 0
        if not np.any(mask):
            return (np.zeros(0), np.zeros((0, powers.shape[1]), dtype=int),
                    np.zeros((0, epows.shape[1]), dtype=int))
        c = coeffs[mask] * epows[mask, axis]
        ep = epows[mask].copy()
        ep[:, axis] -= 1
        return c, powers[mask], ep

    def make_epsjac(i):
        data = compiled[i]
        derivs = [[diff_eps(c, pw, ep, a) for a in range(p)]
                  for c, pw, ep in data]

        def ejac(x, eps, _derivs=derivs):
            out = np.empty((n, p))
            for j in range(n):
                for a in range(p):
                    out[j, a] = term_values(*_derivs[j][a], x, eps)
            return out
        return ejac

    return VectorFieldFamily(
        n, k, p,
        values=[make_value(i) for i in range(k)],
        jacobians=[make_jacobian(i) for i in range(k)],
        eps_jacobians=[make_epsjac(i) for i in range(k)] if p else None,
        name="polynomial")


def _build_seed(torus: dict, family: VectorFieldFamily) -> TorusSeed:
    if torus["kind"] == "circle":
        center = np.asarray(torus["center"], dtype=float)
        if center.size != family.n:
            raise ConfigError("torus.center: length must equal the chart "
                              "dimension")
        radius = torus["radius"]
        i, j = torus["plane"]
        if not (0 <= i < family.n and 0 <= j < family.n):
            raise ConfigError("torus.plane: axis out of range")
        if family.k != 1:
            raise ConfigError("torus.kind 'circle' needs a single field")

        def embed(phi, _c=center, _r=radius, _i=i, _j=j):
            out = _c.copy()
            out[_i] += _r * math.cos(phi[0])
            out[_j] += _r * math.sin(phi[0])
            return out

        return TorusSeed(1, embed, np.asarray(torus["eps0"], dtype=float))
    if torus["kind"] == "flat":
        coords = tuple(torus["angle_coords"])
        values = np.asarray(torus["values"], dtype=float)
        if values.size != family.n:
            raise ConfigError("torus.values: length must equal the chart "
                              "dimension")
        if any(not (0 <= c < family.n) for c in coords):
            raise ConfigError("torus.angle_coords: index out of range")
        if len(coords) != family.k:
            raise ConfigError("torus.angle_coords: need one angle per field")

        def embed(phi, _v=values, _c=coords):
            out = _v.copy()
            for slot, idx in enumerate(_c):
                out[idx] = phi[slot]
            return out

        return TorusSeed(len(coords), embed,
                         np.asarray(torus["eps0"], dtype=float),
                         angle_coords=coords)
    raise ConfigError(f"unsupported torus kind {torus['kind']!r}")


def build_run(config: RunConfig) -> RunSetup:
    """Materialize the family and seed described by a parsed config.

    A catalog constructor that rejects its parameters raises
    :class:`ConfigError` naming ``system.params``. A parameter vector of
    the wrong length in ``options.eps`` (``torus``) or ``options.eps_grid``
    (``continue``, ``bifurcate``), and a grid that does not start at the
    seed parameter, raise :class:`ConfigError` naming the option.
    """
    if config.system_name == "polynomial":
        family = _polynomial_family(config.system_params)
        seed = _build_seed(config.torus, family)
        _validate_dimensions(config, family, seed)
        return RunSetup(family, seed, None)
    try:
        system = build_catalog_system(config.system_name,
                                      config.system_params)
    except (ValueError, NonCommuting) as exc:
        raise ConfigError(f"system.params: {exc}") from exc
    if config.torus["kind"] == "catalog":
        seed = system.seed
    else:
        seed = _build_seed(config.torus, system.family)
    _validate_dimensions(config, system.family, seed)
    return RunSetup(system.family, seed, system)


def _validate_dimensions(config: RunConfig, family: VectorFieldFamily,
                         seed: TorusSeed) -> None:
    alpha = config.options.get("alpha")
    if alpha is not None and len(alpha) != family.k:
        raise ConfigError(
            f"options.alpha: expected {family.k} winding numbers, got "
            f"{len(alpha)}")
    if seed.eps0.size != family.p:
        raise ConfigError(
            f"torus: seed parameter has length {seed.eps0.size}, the family "
            f"declares p={family.p}")
    try:
        if config.analysis == "torus":
            key = "eps"
            as_params(config.options["eps"], family.p)
        elif config.analysis in ("continue", "bifurcate"):
            key = "eps_grid"
            _checked_path(eps_grid_values(config.options), seed.eps0, family.p)
    except ValueError as exc:
        raise ConfigError(f"options.{key}: {exc}") from exc
