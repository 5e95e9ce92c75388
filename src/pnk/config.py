"""Run configuration: strict JSON parsing, system and seed construction.

A configuration is a single JSON document describing one run. Unknown
keys are rejected everywhere so that a typo cannot silently change a
run. ``parse_config`` fills every default and returns the normalized
document; parsing the normalized echo again reproduces it bit for bit,
which is what makes reports replayable.

The tables ``_OPTIONS`` (one per analysis) and ``_CATALOG_PARAMS`` (one
per catalog system) are the single source of every option and catalog
parameter: each maps a key to ``(default or REQUIRED, check)``, and
``_normalize`` checks one section against its table. So ``alpha`` is
required by every analysis but ``verify``, ``eps_grid`` by ``continue``
and ``bifurcate``, ``eps`` by ``torus``, ``A`` and ``C`` by
``straightened``; every tolerance (``*_tol``, ``delta_min``) and
``search_radius`` must be positive, and the integration tolerances
``tol`` and ``probe_tol`` at least ``flow.MIN_TOL`` (scipy's rtol floor,
about 2.2e-14); the integers ``samples``, ``n_samples`` and ``n_out``
are >= 1, ``grid`` >= 4, ``grid_per_angle`` >= 2, ``seed`` and
``max_iter`` >= 0. ``build_run`` adds the checks that need the built
family: vector lengths and the grid start. The torus, output and
polynomial sections are checked by hand.

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
from .flow import MIN_TOL


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


def _as_vector(value, path, length=None, item=_as_number):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    out = [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(out)}")
    return out


def _as_int_vector(value, path, length=None):
    return _as_vector(value, path, length, item=_as_int)


def _as_vectors(value, path):
    return _as_vector(value, path, item=_as_vector)


def _as_matrix(value, path):
    """A nonempty list of number lists of one length."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of number lists")
    rows = _as_vectors(value, path)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ConfigError(f"{path}: ragged rows")
    return rows


def _as_matrices(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of matrices")
    return [_as_matrix(m, f"{path}[{i}]") for i, m in enumerate(value)]


def _positive(value, path):
    return _as_number(value, path, positive=True)


def _integration_tol(value, path):
    value = _as_number(value, path)
    if value < MIN_TOL:
        raise ConfigError(f"{path}: must be at least {MIN_TOL:.3g}, "
                          "scipy's smallest rtol")
    return value


def _at_least(minimum):
    return lambda value, path: _as_int(value, path, minimum)


def _winding(value, path):
    alpha = _as_int_vector(value, path)
    if not any(alpha):
        raise ConfigError(f"{path}: winding numbers must not all be zero "
                          "(no loop class)")
    return alpha


def _as_grid(value, path):
    value = _require_mapping(value, path)
    if "values" in value:
        _check_keys(value, path, ("values",))
        return {"values": _as_matrix(value["values"], f"{path}.values")}
    _check_keys(value, path, ("start", "stop", "num"),
                required=("start", "stop", "num"))
    start = _as_vector(value["start"], f"{path}.start")
    stop = _as_vector(value["stop"], f"{path}.stop", length=len(start))
    num = _as_int(value["num"], f"{path}.num", minimum=1)
    return {"start": start, "stop": stop, "num": num}


REQUIRED = object()  # the table default of a key the config must give

# Groups shared by several analyses: the loop class with its integration
# tolerance, the Newton budget, and the branch continuation settings.
_LOOP = {"alpha": (REQUIRED, _winding), "tol": (1e-10, _integration_tol)}
_NEWTON = {"max_iter": (20, _at_least(0))}
_BRANCH = {**_LOOP, **_NEWTON, "delta_min": (1e-6, _positive),
           "eps_grid": (REQUIRED, _as_grid)}

_OPTIONS = {
    "verify": {
        "samples": (20, _at_least(1)), "seed": (0, _at_least(0)),
        "ball_radius": (0.05, _as_number),
        "commutation_tol": (1e-8, _positive),
        "invariance_tol": (1e-8, _positive),
        # the invariance check needs 4 grid points per angle
        "grid": (8, _at_least(4)),
    },
    "monodromy": {
        **_LOOP, "unit_tol": (1e-8, _positive),
        "sample_angles": ([], _as_vectors), "spectrum_tol": (1e-6, _positive),
    },
    "floquet": {**_LOOP, "n_samples": (256, _at_least(1)),
                "n_out": (129, _at_least(1))},
    "continue": _BRANCH,
    "bifurcate": {
        **_BRANCH, "circle_tol": (1e-9, _positive),
        "eps_tol": (1e-6, _positive), "angle_tol": (1e-3, _positive),
        "probe_offsets": ([], _as_vector), "search_radius": (0.5, _positive),
        "probe_tol": (1e-9, _integration_tol),
    },
    "torus": {
        **_LOOP, **_NEWTON, "eps": (REQUIRED, _as_vector),
        # a torus row needs 2 points per angle
        "grid_per_angle": (32, _at_least(2)),
        "closure_tol": (1e-8, _positive),
    },
}
ANALYSES = tuple(_OPTIONS)

# The keyword arguments of each catalog.CATALOG constructor.
_CYLINDER_EPS0 = {"eps0": (-0.05, _as_number)}
_CATALOG_PARAMS = {
    "straightened": {"A": (REQUIRED, _as_matrices),
                     "C": (REQUIRED, _as_matrix), "cubic": (0.0, _as_number)},
    "hopf": {"omega": (1.0, _as_number), "eps0": (0.1, _as_number)},
    "uncoupled_oscillators": {"radii": ([1.0, 1.0], _as_vector)},
    "pitchfork": _CYLINDER_EPS0,
    "flip": {"stable_exponent": (-0.35, _as_number), **_CYLINDER_EPS0},
    "neimark": {"rotation": (0.18, _as_number), "damping": (1.0, _as_number),
                **_CYLINDER_EPS0},
}


def _normalize(doc, path: str, spec: dict) -> dict:
    """Check one config section against its table and fill the defaults."""
    doc = _require_mapping(doc, path)
    _check_keys(doc, path, spec, required=[
        key for key, (default, _) in spec.items() if default is REQUIRED])
    return {key: check(doc.get(key, default), f"{path}.{key}")
            for key, (default, check) in spec.items()}


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
    params = system.get("params", {})
    if name == "polynomial":
        params = _normalize_polynomial(_require_mapping(params,
                                                        "system.params"))
    elif name in CATALOG:
        params = _normalize(params, "system.params", _CATALOG_PARAMS[name])
    else:
        raise ConfigError(
            f"system.name: unknown system {name!r}; known: "
            f"{sorted(CATALOG) + ['polynomial']}")

    torus = _normalize_torus(doc.get("torus", {"kind": "catalog"}), name)

    analysis = doc["analysis"]
    if analysis not in ANALYSES:
        raise ConfigError(f"analysis: unknown analysis {analysis!r}; "
                          f"known: {list(ANALYSES)}")

    options = _normalize(doc.get("options", {}), "options",
                         _OPTIONS[analysis])
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
    (``continue``, ``bifurcate``), an ``options.sample_angles`` entry whose
    length is not the torus dimension, and a grid that does not start at
    the seed parameter raise :class:`ConfigError` naming the option.
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
    for i, angles in enumerate(config.options.get("sample_angles", ())):
        if len(angles) != family.k:
            raise ConfigError(
                f"options.sample_angles[{i}]: expected {family.k} angles, "
                f"got {len(angles)}")
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
