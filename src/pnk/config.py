"""Run configuration: strict JSON parsing, system and seed construction.

A configuration is a single JSON document describing one run. Unknown
keys are rejected everywhere so that a typo cannot silently change a
run. ``parse_config`` fills every default and returns the normalized
document; parsing the normalized echo again reproduces it bit for bit,
which is what makes reports replayable.

Every section is checked against a table that maps each key to
``(default or REQUIRED, check)``: ``_normalize`` checks one section
against its table. ``_OPTIONS`` (one per analysis), ``_CATALOG_PARAMS``
(one per catalog system) and ``_TORI`` (one per torus kind) are the
single source of every option, catalog parameter and torus key. So
``alpha`` is required by every analysis but ``verify``, ``eps_grid`` by
``continue`` and ``bifurcate``, ``eps`` by ``torus``, ``A`` and ``C`` by
``straightened``; every tolerance (``*_tol``, ``delta_min``) and
``search_radius`` must be positive, and the integration tolerances
``tol`` and ``probe_tol`` at least ``flow.MIN_TOL`` (scipy's rtol floor,
about 2.2e-14); the integers ``samples`` and ``eps_grid.num`` are >= 1
and <= ``MAX_COUNT``, ``grid`` >= 4, ``grid_per_angle`` >= 2, ``seed``
and ``max_iter`` >= 0. ``build_run`` adds the checks that need the
built family: the torus axes, vector lengths, the grid start, two or
more slices in a ``bifurcate`` grid, the ``grid**k`` and
``grid_per_angle**k`` points of a k-torus grid, at most ``MAX_COUNT``,
and a transversal section (k < n) for every analysis but ``verify``.

Systems come either from the named catalog or as polynomial fields
(per-component term lists over chart monomials and parameter monomials).
Arbitrary callable fields are library-API only; the CLI stays
declarative.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .catalog import CATALOG, CatalogSystem, build_catalog_system
from .continuation import checked_path
from .core import TorusSeed, VectorFieldFamily, as_params, as_winding
from .errors import ConfigError, NonCommuting
from .flow import MIN_TOL

# Largest sample count, branch grid or torus grid size a run may ask for:
# more would exhaust memory or run without end rather than fail cleanly.
MAX_COUNT = 10**6

_INT64_RANGE = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _given(value, path):
    """A value checked later, by its own table or rules."""
    return value


def _as_string(value, path):
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _one_of(choices, what):
    def check(value, path):
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{path}: unknown {what} {value!r}; "
                              f"known: {list(choices)}")
        return value
    return check


def _as_number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite")
    if positive and number <= 0:
        raise ConfigError(f"{path}: must be positive")
    return number


def _as_int(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}")
    return int(value)


def _as_vector(value, path, length=None, item=_as_number):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    out = [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(out)}")
    return out


def _as_int_vector(value, path, length=None, minimum=_INT64_RANGE[0]):
    """Integers that fit int64, the dtype windings and exponents are
    stored in."""
    return _as_vector(value, path, length,
                      item=_int_range(minimum, _INT64_RANGE[1]))


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


def _int_range(minimum, maximum=None):
    return lambda value, path: _as_int(value, path, minimum, maximum)


def _winding(value, path):
    alpha = _as_int_vector(value, path)
    if not any(alpha):
        raise ConfigError(f"{path}: winding numbers must not all be zero "
                          "(no loop class)")
    return alpha


def _as_grid(value, path):
    """Listed ``values``, or ``num`` slices from ``start`` to ``stop``."""
    value = _require_mapping(value, path)
    spec = _GRID_VALUES if "values" in value else _GRID_RANGE
    grid = _normalize(value, path, spec)
    if "stop" in grid and len(grid["stop"]) != len(grid["start"]):
        raise ConfigError(f"{path}.stop: expected {len(grid['start'])} "
                          f"entries, got {len(grid['stop'])}")
    return grid


def _formats(value, path):
    return sorted(set(_as_vector(value, path,
                                 item=_one_of(("json", "csv"), "format"))))


REQUIRED = object()  # the table default of a key the config must give


def _normalize(doc, path: str, spec: dict) -> dict:
    """Check one config section against its table and fill the defaults."""
    doc = _require_mapping(doc, path)
    unknown = sorted(set(doc) - set(spec))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; "
                          f"allowed: {sorted(spec)}")
    missing = sorted(key for key, (default, _) in spec.items()
                     if default is REQUIRED and key not in doc)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")
    return {key: check(doc.get(key, default), f"{path}.{key}")
            for key, (default, check) in spec.items()}


# Groups shared by several analyses: the loop class with its integration
# tolerance, the Newton budget, a sample count, and the branch settings.
_LOOP = {"alpha": (REQUIRED, _winding), "tol": (1e-10, _integration_tol)}
_NEWTON = {"max_iter": (20, _int_range(0))}
_COUNT = _int_range(1, MAX_COUNT)  # a number of samples
_BRANCH = {**_LOOP, **_NEWTON, "delta_min": (1e-6, _positive),
           "eps_grid": (REQUIRED, _as_grid)}
_GRID_VALUES = {"values": (REQUIRED, _as_matrix)}
_GRID_RANGE = {"start": (REQUIRED, _as_vector),
               "stop": (REQUIRED, _as_vector), "num": (REQUIRED, _COUNT)}

_OPTIONS = {
    "verify": {
        "samples": (20, _COUNT), "seed": (0, _int_range(0)),
        "ball_radius": (0.05, _as_number),
        "commutation_tol": (1e-8, _positive),
        "invariance_tol": (1e-8, _positive),
        # the invariance check needs 4 grid points per angle
        "grid": (8, _int_range(4)),
    },
    "monodromy": {
        **_LOOP, "unit_tol": (1e-8, _positive),
        "sample_angles": ([], _as_vectors), "spectrum_tol": (1e-6, _positive),
    },
    "floquet": _LOOP,
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
        "grid_per_angle": (32, _int_range(2)),
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
# The term lists need n, k and p: _normalize_polynomial checks them.
_POLYNOMIAL = {"n": (REQUIRED, _int_range(1)), "k": (REQUIRED, _int_range(1)),
               "p": (REQUIRED, _int_range(0)), "fields": (REQUIRED, _given)}

# One table per torus kind. Its kind is checked against the tables first,
# and its axis rules, which need the built family, are _build_seed's.
_KIND = {"kind": ("catalog", _as_string)}
_TORI = {
    "catalog": _KIND,
    "circle": {**_KIND, "center": (REQUIRED, _as_vector),
               "radius": (REQUIRED, _positive),
               "plane": ([0, 1], partial(_as_int_vector, length=2)),
               "eps0": (REQUIRED, _as_vector)},
    "flat": {**_KIND, "angle_coords": (REQUIRED, _as_int_vector),
             "values": (REQUIRED, _as_vector), "eps0": (REQUIRED, _as_vector)},
}

_SYSTEM = {"name": (REQUIRED, _one_of((*sorted(CATALOG), "polynomial"),
                                      "system")),
           "params": ({}, _given)}
_OUTPUT = {"dir": (".", _as_string), "formats": (["json", "csv"], _formats)}
_CONFIG = {"system": (REQUIRED, _given),
           "torus": ({"kind": "catalog"}, _given),
           "analysis": (REQUIRED, _given), "options": ({}, _given),
           "output": ({}, _given)}


class RunConfig(NamedTuple):
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
    doc = _normalize(doc, "config", _CONFIG)
    system = _normalize(doc["system"], "system", _SYSTEM)
    name = system["name"]
    if name == "polynomial":
        params = _normalize_polynomial(system["params"], "system.params")
    else:
        params = _normalize(system["params"], "system.params",
                            _CATALOG_PARAMS[name])
    torus = _normalize_torus(doc["torus"], name)
    analysis = _one_of(ANALYSES, "analysis")(doc["analysis"], "analysis")
    options = _normalize(doc["options"], "options", _OPTIONS[analysis])
    output = _normalize(doc["output"], "output", _OUTPUT)

    normalized = {
        "system": {"name": name, "params": params},
        "torus": torus,
        "analysis": analysis,
        "options": options,
        "output": output,
    }
    return RunConfig(name, params, torus, analysis, options, output,
                     normalized)


def _normalize_polynomial(params, path: str) -> dict:
    params = _normalize(params, path, _POLYNOMIAL)
    n, k, p = params["n"], params["k"], params["p"]
    if k > n:
        raise ConfigError(f"{path}: need k <= n")

    def term(value, tpath):
        if not isinstance(value, list) or len(value) not in (2, 3):
            raise ConfigError(f"{tpath}: expected [coeff, powers] or "
                              "[coeff, powers, eps_powers]")
        return [_as_number(value[0], f"{tpath}[0]"),
                _as_int_vector(value[1], f"{tpath}[1]", n, minimum=0),
                _as_int_vector(value[2], f"{tpath}[2]", p, minimum=0)
                if len(value) == 3 else [0] * p]

    # a field has one term list per chart component
    field = partial(_as_vector, length=n, item=partial(_as_vector, item=term))
    params["fields"] = _as_vector(params["fields"], f"{path}.fields", k,
                                  item=field)
    return params


def _normalize_torus(torus, system_name: str) -> dict:
    torus = _require_mapping(torus, "torus")
    kind = _one_of(_TORI, "kind")(torus.get("kind", "catalog"), "torus.kind")
    torus = _normalize(torus, "torus", _TORI[kind])
    if kind == "catalog" and system_name == "polynomial":
        raise ConfigError(
            "torus.kind 'catalog' needs a catalog system; give an "
            "explicit 'circle' or 'flat' torus for polynomial fields")
    return torus


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


def _bounding_slices(options: dict) -> list[np.ndarray]:
    """The slices of ``options["eps_grid"]`` that bound all of its slices.

    These are the listed values, or the first and last slice of a
    start/stop/num grid. Slice i of that grid is start + s_i (stop - start)
    with s_i rising from 0 to 1, so each entry of a slice lies between
    those entries of the first and the last one; checking the two checks
    all ``num`` without building them.
    """
    grid = options["eps_grid"]
    if "values" not in grid:
        options = {"eps_grid": {**grid, "num": min(grid["num"], 2)}}
    # stop - start may overflow; checked_path refuses the slices it spoils
    with np.errstate(over="ignore", invalid="ignore"):
        return eps_grid_values(options)


# ---------------------------------------------------------------------------
# system construction


class RunSetup(NamedTuple):
    family: VectorFieldFamily
    seed: TorusSeed
    catalog: CatalogSystem | None


def _polynomial_family(params: dict) -> VectorFieldFamily:
    n, k, p = params["n"], params["k"], params["p"]
    # per field and component: its terms' coefficients, powers, eps powers
    compiled = [[(np.array([t[0] for t in terms], dtype=float),
                  np.array([t[1] for t in terms], dtype=int).reshape(-1, n),
                  np.array([t[2] for t in terms], dtype=int).reshape(
                      len(terms), p))
                 for terms in comps] for comps in params["fields"]]

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

    def diff(terms, slot, axis):
        """The terms differentiated by x[axis] (slot 1) or eps[axis] (2)."""
        power = terms[slot][:, axis]
        mask = power > 0
        out = [table[mask] for table in terms]
        out[0] = out[0] * power[mask]
        out[slot][:, axis] -= 1
        return out

    def make_derivative(i, slot, size):
        """The n x size jacobian of field i by x (slot 1) or eps (2)."""
        derivs = [[diff(terms, slot, a) for a in range(size)]
                  for terms in compiled[i]]

        def derivative(x, eps, _derivs=derivs):
            out = np.empty((n, size))
            for j in range(n):
                for a in range(size):
                    out[j, a] = term_values(*_derivs[j][a], x, eps)
            return out
        return derivative

    return VectorFieldFamily(
        n, k, p,
        values=[make_value(i) for i in range(k)],
        jacobians=[make_derivative(i, 1, n) for i in range(k)],
        eps_jacobians=[make_derivative(i, 2, p) for i in range(k)],
        name="polynomial")


def _build_seed(torus: dict, family: VectorFieldFamily) -> TorusSeed:
    """The circle or flat seed of ``torus`` on ``family``'s chart, with
    every axis rule: the axes must differ and lie in the chart, a circle
    needs a single field, and a flat torus one angle per field."""
    if torus["kind"] == "circle":
        center = np.asarray(torus["center"], dtype=float)
        if center.size != family.n:
            raise ConfigError("torus.center: length must equal the chart "
                              "dimension")
        radius = torus["radius"]
        i, j = torus["plane"]
        if i == j:
            raise ConfigError("torus.plane: the two axes must differ")
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
    coords = tuple(torus["angle_coords"])
    values = np.asarray(torus["values"], dtype=float)
    if values.size != family.n:
        raise ConfigError("torus.values: length must equal the chart "
                          "dimension")
    if len(set(coords)) != len(coords):
        raise ConfigError("torus.angle_coords: the indices must differ")
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


def build_run(config: RunConfig) -> RunSetup:
    """Materialize the family and seed described by a parsed config.

    A catalog constructor that rejects its parameters, and a torus of the
    chart's own dimension (k = n, no section) for any analysis but
    ``verify``, raise :class:`ConfigError` naming ``system.params``; a
    circle or flat torus that breaks an axis rule (see ``_build_seed``)
    names its key. So does every rule the run applies to an option:
    ``alpha`` must have one winding per field, each ``sample_angles``
    entry one angle per torus dimension, and ``eps`` (``torus``) and each
    ``eps_grid`` slice (``continue``, ``bifurcate``) one entry per
    parameter; the grid must start at the seed parameter, whose own
    length must be the family's, a ``bifurcate`` grid needs two slices,
    and an angle grid may have at most ``MAX_COUNT`` points.
    """
    system = None
    if config.system_name == "polynomial":
        family = _polynomial_family(config.system_params)
    else:
        try:
            system = build_catalog_system(config.system_name,
                                          config.system_params)
        except (ValueError, NonCommuting) as exc:
            raise ConfigError(f"system.params: {exc}") from exc
        family = system.family
    seed = (system.seed if config.torus["kind"] == "catalog"
            else _build_seed(config.torus, family))
    _validate_dimensions(config, family, seed)
    return RunSetup(family, seed, system)


def _validate_dimensions(config: RunConfig, family: VectorFieldFamily,
                         seed: TorusSeed) -> None:
    if family.k == family.n and config.analysis != "verify":
        raise ConfigError(
            f"system.params: k = n = {family.n}: the torus fills the chart "
            f"and leaves the {config.analysis} analysis no transversal "
            "section (r = n - k = 0); only 'verify' runs at k = n")
    options = config.options
    for key in ("grid", "grid_per_angle"):
        per_angle = options.get(key)
        if per_angle is not None and per_angle ** seed.k > MAX_COUNT:
            raise ConfigError(
                f"options.{key}: {per_angle}**{seed.k} grid points exceed "
                f"{MAX_COUNT}")
    # the rules the run applies, each under the key it checks
    key = "torus.eps0"
    try:
        as_params(seed.eps0, family.p)
        if "alpha" in options:
            key = "options.alpha"
            as_winding(options["alpha"], family.k)
        for i, angles in enumerate(options.get("sample_angles", ())):
            key = f"options.sample_angles[{i}]"
            seed.point(angles)
        if config.analysis == "torus":
            key = "options.eps"
            as_params(options["eps"], family.p)
        elif config.analysis in ("continue", "bifurcate"):
            key = "options.eps_grid"
            slices = _bounding_slices(options)
            if config.analysis == "bifurcate" and len(slices) < 2:
                raise ValueError("a bifurcation scan needs at least two "
                                 "slices to track multipliers across")
            checked_path(slices, seed.eps0, family.p)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
