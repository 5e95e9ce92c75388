"""Work counters and per-layer spans, recorded from outside pnk.

Nothing in pnk is edited. Two kinds of hook are installed from here:

* ``VectorFieldFamily.__init__`` is wrapped so the value and jacobian
  callables handed to every family are wrapped by the active recorder:
  :class:`Counter` only counts calls (timed passes), :class:`Tracer` also
  times them and charges the time and the count to the open span.
  Field callables are aggregated per callable (calls and seconds), not
  recorded one span per call.
* :func:`bind` points every module attribute that binds a public function
  (the defining module's, each importing module's and the ``pnk``
  package's) at a wrapper. :func:`install_spans` binds the ``SPANNED``
  functions to span wrappers; ``run.py`` binds the calibration hooks.

A span's layer is the pnk module that defines the function. A span's self
time is its duration minus the durations of its child spans and of the
field calls made directly inside it, so over one iteration the self times
of all layers (plus the benchmark's own ``bench`` layer at the root) add up
to the iteration's wall time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import pnk.core

clock = time.perf_counter

# Public functions that get a span, by name.
SPANNED = (
    "loop_field",
    "integrate_flow", "integrate_variational", "solve_return_times",
    "build_section", "transversal_map", "total_monodromy", "monodromy_report",
    "newton_fixed_point", "continue_branch", "reconstruct_torus",
    "analyze_branch", "detect_crossings", "postcritical_probe",
    "extract_linearization", "fundamental_matrix", "floquet_decompose",
    "load_config", "build_run",
    "write_report", "emit_branch_table", "emit_torus_table",
    "run_config",
)

LAYERS = ("bench", "core", "flow", "section", "continuation", "bifurcation",
          "floquet", "config", "report", "cli")

# Spans that tag their descendants, so counts can be split by caller.
CONTEXT_TAGS = {"reconstruct_torus": "reconstruct",
                "detect_crossings": "bisect"}

_active = None


def activate(recorder) -> None:
    """Make ``recorder`` wrap the callables of families built from now on."""
    global _active
    _hook_family_init()
    _active = recorder


def _hook_family_init() -> None:
    cls = pnk.core.VectorFieldFamily
    original = cls.__init__
    if getattr(original, "_bench_hook", False):
        return

    @functools.wraps(original)
    def __init__(self, n, k, p, values, jacobians=None, eps_jacobians=None,
                 **kwargs):
        values = [_active.wrap_field(f, "value") for f in values]
        if jacobians is not None:
            jacobians = [_active.wrap_field(f, "jacobian") for f in jacobians]
        original(self, n, k, p, values, jacobians, eps_jacobians, **kwargs)

    __init__._bench_hook = True
    cls.__init__ = __init__


class Counter:
    """Counts field value and jacobian calls; nothing else."""

    def __init__(self):
        self.counts = {"value": 0, "jacobian": 0}

    def reset(self) -> None:
        self.counts = {"value": 0, "jacobian": 0}

    def wrap_field(self, fn, kind):
        recorder = self

        def field(x, eps):
            recorder.counts[kind] += 1
            return fn(x, eps)
        return field


# Open-frame slots.
_NAME, _LAYER, _START, _CHILD, _RHS, _JAC, _ID, _PARENT, _TAG = range(9)


class Tracer:
    """In-memory spans and per-callable field aggregates, per iteration."""

    def __init__(self):
        self.stack: list = []
        self.iterations: list = []   # one dict per traced iteration
        self._next_id = 0
        self._spans: list = []
        self._fields: dict = {}      # callable -> [calls, seconds]

    # -- field callables ---------------------------------------------------

    def wrap_field(self, fn, kind):
        stack = self.stack
        slot = _RHS if kind == "value" else _JAC
        key = f"{kind}:{fn.__module__}.{fn.__qualname__}"
        tracer = self

        def field(x, eps):
            start = clock()
            out = fn(x, eps)
            spent = clock() - start
            top = stack[-1]
            top[_CHILD] += spent
            top[slot] += 1
            agg = tracer._fields.setdefault(key, [0, 0.0])
            agg[0] += 1
            agg[1] += spent
            return out
        return field

    # -- spans -------------------------------------------------------------

    def _open(self, name, layer, tag=None):
        parent = self.stack[-1] if self.stack else None
        frame = [name, layer, 0.0, 0.0, 0, 0, self._next_id,
                 parent[_ID] if parent else None,
                 tag or (parent[_TAG] if parent else "")]
        self._next_id += 1
        self.stack.append(frame)
        frame[_START] = clock()
        return frame

    def _close(self, frame, info):
        end = clock()
        self.stack.pop()
        duration = end - frame[_START]
        if self.stack:
            self.stack[-1][_CHILD] += duration
        self._spans.append({
            "id": frame[_ID], "parent": frame[_PARENT], "name": frame[_NAME],
            "layer": frame[_LAYER], "start": frame[_START], "end": end,
            "self": duration - frame[_CHILD], "rhs": frame[_RHS],
            "jac": frame[_JAC], "tag": frame[_TAG], **info})

    def wrap_span(self, fn):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        fixed_tag = CONTEXT_TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tag = fixed_tag
            if name == "postcritical_probe":
                kind = kwargs.get("kind", args[5] if len(args) > 5 else None)
                tag = "circle" if kind == "CaseC" else "probe"
            frame = tracer._open(name, layer, tag)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, {"error": type(exc).__name__})
                raise
            tracer._close(frame, _result_info(name, out))
            return out
        return span

    def run_iteration(self, body):
        """Run ``body()`` under a root ``bench`` span; keep its records."""
        self._spans = []
        self._fields = {}
        root = self._open("iteration", "bench")
        try:
            return body()
        finally:
            self._close(root, {})
            self.iterations.append({"spans": self._spans,
                                    "fields": self._fields})


def _result_info(name, out) -> dict:
    if name in ("integrate_flow", "integrate_variational"):
        return {"steps": out.steps_taken}
    if name in ("solve_return_times", "newton_fixed_point"):
        return {"iters": out.iterations}
    if name == "transversal_map":
        return {"jacobian": out.jacobian is not None}
    if name == "continue_branch":
        return {"slices": len(out.points)}
    if name == "postcritical_probe":
        return {"finds": len(out.fixed_points) + len(out.two_cycles)
                + (out.circle is not None)}
    return {}


def bind(names, make_wrapper) -> None:
    """Point every pnk binding of the named functions at a wrapper.

    Bindings are the defining module's attribute, each importing module's
    and the ``pnk`` package's. A function wrapped before is re-wrapped from
    its original, so a later ``bind`` replaces an earlier one.
    """
    wrappers = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "pnk" and not mod_name.startswith("pnk."):
            continue
        for name in names:
            fn = getattr(module, name, None)
            if not callable(fn):
                continue
            original = getattr(fn, "__wrapped__", fn)
            if not getattr(original, "__module__", "").startswith("pnk."):
                continue
            if original not in wrappers:
                wrappers[original] = make_wrapper(original)
            setattr(module, name, wrappers[original])
    missing = set(names) - {fn.__name__ for fn in wrappers}
    if missing:
        raise RuntimeError(f"public functions not found: {sorted(missing)}")


def install_spans(tracer: Tracer) -> None:
    """Wrap every binding of the ``SPANNED`` functions in a span."""
    bind(SPANNED, tracer.wrap_span)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced iteration


def iteration_metrics(record: dict) -> dict:
    """Per-layer counts and times of one traced iteration."""
    spans = record["spans"]
    fields = record["fields"]
    root = spans[-1]
    by_name: dict = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)

    def named(name, tag=None):
        got = by_name.get(name, [])
        return got if tag is None else [s for s in got if s["tag"] == tag]

    def total(items, key):
        return sum(s[key] for s in items)

    def duration(items):
        return sum((s["end"] - s["start"] for s in items), 0.0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for sp in spans:
        layer_self[sp["layer"]] += sp["self"]
    field_calls = {"value": 0, "jacobian": 0}
    field_s = 0.0
    for key, (calls, seconds) in fields.items():
        field_calls[key.split(":", 1)[0]] += calls
        field_s += seconds
    layer_self["core"] += field_s

    var = named("integrate_variational")
    plain = named("integrate_flow")
    ret = named("solve_return_times")
    maps = named("transversal_map")
    newton = named("newton_fixed_point")
    newton_ok = [s for s in newton if "error" not in s]
    probe_maps = [s for s in maps if s["tag"] == "probe"]
    probes = named("postcritical_probe", "probe")
    finds = total([s for s in probes if "error" not in s], "finds")
    var_steps = total(var, "steps")

    m = {
        "core.field_s": field_s,
        "core.rhs_evals": field_calls["value"],
        "core.jac_evals": field_calls["jacobian"],
        "flow.variational.calls": len(var),
        "flow.variational.steps": var_steps,
        "flow.variational.rhs_per_step":
            total(var, "rhs") / var_steps if var_steps else 0.0,
        "flow.variational.self_s": total(var, "self"),
        "flow.plain.calls": len(plain),
        "flow.plain.steps": total(plain, "steps"),
        "flow.plain.self_s": total(plain, "self"),
        "flow.return.calls": len(ret),
        "flow.return.iters": total([s for s in ret if "error" not in s],
                                   "iters"),
        "flow.return.self_s": total(ret, "self"),
        "section.map_jac.calls": sum(1 for s in maps if s.get("jacobian")),
        "section.map_plain.calls":
            sum(1 for s in maps if s.get("jacobian") is False),
        "section.map.self_s": total(maps, "self"),
        "section.monodromy.calls":
            len(named("total_monodromy")) + len(named("monodromy_report")),
        "continuation.newton.calls": len(newton),
        "continuation.newton.iters": total(newton_ok, "iters"),
        "continuation.newton.failures": len(newton) - len(newton_ok),
        "continuation.newton.self_s": total(newton, "self"),
        "continuation.branch.slices":
            total([s for s in named("continue_branch") if "error" not in s],
                  "slices"),
        "continuation.reconstruct.flows": len(named("integrate_flow",
                                                    "reconstruct")),
        "continuation.reconstruct.s": duration(named("reconstruct_torus")),
        "bifurcation.bisect.refines": len(named("newton_fixed_point",
                                                "bisect")),
        "bifurcation.bisect.s": duration(named("detect_crossings")),
        "bifurcation.probe.maps": len(probe_maps),
        "bifurcation.probe.finds": finds,
        "bifurcation.probe.maps_per_find":
            len(probe_maps) / finds if finds else float(len(probe_maps)),
        "bifurcation.probe.s": duration(probes),
        "bifurcation.circle.maps": sum(1 for s in maps
                                       if s["tag"] == "circle"),
        "bifurcation.circle.s": duration(named("postcritical_probe",
                                               "circle")),
        "floquet.extract_s": duration(named("extract_linearization")),
        "floquet.fundamental_s": duration(named("fundamental_matrix")),
        "floquet.decompose_s": duration(named("floquet_decompose")),
        "config.load_s": duration(named("load_config")),
        "config.build_s": duration(named("build_run")),
        "report.write_s": duration(named("write_report")
                                   + named("emit_branch_table")
                                   + named("emit_torus_table")),
        "cli.run_config_s": duration(named("run_config")),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.spans"] = len(spans)
    m["trace.iteration_s"] = root["end"] - root["start"]
    m["trace.self_sum_s"] = sum(layer_self.values())
    return m



def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "_per_" in name:
        return "ratio"
    return "count"


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between iterations of one seed."""
    return unit_of(name) != "s"


def median_metrics(per_iteration: list) -> dict:
    """Median of each time; counts repeat exactly, so the first is taken."""
    first = per_iteration[0]
    return {key: statistics.median(m[key] for m in per_iteration)
            if not is_count(key) else first[key] for key in first}
