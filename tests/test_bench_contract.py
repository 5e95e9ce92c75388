"""The names and signatures that the benchmark binds in pnk.

``pnkbench`` measures pnk from outside: it rebinds the public functions
named in ``spans.SPANNED`` and ``calibration.HOOKED``, and it wraps
``VectorFieldFamily.__init__`` to count field calls. These tests load
those two files unchanged, so renaming a bound function or changing the
family's constructor fails here, not only inside ``pnkbench/run.py``.
"""

import collections
import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import pnk.cli  # noqa: F401  (imports every pnk module the bench binds)
import pnk.flow
from pnk import (VectorFieldFamily, build_section, loop_field,
                 reconstruct_torus)
from pnk.catalog import make_hopf, make_neimark, make_uncoupled_oscillators
from pnk.flow import integrate_flow, integrate_variational
from pnk.section import transversal_orbit

BENCH = Path(__file__).resolve().parent.parent / "pnkbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def calibration():
    return _load("calibration")


def test_every_bound_name_exists(spans, calibration):
    # bind raises RuntimeError naming any function it cannot find; the
    # identity wrapper leaves every binding as it was
    spans.bind(spans.SPANNED + calibration.HOOKED, lambda fn: fn)


def test_family_hook_counts_field_calls(spans, monkeypatch):
    # restored after the test, so the hook does not outlive it
    monkeypatch.setattr(VectorFieldFamily, "__init__",
                        VectorFieldFamily.__init__)
    counter = spans.Counter()
    spans.activate(counter)

    def value(x, eps):
        return np.array([-x[1], x[0]]) * (1.0 + eps[0])

    def jacobian(x, eps):
        return np.array([[0.0, -1.0], [1.0, 0.0]]) * (1.0 + eps[0])

    def eps_jacobian(x, eps):
        return np.array([[-x[1]], [x[0]]])

    # the positional and keyword arguments the hook passes on
    fam = VectorFieldFamily(2, 1, 1, [value], [jacobian], [eps_jacobian],
                            name="rotation")
    assert fam.name == "rotation"
    x, eps = np.array([1.0, 0.0]), np.array([0.0])
    fam.eval(0, x, eps)
    fam.jacobian(0, x, eps)
    assert counter.counts == {"value": 1, "jacobian": 1}
    res = integrate_flow(loop_field(fam, [1]), x, eps, 1.0)
    np.testing.assert_allclose(res.endpoint, x, atol=1e-8)
    assert counter.counts["value"] > 1


@pytest.fixture()
def span_calls(spans):
    """Calls per ``SPANNED`` function, counted where the spans would see
    them; binding the identity after the test restores every binding."""
    calls = collections.Counter()

    def counting(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    spans.bind(spans.SPANNED, counting)
    try:
        yield calls
    finally:
        spans.bind(spans.SPANNED, lambda fn: fn)


# Torus rows and section orbits are integrate_flow runs, so the flow.plain
# span metrics count their steps.
def test_torus_rows_are_spanned_flows(span_calls):
    system = make_hopf(1.0, 0.1)
    # one sampled row run and one wrap-edge flow
    reconstruct_torus(system.family, system.seed, system.seed.eps0, [0.0],
                      grid_per_angle=8)
    assert span_calls["integrate_flow"] == 2


def test_section_orbit_is_a_spanned_flow(span_calls):
    system = make_neimark()
    frame = build_section(system.family, system.seed)
    span_calls.clear()
    orbit = transversal_orbit(system.family, frame, [1], [0.1, 0.0], 5,
                              [0.04])
    assert orbit.runs == 1
    assert span_calls["integrate_flow"] == 1


@pytest.fixture()
def counter(spans, monkeypatch):
    """A spans.Counter hooked into the families built in the test; the
    hook is restored after it."""
    monkeypatch.setattr(VectorFieldFamily, "__init__",
                        VectorFieldFamily.__init__)
    counter = spans.Counter()
    spans.activate(counter)
    return counter


def _counted_runs(monkeypatch):
    """Count the right-hand-side calls of every flow.integrate run."""
    calls = [0]
    integrate = pnk.flow.integrate

    def counted_integrate(rhs, *args, **kwargs):
        def counted(t, y, out):
            calls[0] += 1
            rhs(t, y, out)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(pnk.flow, "integrate", counted_integrate)
    return calls


# A kernel the hook cannot see, fused or cached, would make rhs_evals and
# jac_evals read low with no work saved: each stage calls each member's
# value kernel once, and in a variational flow its jacobian kernel once.
@pytest.mark.parametrize("integrator, values, jacobians", [
    (integrate_variational, 278, 278), (integrate_flow, 254, 0)],
    ids=["variational", "plain"])
def test_hopf_loop_counts_one_call_per_stage(counter, monkeypatch,
                                             integrator, values, jacobians):
    system = make_hopf(1.0, 0.1)
    rhs_calls = _counted_runs(monkeypatch)
    integrator(loop_field(system.family, [1]), system.seed.base_point,
               system.seed.eps0, 1.0)
    assert rhs_calls[0] == values
    assert counter.counts == {"value": values, "jacobian": jacobians}


@pytest.mark.parametrize("integrator", [integrate_variational,
                                        integrate_flow],
                         ids=["variational", "plain"])
def test_two_member_loop_counts_each_member(counter, monkeypatch,
                                            integrator):
    system = make_uncoupled_oscillators()
    rhs_calls = _counted_runs(monkeypatch)
    integrator(loop_field(system.family, [2, -1]), system.seed.base_point,
               system.seed.eps0, 1.0)
    per_member = rhs_calls[0]
    assert per_member > 0
    assert counter.counts == {
        "value": 2 * per_member,
        "jacobian": 2 * per_member if integrator is integrate_variational
        else 0}
