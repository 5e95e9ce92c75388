import numpy as np
import pytest

import pnk.section
from pnk import VectorFieldFamily
from pnk.catalog import (StraightenedSpec, make_hopf, make_straightened,
                         make_uncoupled_oscillators)

A1 = np.diag([-0.3, 0.2])
A2 = np.diag([0.1, -0.4])
C = np.array([[0.5], [0.25]])


@pytest.fixture(scope="session")
def straight_spec():
    return StraightenedSpec((A1, A2), C)


@pytest.fixture(scope="session")
def straight_sys(straight_spec):
    return make_straightened(straight_spec)


@pytest.fixture(scope="session")
def straight_cubic_sys():
    return make_straightened(StraightenedSpec((A1, A2), C, cubic=1.0))


@pytest.fixture(scope="session")
def hopf_sys():
    return make_hopf(omega=1.0, eps0=0.1)


@pytest.fixture(scope="session")
def osc_sys():
    return make_uncoupled_oscillators()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def _counted(family):
    """A copy of ``family`` whose field values and jacobians count their
    calls, in ``calls[0]`` and ``calls[1]``."""
    calls = [0, 0]

    def counted(fn, slot):
        def wrapped(x, eps):
            calls[slot] += 1
            return fn(x, eps)
        return wrapped

    members = [family.member(i) for i in range(family.k)]
    fam = VectorFieldFamily(
        family.n, family.k, family.p,
        [counted(m.value, 0) for m in members],
        [counted(m.jacobian, 1) for m in members],
        [m.eps_jacobian for m in members])
    return fam, calls


@pytest.fixture(scope="session")
def counted_family():
    """``counted_family(family) -> (family copy, [value calls, jacobian
    calls])``."""
    return _counted


@pytest.fixture()
def loop_flows(monkeypatch):
    """The arguments of every ``section.integrate_variational`` call made
    while the test runs, one tuple per call."""
    calls = []
    real = pnk.section.integrate_variational

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pnk.section, "integrate_variational", spy)
    return calls
