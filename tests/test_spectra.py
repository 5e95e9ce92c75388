"""pnk's own assignment, :func:`pnk.spectra.match`, against
``scipy.optimize.linear_sum_assignment``: the same permutation where the
optimum is unique, the same total where it ties."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pnk.spectra import _assignment, match


def _scipy_columns(cost):
    rows, cols = linear_sum_assignment(cost)
    assert list(rows) == list(range(len(cost)))
    return list(cols)


@pytest.mark.parametrize("n", range(1, 9))
def test_random_costs_match_scipy(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(50):
        cost = rng.random((n, n))
        assert _assignment(cost) == _scipy_columns(cost)


# Spectra whose distance matrices tie: conjugate pairs, repeated
# multipliers, and the k unit multipliers that monodromy_report pads with.
TIED = [
    ([0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]),
    ([0.5 + 0.5j, 0.5 - 0.5j, 0.9], [0.6, 0.6, 0.6]),
    ([1.0, 1.0, 1.0, 0.3], [1.0, 0.3, 1.0, 1.0]),
    ([1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]),
    ([0.2 + 0.9j, 0.2 - 0.9j, 1.0, 1.0], [1.0, 1.0, 0.2 + 0.9j, 0.2 - 0.9j]),
    ([0.0, 0.0, 0.0], [1j, -1j, 1.0]),
]


@pytest.mark.parametrize("a, b", TIED)
def test_tied_spectra_keep_the_total(a, b):
    cost = np.abs(np.subtract.outer(np.asarray(a), np.asarray(b)))
    perm, dists = match(a, b)
    want = _scipy_columns(cost)
    assert sorted(perm) == list(range(len(a)))
    np.testing.assert_array_equal(dists, cost[np.arange(len(a)), perm])
    assert dists.sum() == pytest.approx(cost[np.arange(len(a)), want].sum(),
                                        rel=0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_tied_integer_costs_keep_the_total(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(50):
        cost = rng.integers(0, 3, (n, n)).astype(float)
        cols = _assignment(cost)
        assert sorted(cols) == list(range(n))
        want = _scipy_columns(cost)
        assert cost[np.arange(n), cols].sum() \
            == cost[np.arange(n), want].sum()


def test_empty_and_refused():
    perm, dists = match([], [])
    assert perm.size == 0 and dists.size == 0
    with pytest.raises(ValueError, match="sizes differ"):
        match([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="not finite"):
        match([np.nan, 1.0], [1.0, 2.0])
