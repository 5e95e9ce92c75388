"""Small helpers for comparing complex eigenvalue multisets."""

from __future__ import annotations

import numpy as np


def sorted_complex(values) -> np.ndarray:
    """Sort by real part, ties by imaginary part (deterministic order)."""
    return np.sort_complex(np.asarray(values, dtype=complex))


def margins(spectrum) -> tuple[float, float]:
    """Distances of a transversal spectrum from 1 and from the unit circle.

    The first gauges invertibility of the corrector jacobian I - L (its
    eigenvalues are 1 - lambda_i); the second gauges isolation of the
    torus among nearby invariant tori. An empty spectrum is (inf, inf).
    """
    spec = np.asarray(spectrum, dtype=complex)
    if spec.size == 0:
        return np.inf, np.inf
    return (float(np.min(np.abs(spec - 1.0))),
            float(np.min(np.abs(np.abs(spec) - 1.0))))


def match(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-distance assignment between two equal-size multisets.

    Returns (perm, dists) with b[perm[i]] matched to a[i].
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(a.size, dtype=int)
    perm[rows] = cols
    return perm, cost[rows, cols]


def match_distance(a, b) -> float:
    """Largest matched pairwise distance under the optimal assignment."""
    _, dists = match(a, b)
    return float(np.max(dists)) if dists.size else 0.0
