"""Small helpers for comparing complex eigenvalue multisets."""

from __future__ import annotations

import math

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


def _assignment(cost) -> list[int]:
    """The column of each row in a least-total assignment of the square
    matrix ``cost``, by shortest augmenting paths (Kuhn, Naval Res.
    Logist. Q. 2, 1955; Crouse, IEEE TAES 52, 2016), O(n^3).

    Row by row, a Dijkstra search over reduced costs finds the cheapest
    path to a free column, the dual potentials u, v absorb its length
    and the path flips. Each step, and the order in which ties fall,
    is that of ``scipy.optimize.linear_sum_assignment``, so a tied
    optimum picks the same assignment. A cost that is not finite raises
    ValueError.
    """
    rows = np.asarray(cost, dtype=float).tolist()
    n = len(rows)
    if not all(map(math.isfinite, (c for row in rows for c in row))):
        raise ValueError("assignment cost is not finite")
    u = [0.0] * n
    v = [0.0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        seen_rows = {cur}
        seen_cols = []
        remaining = list(range(n - 1, -1, -1))  # constant cost: identity
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            seen_rows.add(i)
            row, ui = rows[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # of equal costs, a free column ends the path
                if shortest[j] < lowest or (shortest[j] == lowest
                                            and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows:
            if i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def match(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-distance assignment between two equal-size multisets.

    Returns (perm, dists) with b[perm[i]] matched to a[i], by
    :func:`_assignment` on the distances |a_i - b_j|.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    cost = np.abs(a[:, None] - b[None, :])
    perm = np.array(_assignment(cost), dtype=int)
    return perm, cost[np.arange(a.size), perm]


def match_distance(a, b) -> float:
    """Largest matched pairwise distance under the optimal assignment."""
    _, dists = match(a, b)
    return float(np.max(dists)) if dists.size else 0.0
