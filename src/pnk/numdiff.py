"""Fourth-order central differences for jacobians and curve tangents.

Used as the fallback whenever a family or seed does not supply analytic
derivatives. The default step follows h = 1e-5 * max(1, |x|_inf), which
keeps the rounding floor near 1e-11 while truncation is negligible.
"""

from __future__ import annotations

import numpy as np

DEFAULT_STEP_SCALE = 1e-5


def step_for(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    base = float(np.max(np.abs(x))) if x.size else 0.0
    return DEFAULT_STEP_SCALE * max(1.0, base)


def directional(f, x, v, h: float) -> np.ndarray:
    """Directional derivative of f at x along v, 4th-order central stencil."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    fm2 = np.asarray(f(x - 2.0 * h * v), dtype=float)
    fm1 = np.asarray(f(x - h * v), dtype=float)
    fp1 = np.asarray(f(x + h * v), dtype=float)
    fp2 = np.asarray(f(x + 2.0 * h * v), dtype=float)
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)


def jacobian(f, x, step: float | None = None) -> np.ndarray:
    """Jacobian of a vector map f: R^m -> R^l, columns by coordinate stencils."""
    x = np.asarray(x, dtype=float)
    h = step_for(x) if step is None else step
    cols = []
    eye = np.eye(x.size)
    for a in range(x.size):
        cols.append(directional(f, x, eye[a], h))
    return np.column_stack(cols) if cols else np.zeros((np.asarray(f(x)).size, 0))


def gradient(f, x, step: float | None = None) -> np.ndarray:
    """Gradient of a scalar function: the one row of its :func:`jacobian`."""
    return jacobian(lambda z: np.asarray([f(z)], dtype=float), x, step)[0]
