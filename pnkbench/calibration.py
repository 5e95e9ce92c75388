"""A fixed calibration unit that measures how fast the machine runs now.

The benchmark shares a small machine with other processes whose load slows
this process by up to 2x, for seconds to minutes at a time. One unit is a
fixed adaptive integration in numpy and scipy: the same kind of work pnk
does, and none of pnk's code, so its duration tracks the slowdown of the
work around it. Units run at regular intervals inside and after each
iteration, and iteration times are rescaled to a machine on which one unit
takes ``REFERENCE_S`` seconds, a round figure for a quiet core of the
2-vCPU Xeon sandbox the benchmark was written on.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_S = 0.015
INTERVAL_S = 0.15     # target spacing of units inside an iteration

# Calls of pnk after which a unit may run: short, frequent, and never
# nested inside one another.
HOOKED = ("integrate_flow", "integrate_variational", "fundamental_matrix")

_Y0 = np.array([0.3, 0.0, 1.0, 0.0, 0.0, 1.0])


def _rhs(_t, y):
    """A planar Hopf field with its variational equation."""
    x = y[:2]
    m = y[2:].reshape(2, 2)
    r2 = x @ x
    jac = np.array([[0.1 - 3.0 * x[0] ** 2 - x[1] ** 2, -1.0 - 2.0 * x[0] * x[1]],
                    [1.0 - 2.0 * x[0] * x[1], 0.1 - x[0] ** 2 - 3.0 * x[1] ** 2]])
    dx = np.array([0.1 * x[0] - x[1] - x[0] * r2, x[0] + 0.1 * x[1] - x[1] * r2])
    return np.concatenate([dx, (jac @ m).ravel()])


class Calibrator:
    """Runs calibration units and keeps their durations since a reset."""

    def __init__(self):
        self.units: list = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def reset(self) -> None:
        self.units = []
        self.spent = 0.0

    def unit(self) -> None:
        start = time.perf_counter()
        solve_ivp(_rhs, (0.0, 2.0 * np.pi), _Y0, method="RK45",
                  rtol=1e-10, atol=1e-12)
        self._last = time.perf_counter()
        self.units.append(self._last - start)
        self.spent += self._last - start

    def wrap(self, fn):
        """``fn``, followed by a unit when the last is INTERVAL_S old."""
        @functools.wraps(fn)
        def calibrated(*args, **kwargs):
            out = fn(*args, **kwargs)
            if time.perf_counter() - self._last >= INTERVAL_S:
                self.unit()
            return out
        return calibrated

    def scale(self) -> float:
        """Factor that rescales a time measured since the reset."""
        return REFERENCE_S / statistics.fmean(self.units)
