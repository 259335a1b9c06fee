"""Time grids: possibly non-uniform partitions of [0, T].

A grid is the partition 0 = t_0 < t_1 < ... < t_N = T with steps
h_k = t_{k+1} - t_k and mesh width h = max_k h_k.  The canonical
non-uniform family is the graded grid t_k = T * (k/N)**gamma, which
reduces to the uniform grid for gamma = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import _check_integer

__all__ = ["TimeGrid", "build_grid"]


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing partition of [0, T].

    Points are stored explicitly so that the derived steps are exactly
    consistent with them.  Instances are immutable and safe to share.
    """

    points: np.ndarray
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if points[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        steps = np.diff(points)
        if np.any(steps <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        points.setflags(write=False)
        steps.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "steps", steps)

    @property
    def num_steps(self) -> int:
        return self.steps.size

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def mesh(self) -> float:
        """Maximum step size h."""
        return float(self.steps.max())


def build_grid(horizon: float, n: int, gamma: float = 1.0) -> TimeGrid:
    """Graded partition t_k = T * (k/N)**gamma of [0, T] with N steps.

    gamma = 1 gives the uniform grid with h_k = T / N; gamma > 1
    concentrates points near t = 0.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    _check_integer(n, "step count n")
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"grading exponent gamma must be >= 1 and finite, got {gamma}")
    k = np.arange(n + 1, dtype=float)
    points = horizon * (k / n) ** gamma
    points[-1] = horizon
    if np.any(points[1:] <= points[:-1]):
        raise ValueError(f"a step of horizon {horizon} graded by gamma = {gamma} into n = {n} "
                         "steps rounds to 0")
    return TimeGrid(points)

