"""The single-trajectory path: one run of the recursion with all its
arrays, the tests' reference for the ensemble pass.

It is built only from the package's own pieces: a run's deviation table
from `sampler._prepare`, its one recursion `sampler._path`, the exact
states from `exact_states`, and the draws of a stream from
`randomisation._row_blocks`, the one reader of one stream.  The pass
reads its streams through `randomisation._family_noise` and steps its
rows in `sampler._run_group`, so an ensemble row bitwise equal to
`run_randomised(..., trajectory_stream(master_seed, i)).error_h_norms()`
checks two readers and two loops against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from randstep.grids import TimeGrid
from randstep.randomisation import _row_blocks
from randstep.sampler import _path, _prepare, exact_states
from randstep.spaces import _h_norm


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States U_0..U_N, errors e_k = u(t_k) - U_k and, for a randomised
    run, the drawn perturbations xi_k (noise, shape (N, J))."""

    grid: TimeGrid
    states: np.ndarray
    errors: np.ndarray
    noise: np.ndarray | None = None

    def error_h_norms(self) -> np.ndarray:
        return _h_norm(self.errors)


def sample_path_matrix(model, stream, steps, m: int) -> np.ndarray:
    """m independent trajectories of per-step draws xi_k(h_k), shape
    (m, N, J), filled from `_row_blocks`; an ensemble draws one trajectory
    per stream and consumes each as this does with m = 1."""
    out = None
    for start, block in _row_blocks(model, stream, steps, m):
        out = np.empty((m,) + block.shape[1:]) if out is None else out
        out[start:start + len(block)] = block
    return out


def sample_noise_matrix(model, stream, h: float, m: int) -> np.ndarray:
    """m independent draws of xi(h), shape (m, J), each distributed like one
    per-step draw (the shared-factor kind's factor is drawn fresh per row)."""
    return sample_path_matrix(model, stream, [h], m)[:, 0]


def _trajectory(problem, grid, theta, table, path=None) -> Trajectory:
    """One run from theta on a `_prepare` table with noise path (None for
    none): the deviation r of `_path`, states u + r and errors -r."""
    r = _path(table, np.zeros(problem.space.dimension), path)
    return Trajectory(grid, exact_states(problem, grid, theta) + r, -r, path)


def run_deterministic(problem, method, grid, theta) -> Trajectory:
    """Noise-free recursion u_(k+1) = psi(h_k, t_k, u_k)."""
    return _trajectory(problem, grid, theta, _prepare(problem, method, grid, theta, None))


def run_randomised(problem, method, noise, grid, theta, stream) -> Trajectory:
    """Randomised recursion U_(k+1) = psi(h_k, t_k, U_k) + xi_k(h_k),
    U_0 = theta, with the stream's one path of draws."""
    table = _prepare(problem, method, grid, theta, noise)  # validates before the draw
    return _trajectory(problem, grid, theta, table,
                       sample_path_matrix(noise, stream, grid.steps, 1)[0])
