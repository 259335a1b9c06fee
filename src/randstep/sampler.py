"""Deterministic and randomised one-step recursions and Monte Carlo ensembles.

The randomised recursion perturbs each step of the underlying method:

    U_(k+1) = psi(h_k, t_k, U_k) + xi_k(h_k),        U_0 = theta (+ xi_init).

Its error e_k = u(t_k) - U_k is followed as in the paper's proof: a
one-step defect along the exact solution, plus the propagated error,
plus the noise.  On these linear mode-diagonal problems both maps are
per-mode affine, psi(h_k, t_k, v) = a_k * v + c_k and
phi(h_k, t_k, v) = E_k * v + f_k.  A run builds, once per grid and
before any stream draw, the tables (a, c) = integrators.step_table and
(E, f) = problems.flow_table, shape (N, J) each (validating its grid
there), the exact states u_(k+1) = E_k u_k + f_k, and the signed defects

    d_k = psi(h_k, t_k, u_k) - u_(k+1) = a_k u_k + c_k - u_(k+1).

Every run then propagates the deviation r_k = U_k - u(t_k) = -e_k,

    r_(k+1) = a_k r_k + d_k + xi_k,        r_0 = xi_init or 0,

and its states are u + r.  The truncation constant is
max_k |d_k|_H / h_k^(q+1), and the one-step defect along a realised path
is |phi(U_k) - psi(U_k)|_H = |(E_k - a_k) r_k - d_k|_H.  A convergence
study builds each grid's tables once for both its truncation constant
and its ensemble (`_converge_grid`).

Ensembles derive one child stream per trajectory from
(master_seed, trajectory_index), so results are bit-identical for any
worker count; trajectories are reduced in index order.  Row i of an
ensemble's norms is bitwise
run_randomised(..., trajectory_stream(master_seed, i)).error_h_norms(),
the call that gives trajectory i's arrays.

Memory model: the strong-error statistics need only |e_k|_H = |r_k|_H
per trajectory and step, so an ensemble runs step-major.  A worker takes
its trajectories in groups of B, holding one generator per trajectory of
the group and one rolling (B, J) deviation.  It draws each trajectory's
next S steps into one reused (B, S, J) chunk of at most BLOCK_BYTES
(chunked draws equal one whole-path draw), shapes the chunk in place,
advances the deviations step by step and writes each step's squared
norms into the group's rows of the worker's (rows, N + 1) norms, whose
square root is taken once at the end.  No (B, N + 1, J) array exists:
an ensemble holds its O(M N) norms plus one chunk.  With one worker the
norms are written straight into the ensemble's (M, N + 1) array; pool
workers send back only their norms, copied in index order into one
preallocated array.  Neither B nor S changes a computed float.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid
from .integrators import MethodConfig, step_table
from .problems import Problem, flow_table
from .randomisation import BOUNDED_UNIFORM, NoiseModel, _noise_chunks, noise_path
from .spaces import _check_dimension

__all__ = [
    "Trajectory",
    "Ensemble",
    "exact_states",
    "trajectory_stream",
    "run_deterministic",
    "run_randomised",
    "run_ensemble",
    "measure_truncation_constant",
]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States U_0..U_N, errors e_k = u(t_k) - U_k, and optional records.

    noise holds the drawn perturbations xi_k (shape (N, J)); defects the
    one-step method defects |phi(h_k, t_k, U_k) - psi(h_k, t_k, U_k)|_H
    along the realised path (shape (N,)).
    """

    grid: TimeGrid
    states: np.ndarray
    errors: np.ndarray
    noise: np.ndarray | None = None
    defects: np.ndarray | None = None

    def error_h_norms(self) -> np.ndarray:
        return _h_norms(self.errors)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Error norms of M trajectories, leading axis = trajectory.

    norms holds the per-trajectory, per-step |e_k|_H, shape (M, N + 1),
    read-only.  Row i is bitwise
    run_randomised(..., trajectory_stream(master_seed, i)).error_h_norms();
    that call gives trajectory i's states, errors, noise and defects.
    """

    grid: TimeGrid
    norms: np.ndarray

    def __post_init__(self):
        self.norms.flags.writeable = False

    @property
    def size(self) -> int:
        return self.norms.shape[0]

    def error_h_norms(self) -> np.ndarray:
        """Per-trajectory, per-step |e_k|_H, shape (M, N + 1), read-only."""
        return self.norms


def exact_states(problem: Problem, grid: TimeGrid, theta: np.ndarray) -> np.ndarray:
    """u(t_k) along the grid from the exact-flow table, shape (N + 1, J)."""
    theta = _check_state(problem, theta)
    return _path(flow_table(problem, grid.steps, grid.points[:-1]), theta)


def trajectory_stream(master_seed: int, index: int) -> np.random.Generator:
    """Child stream for one trajectory, independent of worker placement."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


# Byte budget of one step chunk, the (B, S, J) float64 noise of a group of
# B trajectories over S steps.  B and S are both about
# sqrt(BLOCK_BYTES / (8 J)), S at most N; the bounded kind, whose radii
# follow all of its normals, takes S = N and B to fit.  This caps both the
# chunk and the B generators a group holds, whatever M and N are (the
# bounded kind adds its (B, N, 1) radii).  Smaller chunks cost more
# per-step Python calls; the chunk shape changes no computed float.
BLOCK_BYTES = 8 * 2**20


def _check_state(problem: Problem, theta: np.ndarray) -> np.ndarray:
    """theta as a finite float vector of the problem's dimension."""
    theta = _check_dimension(theta, problem.space.dimension)
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(
            f"initial state theta must be finite, entry {bad[0]} is {theta.flat[bad[0]]}"
        )
    return theta


def _prepare(problem, method, grid, theta, noise):
    """Validate a run's inputs and build its tables before any stream draw:
    theta as floats, the deviation table (a, d), the exact states u and
    the flow factors E (for path defects)."""
    theta = _check_state(problem, theta)
    if noise is not None and noise.dimension != problem.space.dimension:
        raise ValueError(
            f"noise dimension {noise.dimension} does not match the problem "
            f"dimension {problem.space.dimension}"
        )
    a, c = step_table(method, problem, grid.steps, grid.points[:-1])
    flow = flow_table(problem, grid.steps, grid.points[:-1])
    exact = _path(flow, theta)
    return theta, (a, a * exact[:-1] + c - exact[1:]), exact, flow[0]


def _h_norms(errors: np.ndarray) -> np.ndarray:
    """|e|_H along the last (mode) axis."""
    return np.sqrt(np.sum(errors * errors, axis=-1))


def _advance(table, v: np.ndarray, start: int = 0, noise: np.ndarray | None = None):
    """Step the rows of v, shape (B, J), in place by
    v <- a[k] * v + b[k] (+ noise[:, k - start]), with (a, b) = table,
    for k from start over the S steps of noise, shape (B, S, J), or to
    the end of the table; yields k + 1 after each step.

    The one recursion of the module.  All operations are elementwise per
    row, so neither the rows stepped together nor the steps taken per
    call change a computed float.
    """
    a, b = table
    stop = a.shape[0] if noise is None else start + noise.shape[1]
    for k in range(start, stop):
        np.multiply(a[k], v, out=v)
        v += b[k]
        if noise is not None:
            v += noise[:, k - start]
        yield k + 1


def _path(table, v0: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
    """v_0..v_N of one run of `_advance` from v0, shape (N + 1, J), with
    per-step noise of shape (N, J) or None."""
    v = v0[None].copy()
    out = np.empty((table[0].shape[0] + 1, v0.shape[0]))
    out[0] = v0
    for k in _advance(table, v, 0, None if noise is None else noise[None]):
        out[k] = v[0]
    return out


def _trajectory(prepared, grid: TimeGrid, init=None, path=None,
                record_defects: bool = False) -> Trajectory:
    """One trajectory from a run's `_prepare` build, its initial
    perturbation and noise path (None for none): states u + r, errors -r
    and, if recorded, the path defects |(E - a) r - d|_H."""
    _, table, exact, flow_factors = prepared
    r = _path(table, np.zeros(exact.shape[1]) if init is None else init, path)
    defects = None
    if record_defects:
        a, d = table
        defects = _h_norms((flow_factors - a) * r[:-1] - d)
    return Trajectory(grid, exact + r, -r, path, defects)


def run_deterministic(
    problem: Problem,
    method: MethodConfig,
    grid: TimeGrid,
    theta: np.ndarray,
) -> Trajectory:
    """Noise-free recursion u_(k+1) = psi(h_k, t_k, u_k)."""
    return _trajectory(_prepare(problem, method, grid, theta, None), grid)


def _draw_noise(
    noise: NoiseModel,
    stream: np.random.Generator,
    grid: TimeGrid,
    perturb_initial: bool,
) -> tuple[np.ndarray | None, np.ndarray]:
    """All randomness of one trajectory, in a fixed consumption order."""
    init = None
    if perturb_initial:
        init = noise_path(noise, stream, grid.steps[:1])[0]
    return init, noise_path(noise, stream, grid.steps)


def run_randomised(
    problem: Problem,
    method: MethodConfig,
    noise: NoiseModel,
    grid: TimeGrid,
    theta: np.ndarray,
    stream: np.random.Generator,
    record_defects: bool = False,
    perturb_initial: bool = False,
) -> Trajectory:
    """Randomised recursion U_(k+1) = psi(h_k, t_k, U_k) + xi_k(h_k)."""
    prepared = _prepare(problem, method, grid, theta, noise)
    init, path = _draw_noise(noise, stream, grid, perturb_initial)
    return _trajectory(prepared, grid, init, path, record_defects)


def _chunk_shape(noise: NoiseModel, n: int, rows: int) -> tuple[int, int]:
    """(B, S): trajectories per group and steps per chunk, from
    BLOCK_BYTES alone; see its comment."""
    side = max(1, math.isqrt(BLOCK_BYTES // (8 * noise.dimension)))
    size = n if noise.kind == BOUNDED_UNIFORM else min(n, side)
    return max(1, min(rows, side, BLOCK_BYTES // (8 * noise.dimension * size))), size


def _run_group(table, noise, steps, indices, master_seed, perturb_initial, size, norms):
    """Squared error norms |r_k|_H^2 of the trajectories in indices into
    norms, shape (B, N + 1): one generator per trajectory, one rolling
    (B, J) deviation, noise drawn S = size steps at a time.  The generators
    and the chunk buffer are freed on return."""
    streams = [trajectory_stream(master_seed, i) for i in indices]
    r = np.zeros((len(streams), noise.dimension))
    if perturb_initial:
        for _, init in _noise_chunks(noise, streams, steps[:1], 1):
            r[:] = init[:, 0]
    norms[:, 0] = np.sum(r * r, axis=-1)
    for start, chunk in _noise_chunks(noise, streams, steps, size):
        for k in _advance(table, r, start, chunk):
            norms[:, k] = np.sum(r * r, axis=-1)


def _run_worker(args) -> np.ndarray:
    """One worker's error norms |r_k|_H, shape (len(indices), N + 1),
    written a group of B trajectories at a time into the one array it
    returns (the ensemble's own array when there is one worker)."""
    table, noise, grid, indices, master_seed, perturb_initial = args
    norms = np.empty((len(indices), grid.num_steps + 1))
    rows, size = _chunk_shape(noise, grid.num_steps, len(indices))
    for start in range(0, len(indices), rows):
        _run_group(table, noise, grid.steps, indices[start:start + rows], master_seed,
                   perturb_initial, size, norms[start:start + rows])
    return np.sqrt(norms, out=norms)


def _gather(parts, m: int) -> np.ndarray:
    """The (m, N + 1) norms of m trajectories from parts taken in index
    order, copied into one preallocated array; each part is freed once
    copied."""
    norms, row = None, 0
    for part in parts:
        if norms is None:
            norms = np.empty((m,) + part.shape[1:])
        norms[row:row + len(part)] = part
        row += len(part)
        del part
    return norms


def run_ensemble(
    problem: Problem,
    method: MethodConfig,
    noise: NoiseModel,
    grid: TimeGrid,
    theta: np.ndarray,
    m: int,
    master_seed: int,
    workers: int = 1,
    perturb_initial: bool = False,
) -> Ensemble:
    """M independent randomised trajectories with per-trajectory substreams.

    Only the (M, N + 1) error norms are stored.  Row i is bitwise
    run_randomised(problem, method, noise, grid, theta,
    trajectory_stream(master_seed, i), perturb_initial=perturb_initial)
    .error_h_norms(); that call gives trajectory i's arrays.
    """
    if m < 1:
        raise ValueError(f"ensemble size must be >= 1, got {m}")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    _, table, _, _ = _prepare(problem, method, grid, theta, noise)
    return _ensemble(table, noise, grid, m, master_seed, workers, perturb_initial)


def _ensemble(table, noise, grid, m, master_seed, workers, perturb_initial) -> Ensemble:
    """The ensemble on a run's deviation table; workers' norms are
    gathered in index order."""
    chunks = [idx for idx in np.array_split(np.arange(m), min(workers, m)) if idx.size]
    jobs = [(table, noise, grid, idx, master_seed, perturb_initial) for idx in chunks]
    if workers == 1 or len(jobs) == 1:
        norms = _run_worker(jobs[0])
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            norms = _gather(pool.map(_run_worker, jobs), m)
    return Ensemble(grid, norms)


def measure_truncation_constant(
    problem: Problem,
    method: MethodConfig,
    grid: TimeGrid,
    theta: np.ndarray,
    order: float | None = None,
) -> float:
    """Largest one-step defect ratio |phi - psi|_H / h^(q+1) along the
    exact solution states, an empirical stand-in for the truncation
    constant of the method on this problem."""
    q = method.order if order is None else order
    _, (_, defects), _, _ = _prepare(problem, method, grid, theta, None)
    return _truncation_constant(defects, grid.steps, q)


def _truncation_constant(defects: np.ndarray, steps: np.ndarray, q: float) -> float:
    norms = _h_norms(defects)
    hit = norms > 0.0
    return float(np.max(norms[hit] / steps[hit] ** (q + 1.0), initial=0.0))


def _converge_grid(problem, method, noise, grid, theta, m, master_seed, workers):
    """One grid of a convergence study from a single build of its tables:
    the truncation constant of measure_truncation_constant, and the
    ensemble of run_ensemble (the trajectory of run_deterministic when
    noise is None)."""
    prepared = _prepare(problem, method, grid, theta, noise)
    table = prepared[1]
    constant = _truncation_constant(table[1], grid.steps, method.order)
    if noise is None:
        return constant, _trajectory(prepared, grid)
    return constant, _ensemble(table, noise, grid, m, master_seed, workers, False)
