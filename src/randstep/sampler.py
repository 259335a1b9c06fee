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
and its ensemble (`_converge`).

Ensembles derive one child stream per trajectory from
(master_seed, trajectory_index), so results are bit-identical for any
worker count.  Row i of an ensemble's norms is bitwise
run_randomised(..., trajectory_stream(master_seed, i)).error_h_norms(),
the call that gives trajectory i's arrays.

Memory model: the strong-error statistics need only |e_k|_H = |r_k|_H
per trajectory and step, so a study's ensembles run step-major in one
pass over its grids.  Every grid seeds trajectory i from one stream, so
a grid's raw normals are a prefix of the longest grid's.  The pass takes
the trajectories in groups of B, with one generator per trajectory and
one rolling (B, J) deviation per grid.  It draws the longest grid's next
S steps once into one reused (B, S, J) raw chunk of at most BLOCK_BYTES;
each grid shapes its prefix step by step into one (B, J) scratch,
advances its deviation and writes its squared norms into the group's
rows of its (M, N_g + 1) norms.  A study holds all grids' norms, their
(a, d) tables and one chunk.  The bounded kind's radii follow all of its
normals, so each of its grids is a one-grid family with S = N in the
same pass.  With several workers, all groups of a study run as tasks in
one pool of forked workers, which write their rows straight into norms
in anonymous shared mappings made before the fork.  Neither B, S nor
the task order changes a computed float.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from multiprocessing import get_context

import numpy as np

from .grids import TimeGrid
from .integrators import MethodConfig, step_table
from .problems import Problem, flow_table
from .randomisation import BOUNDED_UNIFORM, NoiseModel, _family_noise, noise_path
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


# Byte budget of one step chunk, the (B, S, J) float64 raw normals of a
# group of B trajectories over S steps of the longest grid.  B and S are
# both about sqrt(BLOCK_BYTES / (8 J)), S at most N; the bounded kind,
# whose radii follow all of its normals, takes S = N and B to fit.  This
# caps both the chunk and the B generators a group holds (the bounded
# kind adds its (B, N, 1) radii).  A pass holds all grids' norms beside
# it, hence the small budget; the chunk shape changes no computed float.
BLOCK_BYTES = 4 * 2**20


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


def _advance(table, v: np.ndarray, start: int = 0, noise=None):
    """Step the rows of v, shape (B, J), in place by
    v <- a[k] * v + b[k] (+ xi_k), with (a, b) = table, for k from start,
    taking xi_k in turn from the iterable noise (arrays that broadcast
    against v) until it runs out, or without noise to the end of the
    table; yields k + 1 after each step.

    The one recursion of the module.  All operations are elementwise per
    row, so neither the rows stepped together nor the steps taken per
    call change a computed float.
    """
    a, b = table
    for k, xi in zip(range(start, a.shape[0]), repeat(None) if noise is None else noise):
        np.multiply(a[k], v, out=v)
        v += b[k]
        if xi is not None:
            v += xi
        yield k + 1


def _path(table, v0: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
    """v_0..v_N of one run of `_advance` from v0, shape (N + 1, J), with
    per-step noise of shape (N, J) or None."""
    v = v0[None].copy()
    out = np.empty((table[0].shape[0] + 1, v0.shape[0]))
    out[0] = v0
    for k in _advance(table, v, 0, noise):
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
    # all of the trajectory's randomness, in a fixed consumption order
    init = noise_path(noise, stream, grid.steps[:1])[0] if perturb_initial else None
    return _trajectory(prepared, grid, init, noise_path(noise, stream, grid.steps), record_defects)


def _chunk_shape(noise: NoiseModel, n: int, rows: int) -> tuple[int, int]:
    """(B, S): trajectories per group and steps per chunk, from
    BLOCK_BYTES alone; see its comment."""
    side = max(1, math.isqrt(BLOCK_BYTES // (8 * noise.dimension)))
    size = n if noise.kind == BOUNDED_UNIFORM else min(n, side)
    return max(1, min(rows, side, BLOCK_BYTES // (8 * noise.dimension * size))), size


def _run_group(study: tuple, family: list, rows: range, size: int) -> None:
    """Error norms |r_k|_H of the trajectories in rows into those rows of
    the norms of family's grids, from one draw, S = size steps at a time,
    whose prefixes serve every grid; study as `_ensembles` builds it."""
    noise, master_seed, perturb_initial, grid_steps, tables, grid_norms = study
    streams = [trajectory_stream(master_seed, i) for i in rows]
    steps = [grid_steps[g] for g in family]
    norms = [grid_norms[g][rows.start:rows.stop] for g in family]
    r = [np.zeros((len(streams), noise.dimension)) for _ in family]
    if perturb_initial:
        for _, inits in _family_noise(noise, streams, [s[:1] for s in steps], 1):
            for v, init in zip(r, inits):
                v[:] = next(init)
    square = np.empty_like(r[0])
    for v, out in zip(r, norms):
        np.add.reduce(np.multiply(v, v, out=square), axis=-1, out=out[:, 0])
    for start, noises in _family_noise(noise, streams, steps, size):
        for g, v, out, xi in zip(family, r, norms, noises):
            for k in _advance(tables[g], v, start, xi):
                np.add.reduce(np.multiply(v, v, out=square), axis=-1, out=out[:, k])
    for out in norms:
        np.sqrt(out, out=out)


# The study a pool worker runs, set once in each worker by `_attach`.  The
# workers are forked, so they inherit it, norms included, unpickled.
_WORKER_STUDY = None


def _attach(study: tuple) -> None:
    global _WORKER_STUDY
    _WORKER_STUDY = study


def _run_task(task) -> None:
    _run_group(_WORKER_STUDY, *task)


def _ensembles(noise, grids, tables, m, master_seed, workers, perturb_initial) -> list:
    """The ensembles of M trajectories on each grid from its deviation
    table, in one pass of tasks, each one group on one family (all grids,
    or each grid alone for the bounded kind); see the memory model."""
    every = range(len(grids))
    families = [[g] for g in every] if noise.kind == BOUNDED_UNIFORM else [list(every)]
    tasks = []
    for family in families:
        rows, size = _chunk_shape(noise, max(grids[g].num_steps for g in family), m)
        tasks += [(family, range(i, min(i + rows, m)), size) for i in range(0, m, rows)]
    pooled = workers > 1 and len(tasks) > 1
    sizes = [m * (grid.num_steps + 1) for grid in grids]
    if pooled:  # anonymous shared mappings, made before the workers fork
        import mmap

        norms = [np.frombuffer(mmap.mmap(-1, 8 * size)).reshape(m, -1) for size in sizes]
    else:
        norms = [np.empty(size).reshape(m, -1) for size in sizes]
    study = (noise, master_seed, perturb_initial, [g.steps for g in grids], tables, norms)
    if pooled:
        with ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                 initializer=_attach, initargs=(study,)) as pool:
            for _ in pool.map(_run_task, tasks):
                pass
    else:
        for task in tasks:
            _run_group(study, *task)
    return [Ensemble(grid, out) for grid, out in zip(grids, norms)]


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
    return _ensembles(noise, [grid], [table], m, master_seed, workers, perturb_initial)[0]


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


def _converge(problem, method, noise, grids, theta, m, master_seed, workers):
    """Each grid's truncation constant, as measure_truncation_constant
    gives it, and its run, as run_ensemble (or, when noise is None,
    run_deterministic) gives it, from one build of each grid's tables."""
    constants, tables, runs = [], [], []
    for grid in grids:
        prepared = _prepare(problem, method, grid, theta, noise)
        constants.append(_truncation_constant(prepared[1][1], grid.steps, method.order))
        if noise is None:
            runs.append(_trajectory(prepared, grid))
        else:
            tables.append(prepared[1])
        del prepared  # the pass keeps only the (a, d) tables
    if noise is not None:
        runs = _ensembles(noise, grids, tables, m, master_seed, workers, False)
    return constants, runs
