"""Deterministic and randomised one-step recursions and Monte Carlo ensembles.

The randomised recursion perturbs each step of the underlying method:

    U_(k+1) = psi(h_k, t_k, U_k) + xi_k(h_k),        U_0 = theta.

Its error e_k = u(t_k) - U_k is followed as in the paper's proof: a
one-step defect along the exact solution, plus the propagated error,
plus the noise.  On these linear mode-diagonal problems both maps are
per-mode affine, psi(h_k, t_k, v) = a_k * v + c_k and
phi(h_k, t_k, v) = E_k * v + f_k.  A run builds, once per grid and
before any stream draw, first the table (E, f) = problems.flow_table
and from it the exact states u_(k+1) = E_k u_k + f_k, then, with (E, f)
let go, the table (a, c) = integrators.step_table, shape (N, J) each
(each validating the grid), and the signed defects

    d_k = psi(h_k, t_k, u_k) - u_(k+1) = a_k u_k + c_k - u_(k+1).

In that order (a, c) never sits beside the forcing response's
temporaries, which set the build's peak memory.

Every run then propagates the deviation r_k = U_k - u(t_k) = -e_k,

    r_(k+1) = a_k r_k + d_k + xi_k,        r_0 = 0,

and its states are u + r.  Both constants of the error bound are read
off these tables: the truncation constant max_k |d_k|_H / h_k^(q+1), and
the Lipschitz constant L = max(0, max_(k,j) (|a_kj| - 1) / h_k), the
smallest L with |a_kj| <= 1 + L h_k on every step (of E for the flow).
A convergence study builds each grid's tables once for both its
constants and its ensemble (`_converge`).

Ensembles derive one child stream per trajectory from
(master_seed, trajectory_index), so results are bit-identical for any
worker count.  Row i of an ensemble's norms is bitwise the norms of one
trajectory run alone from trajectory_stream(master_seed, i): `_path` of
the `_prepare` table with the stream's `randomisation._row_blocks`
draws, the single-trajectory reference that the tests keep.

Every |.|_H here is the one reduction `spaces._h_norm`.

Memory model: the strong-error statistics need only |e_k|_H = |r_k|_H
per trajectory and step, so a study's ensembles run step-major in one
pass over its grids.  Every grid seeds trajectory i from one stream, so
a grid's raw normals are a prefix of the longest grid's.  The pass takes
the trajectories in groups of B, with one generator per trajectory and
one rolling (B, J) deviation per grid.  It draws the longest grid's
steps, S at a time, into one reused raw chunk of at most a quarter of
`randomisation.BLOCK_BYTES`, which alone sets B and S (`_chunk_shape`),
and shapes each raw step's unit draw once.  Each grid that has the step
scales the unit by its scale table into one (B, J) scratch, advances its
deviation and writes the norm into its contiguous block of the next D
steps' norms, (D, B) with D = min(N, side) // G for G grids and
side >= B the group size's bound (`randomisation._side`).  So the blocks
hold at most side B norms in all, BLOCK_BYTES / W bytes, and with W >= 4
the chunk, the scratch and the blocks fit in one BLOCK_BYTES together.
A full block, or the grid's last, is kept: `run_ensemble` copies it into
the group's rows of the (M, N + 1) norms.  A convergence study keeps
only what its report reads (`ReducedEnsemble`): the rows' maxima of an
(M,) array per grid and, per order R, the task's partials of each step,
sum_i (x_i / s_g)^R with s_g the group's largest norm.  So a study
holds (M,) maxima and (tasks, N_g + 1) partials per grid and the (a, d)
and scale tables, and each worker one chunk and blocks of at most side
B norms beside them.  The study forks min(workers, tasks) workers
itself (`_fork_tasks`), one worker and one task included: worker w runs
tasks w, w + count, ... and writes its rows straight into these arrays
in anonymous shared mappings made before the fork, so nothing is
pickled or gathered.  A study's noise amplitude job (`_converge`) runs
after its tables as worker 0's first job, which writes its float into a
shared (1,) slot.  So the study's process never draws and never holds a
chunk, and the worker that held the draw's working set has exited
before the statistics run.  A convergence study's process never imports
numpy.random either; `run_ensemble` imports it before the fork, so its
caller's later studies do not import it again in each worker.  Neither
S, D nor the task order changes a computed float.  B sets the tasks, so a
study's per-step L^R norms, summed from the partials in task order,
depend on B in the last bits, but never on the worker count; the norms
and maxima do not depend on B.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid
from .integrators import MethodConfig, step_table
from .problems import Problem, flow_table
from .randomisation import NoiseModel, _chunk_shape, _family_noise, _noise, _side, _step_scales
from .spaces import _check_integer, _check_state, _h_norm

__all__ = [
    "Ensemble",
    "exact_states",
    "trajectory_stream",
    "run_ensemble",
    "measure_truncation_constant",
]


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Error norms of M trajectories, leading axis = trajectory.

    norms holds the per-trajectory, per-step |e_k|_H, shape (M, N + 1),
    read-only.  Row i is bitwise the norms of trajectory i run alone from
    trajectory_stream(master_seed, i) (see the module docstring).
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


@dataclass(frozen=True, eq=False)
class ReducedEnsemble:
    """M trajectories' error norms reduced in their pass to what
    analysis.error_statistics reads, for the L^R orders R in sums.

    maxima holds max_k |e_k|_H per trajectory, shape (M,), bitwise the row
    maxima of the Ensemble's norms.  For task g of the pass, tops[g, k] is
    s_g, the largest |e_k|_H of its trajectories, and sums[R][g, k] their
    sum of (|e_k|_H / s_g)^R, shape (tasks, N + 1) each.
    """

    grid: TimeGrid
    maxima: np.ndarray
    tops: np.ndarray
    sums: dict

    def __post_init__(self):
        for array in (self.maxima, self.tops, *self.sums.values()):
            array.flags.writeable = False

    @property
    def size(self) -> int:
        return self.maxima.shape[0]


def exact_states(problem: Problem, grid: TimeGrid, theta: np.ndarray) -> np.ndarray:
    """u(t_k) along the grid from the exact-flow table, shape (N + 1, J)."""
    theta = _check_state(theta, problem.space.dimension)
    return _path(flow_table(problem, grid.steps, grid.points[:-1]), theta)


def trajectory_stream(master_seed: int, index: int) -> np.random.Generator:
    """Child stream for one trajectory, independent of worker placement."""
    _check_integer(master_seed, "master seed", 0)
    _check_integer(index, "trajectory index", 0)
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def _prepare(problem, method, grid, theta, noise):
    """Validate a run's inputs and build, before any stream draw, its
    deviation table (a, d): the exact states u first, then, with (E, f)
    let go, (a, c) (see the module docstring)."""
    theta = _check_state(theta, problem.space.dimension)
    if noise is not None and noise.dimension != problem.space.dimension:
        raise ValueError(
            f"noise dimension {noise.dimension} does not match the problem "
            f"dimension {problem.space.dimension}"
        )
    exact = _path(flow_table(problem, grid.steps, grid.points[:-1]), theta)
    a, c = step_table(method, problem, grid.steps, grid.points[:-1])
    return a, a * exact[:-1] + c - exact[1:]


def _step(table, k: int, v: np.ndarray, xi=None) -> None:
    """Step v in place by v <- a[k] * v + b[k] (+ xi), with (a, b) = table.

    The one recursion of the module.  All operations are elementwise per
    row of v, so neither the rows stepped together nor the order in which
    grids take their steps changes a computed float.
    """
    a, b = table
    np.multiply(a[k], v, out=v)
    v += b[k]
    if xi is not None:
        v += xi


def _path(table, v0: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
    """v_0..v_N of `_step` from v0, shape (N + 1, J), with per-step noise
    of shape (N, J) or None."""
    out = np.empty((table[0].shape[0] + 1, v0.shape[0]))
    out[0] = v0
    for k in range(table[0].shape[0]):
        out[k + 1] = out[k]
        _step(table, k, out[k + 1], None if noise is None else noise[k])
    return out


def _run_group(study: tuple, task: tuple) -> None:
    """Trajectories task = (index, rows) on every grid, from one unit draw
    per raw step that each grid with that step scales; study as
    `_ensembles` builds it.  Each grid writes its norms |r_k|_H into its
    block of the next steps, which its sink keeps once full or at the
    grid's last step."""
    noise, master_seed, tables, scales, sinks = study
    streams = [trajectory_stream(master_seed, i) for i in task[1]]
    n = max(table[0].shape[0] for table in tables)
    # the grids' blocks hold min(n, side) steps of norms in all, not the
    # chunk's S: a keep costs about as much for 5 steps as for 22
    depth = max(1, min(n, _side(noise)) // len(tables))
    grids = [(table, scale, np.zeros((len(streams), noise.dimension)),
              np.empty((min(depth, table[0].shape[0]), len(streams))), sink)
             for table, scale, sink in zip(tables, scales, sinks)]
    # xi_k until the step has added it, then the squares of the norm
    work = np.empty((len(streams), noise.dimension))
    for k, unit in enumerate(_family_noise(noise, streams, n)):
        i = k % depth
        for table, scale, v, block, (keep, out) in grids:
            if k < table[0].shape[0]:
                _step(table, k, v, _noise(noise, unit, scale, k, work))
                _h_norm(v, block[i], work)
                if i + 1 == len(block) or k + 1 == table[0].shape[0]:
                    keep(out, task, k - i, block[:i + 1])


def _keep_norms(norms: np.ndarray, task: tuple, start: int, block: np.ndarray) -> None:
    """Copy a block's step norms, shape (s, B), of steps start + 1.., into
    the group's rows of the grid's (M, N + 1) norms."""
    rows = task[1]
    norms[rows.start:rows.stop, start + 1:start + 1 + len(block)] = block.T


def _keep_reduced(sink: tuple, task: tuple, start: int, block: np.ndarray) -> None:
    """Fold a block's step norms, shape (s, B), of steps start + 1.., into
    the group's rows of the per-trajectory maxima and the task's row of
    per-step partials: each step's largest norm s_g and, per order R,
    sum_i (x_i / s_g)^R, which cannot overflow.  Overwrites block."""
    maxima, tops, sums, orders = sink
    index, rows = task
    steps = slice(start + 1, start + 1 + len(block))
    mine = maxima[rows.start:rows.stop]
    np.maximum(mine, block.max(axis=0), out=mine)
    top = np.max(block, axis=1, out=tops[index, steps])
    # a non-finite norm gives NaN partials; the maxima carry it to the check
    with np.errstate(invalid="ignore"):
        block /= np.where(top > 0.0, top, 1.0)[:, None]
        for r, out in zip(orders, sums):
            np.add.reduce(np.power(block, r), axis=1, out=out[index, steps])


def _ensembles(noise, grids, tables, m, master_seed, workers, orders=None, first=None) -> tuple:
    """The ensembles of M trajectories on each grid from its deviation
    table, in one pass of tasks, each one group of B (`_chunk_shape`) on
    all grids, run in min(workers, tasks) forked workers, one included
    (`_fork_tasks`): an Ensemble of each grid's norms, or, given the L^R
    orders, a ReducedEnsemble; see the memory model.  Also the float that
    the job first returns, worker 0's first job, or None."""
    _check_integer(master_seed, "master seed", 0)
    _check_integer(workers, "worker count", 1)
    rows = _chunk_shape(noise, max(grid.num_steps for grid in grids), m)[0]
    tasks = list(enumerate(range(i, min(i + rows, m)) for i in range(0, m, rows)))
    if orders is None:
        sinks = [(_keep_norms, _shared_zeros((m, grid.num_steps + 1))) for grid in grids]
    else:
        sinks = [(_keep_reduced, (_shared_zeros((m,)),
                                  _shared_zeros((len(tasks), grid.num_steps + 1)),
                                  _shared_zeros((len(orders), len(tasks), grid.num_steps + 1)),
                                  orders))
                 for grid in grids]
    job = () if first is None else (first, _shared_zeros((1,)))
    scales = [_step_scales(noise, grid.steps) for grid in grids]
    study = (noise, master_seed, tables, scales, sinks)
    _fork_tasks(study, tasks, min(workers, len(tasks)), job)
    value = None if first is None else float(job[1][0])
    if orders is None:
        return [Ensemble(grid, out) for grid, (_, out) in zip(grids, sinks)], value
    return [ReducedEnsemble(grid, maxima, tops, dict(zip(orders, sums)))
            for grid, (_, (maxima, tops, sums, _)) in zip(grids, sinks)], value


def _run_tasks(study: tuple, tasks: list, first=None, slot=None) -> None:
    """A worker's body: slot[0] = first(), given a job, then `_run_group` of each task."""
    if first is not None:
        slot[0] = first()
    for task in tasks:
        _run_group(study, task)


def _fork_tasks(study: tuple, tasks: list, count: int, job: tuple = ()) -> None:
    """Run the tasks in count forked workers, one included, worker w
    taking tasks w, w + count, ...; they inherit the study, sinks
    included, and write into its shared mappings.  Worker 0 first runs
    the job (first, slot), if given, writing first() into the shared
    slot.  Waits for the workers as they finish, each by its pid, so no
    other child of the caller's is reaped; at the first that has failed
    it kills the rest, so a pass stops at its first failure, whichever
    worker fails, and raises that worker's message, which it sends back
    over a pipe."""
    import selectors
    from signal import SIGKILL

    children = []
    try:
        for w in range(count):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: os._exit, so it never runs the parent's code
                status = 1
                try:
                    _run_tasks(study, tasks[w::count], *(job if w == 0 else ()))
                    status = 0
                except BaseException as exc:  # noqa: BLE001 - its message goes to the parent
                    os.write(write, str(exc).encode(errors="replace"))
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
    finally:
        failure = None
        with selectors.DefaultSelector() as waiting:
            for pid, pipe in children:
                waiting.register(pipe, selectors.EVENT_READ, pid)
            # a worker writes to its pipe only as it exits, so a ready
            # pipe reads to its end at once
            while waiting.get_map():
                for key, _ in waiting.select():
                    waiting.unregister(key.fileobj)
                    with key.fileobj as pipe:
                        message = pipe.read().decode(errors="replace")
                    code = os.waitstatus_to_exitcode(os.waitpid(key.data, 0)[1])
                    if code and failure is None:
                        failure = message or f"ensemble worker exited with code {code}"
                        for other in waiting.get_map().values():
                            os.kill(other.data, SIGKILL)
    if failure is not None:
        raise RuntimeError(failure)


def _shared_zeros(shape) -> np.ndarray:
    """A float array of zeros in an anonymous shared mapping, made before
    the workers fork, so that they write into it."""
    import mmap

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def run_ensemble(
    problem: Problem,
    method: MethodConfig,
    noise: NoiseModel,
    grid: TimeGrid,
    theta: np.ndarray,
    m: int,
    master_seed: int,
    workers: int = 1,
) -> Ensemble:
    """M independent randomised trajectories, U_0 = theta, with per-trajectory substreams.

    Only the (M, N + 1) error norms are stored.  Row i is bitwise the
    norms of trajectory i run alone from trajectory_stream(master_seed, i)
    (see the module docstring).  noise must not be None.
    """
    if noise is None:
        raise ValueError("a randomised run needs a noise model, got None")
    _check_integer(m, "ensemble size", 1)
    table = _prepare(problem, method, grid, theta, noise)
    # here, not in each forked worker, so a caller that runs many studies
    # imports numpy.random once; `_converge`'s CLI process never does
    import numpy.random  # noqa: F401
    return _ensembles(noise, [grid], [table], m, master_seed, workers)[0][0]


def measure_truncation_constant(
    problem: Problem,
    method: MethodConfig,
    grid: TimeGrid,
    theta: np.ndarray,
    order: float | None = None,
) -> float:
    """Largest one-step defect ratio |phi - psi|_H / h^(q+1) along the
    exact solution states, an empirical stand-in for the truncation
    constant of the method on this problem; order defaults to the
    method's."""
    if order is not None and not 0.0 <= order < math.inf:
        raise ValueError(f"order must be finite and >= 0, got {order}")
    q = method.order if order is None else order
    _, defects = _prepare(problem, method, grid, theta, None)
    return _truncation_constant(defects, grid.steps, q)


def _truncation_constant(defects: np.ndarray, steps: np.ndarray, q: float) -> float:
    norms = _h_norm(defects)
    hit = norms > 0.0
    return float(np.max(norms[hit] / steps[hit] ** (q + 1.0), initial=0.0))


def _lipschitz_constant(factors: np.ndarray, steps: np.ndarray) -> float:
    """Smallest L >= 0 with |factors[k, j]| <= 1 + L steps[k] for every
    step k and mode j: the per-step growth of an affine table."""
    return float(np.max((np.abs(factors) - 1.0) / steps[:, None], initial=0.0))


def _converge(problem, method, noise, grids, theta, m, master_seed, workers, orders,
              amplitude=None):
    """Each grid's truncation constant, as measure_truncation_constant
    gives it, its method Lipschitz constant, and its run, from one build
    of each grid's tables: the ReducedEnsemble of the run_ensemble
    trajectories for the L^R orders, or, when noise is None, the
    noise-free deviation path r, shape (N + 1, J), whose errors are -r.
    Last, the float of the job amplitude, or None without one or without
    noise: after every table, the pass's first job (`_ensembles`)."""
    constants, lipschitz, tables, runs, value = [], [], [], [], None
    for grid in grids:
        table = _prepare(problem, method, grid, theta, noise)
        factors, defects = table
        constants.append(_truncation_constant(defects, grid.steps, method.order))
        lipschitz.append(_lipschitz_constant(factors, grid.steps))
        if noise is None:
            runs.append(_path(table, np.zeros(problem.space.dimension)))
        else:
            tables.append(table)
    if noise is not None:
        runs, value = _ensembles(noise, grids, tables, m, master_seed, workers, orders,
                                 amplitude)
    return constants, lipschitz, runs, value
