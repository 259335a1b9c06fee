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
per trajectory and step.  run_ensemble therefore walks its trajectories
in blocks of at most BLOCK_BYTES of (N + 1, J) float64 rows.  A block
draws its noise, propagates its deviations, frees the noise, squares
the deviations in place and sums them to (B, N + 1) norms; it is freed
before the next block is drawn.  An ensemble thus holds O(M N) floats,
and pool workers send back only norms, copied in index order into one
preallocated (M, N + 1) array.  The blocking changes no computed float.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid
from .integrators import MethodConfig, step_table
from .problems import Problem, flow_table
from .randomisation import NoiseModel, noise_path
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
    master_seed: int
    fingerprint: str

    def __post_init__(self):
        self.norms.flags.writeable = False

    @property
    def size(self) -> int:
        return self.norms.shape[0]

    def error_h_norms(self) -> np.ndarray:
        """Per-trajectory, per-step |e_k|_H, shape (M, N + 1), read-only."""
        return self.norms

    def summary_dict(self, include_step_norms: bool = False) -> dict:
        """JSON-serialisable summary: per-trajectory max error, optionally
        the full per-step error norms."""
        norms = self.error_h_norms()
        out = {
            "size": int(self.size),
            "master_seed": int(self.master_seed),
            "fingerprint": self.fingerprint,
            "mesh": self.grid.mesh,
            "max_errors": [float(v) for v in norms.max(axis=1)],
        }
        if include_step_norms:
            out["step_error_norms"] = [[float(v) for v in row] for row in norms]
        return out


def exact_states(problem: Problem, grid: TimeGrid, theta: np.ndarray) -> np.ndarray:
    """u(t_k) along the grid from the exact-flow table, shape (N + 1, J)."""
    theta = _check_state(problem, theta)
    flow = flow_table(problem, grid.steps, grid.points[:-1])
    return _advance_block(flow, theta[None, :], None)[0]


def trajectory_stream(master_seed: int, index: int) -> np.random.Generator:
    """Child stream for one trajectory, independent of worker placement."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


# Byte budget of one trajectory block's (B, N + 1, J) float64 rows.  A
# streamed block holds at most two arrays of this size at once, whatever M
# is.  Smaller blocks cost more per-step Python calls; the block size
# changes no computed float.
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
    exact = _advance_block(flow, theta[None, :], None)[0]
    return theta, (a, a * exact[:-1] + c - exact[1:]), exact, flow[0]


def _h_norms(errors: np.ndarray) -> np.ndarray:
    """|e|_H along the last (mode) axis."""
    return np.sqrt(np.sum(errors * errors, axis=-1))


def _advance_block(table, v0: np.ndarray, noise_block: np.ndarray | None) -> np.ndarray:
    """Run v_(k+1) = a[k] * v_k + b[k] (+ noise_block[:, k]) for a block of
    starts v0, shape (B, J), with (a, b) = table; returns shape
    (B, N + 1, J).

    All operations are elementwise per trajectory, so splitting a block
    changes nothing in the computed floats.
    """
    a, b = table
    n = a.shape[0]
    out = np.empty((v0.shape[0], n + 1, v0.shape[1]))
    out[:, 0] = v0
    for k in range(n):
        v = out[:, k + 1]
        np.multiply(a[k], out[:, k], out=v)
        v += b[k]
        if noise_block is not None:
            v += noise_block[:, k]
    return out


def _trajectory(prepared, grid: TimeGrid, init=None, path=None,
                record_defects: bool = False) -> Trajectory:
    """One trajectory from a run's `_prepare` build, its initial
    perturbation and noise path (None for none): states u + r, errors -r
    and, if recorded, the path defects |(E - a) r - d|_H."""
    _, table, exact, flow_factors = prepared
    r0 = np.zeros(exact.shape[1]) if init is None else init
    r = _advance_block(table, r0[None, :], None if path is None else path[None])[0]
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


def _run_block(table, noise, grid, block, master_seed, perturb_initial):
    """Error norms |r_k|_H of the trajectories in block, shape (B, N + 1);
    the block's noise and deviations are freed on return."""
    j = table[0].shape[1]
    paths = np.empty((len(block), grid.num_steps, j))
    r0 = np.zeros((len(block), j))
    for row, i in enumerate(block):
        init, paths[row] = _draw_noise(noise, trajectory_stream(master_seed, i), grid,
                                       perturb_initial)
        if init is not None:
            r0[row] = init
    r = _advance_block(table, r0, paths)
    del paths  # the norm pass needs only the deviations
    return np.sqrt(np.sum(np.square(r, out=r), axis=-1))


def _run_chunk(args):
    """One worker's trajectories in blocks of at most BLOCK_BYTES of
    deviations, each reduced to its norms as soon as it finishes."""
    table, noise, grid, indices, master_seed, perturb_initial = args
    row_bytes = (grid.num_steps + 1) * table[0].shape[1] * 8
    rows = max(1, BLOCK_BYTES // row_bytes)
    return _gather(
        (
            _run_block(table, noise, grid, indices[start:start + rows], master_seed,
                       perturb_initial)
            for start in range(0, len(indices), rows)
        ),
        len(indices),
    )


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


def _fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()


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
    fingerprint: str | None = None,
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
    theta, table, _, _ = _prepare(problem, method, grid, theta, noise)
    if fingerprint is None:
        fingerprint = _fingerprint(problem, method, noise, grid.points, theta, m, master_seed)
    return _ensemble(table, noise, grid, m, master_seed, workers, perturb_initial, fingerprint)


def _ensemble(table, noise, grid, m, master_seed, workers, perturb_initial,
              fingerprint) -> Ensemble:
    """The ensemble on a run's deviation table; workers' norms are
    gathered in index order."""
    chunks = [idx for idx in np.array_split(np.arange(m), min(workers, m)) if idx.size]
    jobs = [(table, noise, grid, idx, master_seed, perturb_initial) for idx in chunks]
    if workers == 1 or len(jobs) == 1:
        norms = _gather(map(_run_chunk, jobs), m)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            norms = _gather(pool.map(_run_chunk, jobs), m)
    return Ensemble(grid, norms, master_seed, fingerprint)


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


def _converge_grid(problem, method, noise, grid, theta, m, master_seed, workers, fingerprint):
    """One grid of a convergence study from a single build of its tables:
    the truncation constant of measure_truncation_constant, and the
    ensemble of run_ensemble (the trajectory of run_deterministic when
    noise is None)."""
    prepared = _prepare(problem, method, grid, theta, noise)
    table = prepared[1]
    constant = _truncation_constant(table[1], grid.steps, method.order)
    if noise is None:
        return constant, _trajectory(prepared, grid)
    return constant, _ensemble(table, noise, grid, m, master_seed, workers, False, fingerprint)
