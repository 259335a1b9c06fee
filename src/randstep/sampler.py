"""Deterministic and randomised one-step recursions and Monte Carlo ensembles.

The randomised recursion perturbs each step of the underlying method:

    U_(k+1) = psi(h_k, t_k, U_k) + xi_k(h_k),        U_0 = theta,

and the error sequence is measured against the exact flow,

    e_k = u(t_k) - U_k,
    e_(k+1) = phi(h_k, t_k, u(t_k)) - psi(h_k, t_k, U_k) - xi_k(h_k).

On these linear mode-diagonal problems both maps are per-mode affine:
psi(h_k, t_k, v) = a_k * v + c_k and phi(h_k, t_k, v) = E_k * v + f_k.  A
run builds the tables (a, c) = integrators.step_table and
(E, f) = problems.flow_table once, shape (N, J) each, and validates its
grid there.  The exact states u(t_k), shared by every trajectory, follow
u_(k+1) = E_k u_k + f_k; each block of trajectories runs
U_(k+1) = a_k U_k + c_k + xi_k; the one-step defects along a path are
|(E_k - a_k) U_k + f_k - c_k|_H.

Ensembles derive one child stream per trajectory from
(master_seed, trajectory_index), so results are bit-identical for any
worker count; trajectories are reduced in index order.

Memory model: the strong-error statistics need only |e_k|_H per
trajectory and step.  run_ensemble therefore walks its trajectories in
blocks of at most BLOCK_BYTES of (N + 1, J) float64 rows, reduces each
block to its (B, N + 1) error norms as soon as it finishes and drops the
block, so an ensemble holds O(M N) floats and pool workers send back only
norms (and defects, when recorded).  The blocking changes no computed
float.  The full (M, N + 1, J) states, errors and noise are stored only
with run_ensemble(..., keep=True).
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
    """M trajectories, leading axis = trajectory.

    norms holds the per-trajectory, per-step |e_k|_H, shape (M, N + 1),
    read-only.  states, errors and noise, shape (M, N + 1, J) (noise
    (M, N, J)), are None unless run_ensemble was called with keep=True;
    defects, shape (M, N), is stored whenever defects were recorded.
    """

    grid: TimeGrid
    norms: np.ndarray
    master_seed: int
    fingerprint: str
    states: np.ndarray | None = None
    errors: np.ndarray | None = None
    noise: np.ndarray | None = None
    defects: np.ndarray | None = None

    def __post_init__(self):
        self.norms.flags.writeable = False

    @property
    def size(self) -> int:
        return self.norms.shape[0]

    def trajectory(self, i: int) -> Trajectory:
        if self.states is None:
            raise ValueError(
                "trajectory arrays were not kept: call run_ensemble(..., keep=True)"
            )
        return Trajectory(
            self.grid,
            self.states[i],
            self.errors[i],
            None if self.noise is None else self.noise[i],
            None if self.defects is None else self.defects[i],
        )

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
    return _advance_block(flow, None, theta[None, :], None)[0][0]


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


def _prepare(problem, method, grid, theta, noise, record_defects):
    """Validate a run's inputs and build its tables before any stream draw:
    theta as floats, the method's (a, c), the defect table (E - a, f - c)
    if defects are recorded (else None), and the exact states."""
    theta = _check_state(problem, theta)
    if noise is not None and noise.dimension != problem.space.dimension:
        raise ValueError(
            f"noise dimension {noise.dimension} does not match the problem "
            f"dimension {problem.space.dimension}"
        )
    table = step_table(method, problem, grid.steps, grid.points[:-1])
    flow = flow_table(problem, grid.steps, grid.points[:-1])
    gap = (flow[0] - table[0], flow[1] - table[1]) if record_defects else None
    exact = _advance_block(flow, None, theta[None, :], None)[0][0]
    return theta, table, gap, exact


def _h_norms(errors: np.ndarray) -> np.ndarray:
    """|e|_H along the last (mode) axis."""
    return np.sqrt(np.sum(errors * errors, axis=-1))


def _advance_block(table, gap, u0: np.ndarray, noise_block: np.ndarray | None):
    """Run u_(k+1) = a[k] * u_k + c[k] (+ noise_block[:, k]) for a block of
    states u0, shape (B, J), with (a, c) = table; with a defect table gap,
    also the per-step defects |gap[0][k] * u_k + gap[1][k]|_H, shape (B, N).

    All operations are elementwise per trajectory (plus mode-axis norms),
    so splitting a block changes nothing in the computed floats.
    """
    a, c = table
    n = a.shape[0]
    states = np.empty((u0.shape[0], n + 1, u0.shape[1]))
    states[:, 0] = u0
    defects = None if gap is None else np.empty((u0.shape[0], n))
    for k in range(n):
        u, v = states[:, k], states[:, k + 1]
        if gap is not None:
            defects[:, k] = _h_norms(gap[0][k] * u + gap[1][k])
        np.multiply(a[k], u, out=v)
        v += c[k]
        if noise_block is not None:
            v += noise_block[:, k]
    return states, defects


def run_deterministic(
    problem: Problem,
    method: MethodConfig,
    grid: TimeGrid,
    theta: np.ndarray,
    record_defects: bool = False,
) -> Trajectory:
    """Noise-free recursion u_(k+1) = psi(h_k, t_k, u_k)."""
    theta, table, gap, exact = _prepare(problem, method, grid, theta, None, record_defects)
    states, defects = _advance_block(table, gap, theta[None, :], None)
    return Trajectory(
        grid, states[0], exact - states[0], None, None if defects is None else defects[0]
    )


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
    theta, table, gap, exact = _prepare(problem, method, grid, theta, noise, record_defects)
    init, path = _draw_noise(noise, stream, grid, perturb_initial)
    u0 = theta if init is None else theta + init
    states, defects = _advance_block(table, gap, u0[None, :], path[None, :, :])
    return Trajectory(
        grid, states[0], exact - states[0], path, None if defects is None else defects[0]
    )


def _run_block(table, gap, noise, grid, theta, exact, block, master_seed,
               perturb_initial, keep):
    """Error norms and defects of the trajectories in block; with keep, also
    their states, errors and noise.  Without keep the block's arrays are
    freed on return."""
    paths = np.empty((len(block), grid.num_steps, theta.size))
    u0 = np.empty((len(block), theta.size))
    for row, i in enumerate(block):
        stream = trajectory_stream(master_seed, i)
        init, paths[row] = _draw_noise(noise, stream, grid, perturb_initial)
        u0[row] = theta if init is None else theta + init
    states, defects = _advance_block(table, gap, u0, paths)
    if keep:
        errors = exact - states
        return _h_norms(errors), defects, states, errors, paths
    del paths  # the norm pass needs only the states
    return _h_norms(np.subtract(exact, states, out=states)), defects


def _run_chunk(args):
    """One worker's trajectories in blocks of at most BLOCK_BYTES of states,
    each reduced as soon as it finishes; with keep, a single block."""
    (table, gap, noise, grid, theta, exact, indices, master_seed,
     perturb_initial, keep) = args
    row_bytes = (grid.num_steps + 1) * theta.size * 8
    rows = len(indices) if keep else max(1, BLOCK_BYTES // row_bytes)
    return _stack(
        _run_block(table, gap, noise, grid, theta, exact, indices[start:start + rows],
                   master_seed, perturb_initial, keep)
        for start in range(0, len(indices), rows)
    )


def _stack(results):
    """Concatenate per-block result tuples field by field, in index order."""
    return [None if parts[0] is None else np.concatenate(parts) for parts in zip(*results)]


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
    record_defects: bool = False,
    perturb_initial: bool = False,
    fingerprint: str | None = None,
    keep: bool = False,
) -> Ensemble:
    """M independent randomised trajectories with per-trajectory substreams.

    Only the (M, N + 1) error norms (and the defects, if recorded) are
    stored; keep=True also stores the full states, errors and noise.
    """
    if m < 1:
        raise ValueError(f"ensemble size must be >= 1, got {m}")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    theta, table, gap, exact = _prepare(problem, method, grid, theta, noise, record_defects)
    chunks = [idx for idx in np.array_split(np.arange(m), min(workers, m)) if idx.size]
    jobs = [
        (table, gap, noise, grid, theta, exact, idx, master_seed, perturb_initial, keep)
        for idx in chunks
    ]
    if workers == 1 or len(jobs) == 1:
        results = [_run_chunk(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, jobs))
    norms, defects, *kept = _stack(results)
    if fingerprint is None:
        fingerprint = _fingerprint(problem, method, noise, grid.points, theta, m, master_seed)
    return Ensemble(grid, norms, master_seed, fingerprint, *kept, defects=defects)


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
    _, _, gap, exact = _prepare(problem, method, grid, theta, None, True)
    defects = _h_norms(gap[0] * exact[:-1] + gap[1])
    hit = defects > 0.0
    return float(np.max(defects[hit] / grid.steps[hit] ** (q + 1.0), initial=0.0))
