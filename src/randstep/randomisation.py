"""Per-step perturbation processes xi_k(h) for randomised time stepping.

The construction is a truncated Karhunen-Loeve draw scaled so the decay
exponent is exact rather than an upper bound:

    xi(h) = c_xi * h^(p + 1/2) * W(h),
    W(h)  = sqrt(h) * sum_j sqrt(gamma_j) Z_j e_j,

with per-mode variances gamma_j proportional to j^(-2s) and normalised
to sum to one, so E|xi(h)|_H^2 = c_xi^2 h^(2p+2) holds exactly for the
centred Gaussian kind.  Variants add a deterministic bias on one mode,
correlate all steps of a trajectory through a shared Gaussian factor, or
draw from a bounded (uniform-on-ball) law; all of them keep the
h^(p+1) decay of the noise amplitude.

Every kind's law is one split, xi_k(h_k) = U_k scale_k (+ offset_k on
the biased kind's mode).  The unit draw U_k (`_unit`) takes no step
size.  From the step's raw normals Y_k it is Y_k (J normals);
sqrt(1 - rho^2) Y_k + rho F, with the shared factor F drawn first; or,
for the bounded kind, Y_k[:J] / |Y_k| from J + 2 normals, uniform in the
unit J-ball (Voelker, Gosmann and Stewart, 2017), so no radius is drawn.
`_step_scales` gives scale_k = c_xi h_k^(p+1) sqrt(gamma), times sqrt(3)
for the bounded kind, and offset_k = h_k^(p+1) b.  So a stream's draws
for a grid are a prefix of its draws for any longer grid, and a family
of grids shapes each raw step once.

One stream's draws (`noise_path`, `psi2_amplitude`, noise-check) are
read by `_row_blocks`, whose row buffers held at once (two, or three
for the shared-factor and bounded kinds) share a quarter of BLOCK_BYTES;
an ensemble's by `_family_noise`, in chunks of at most a quarter of
BLOCK_BYTES of raw normals.

The exponent p = -1/2 (diffusion-like scaling) is accepted for
demonstration only; no convergence statement attaches to it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analysis
from .spaces import _check_integer, _h_norm

__all__ = [
    "NoiseModel",
    "centred_gaussian",
    "noise_path",
    "theoretical_noise_norm",
    "psi2_amplitude",
]

CENTRED_GAUSSIAN = "centred_gaussian"
BIASED = "biased"
SHARED_FACTOR = "shared_factor"
BOUNDED_UNIFORM = "bounded_uniform"
_KINDS = (CENTRED_GAUSSIAN, BIASED, SHARED_FACTOR, BOUNDED_UNIFORM)

_PSI2_SAMPLES = 100_000
_PSI2_SEED = 20_220_457  # fixed internal stream for the cached Orlicz estimate

# Byte budget of a draw's working set, the one memory rule for draws.  A
# `_row_blocks` reader (noise_path, psi2_amplitude, noise-check) holds,
# per block of rows, its raw normals, a reducer's scratch (`_draw_norms`)
# and, for the shared-factor and bounded kinds, their factors or squares,
# and sizes its rows so that these buffers fit in a quarter of it
# together.  So does an ensemble's (B, S, W) chunk of raw normals,
# W = `_step_normals`: B is at most `_side`, about sqrt(BLOCK_BYTES /
# (8 W)), which also caps the B generators a group holds, and S, at
# most N, fills a quarter of BLOCK_BYTES with B rows.
# The pass's norm blocks hold at most `_side` B norms, BLOCK_BYTES / W
# bytes, so with W >= 4 its chunk, (B, J) scratch and norm blocks fit in
# it together.  `problems.flow_table` takes its forcing response in blocks of
# whole steps of at most BLOCK_BYTES / 256 flat entries.  A `run_ensemble`
# pass holds its (M, N + 1) norms beside these, hence the small budget.
# No block shape changes a drawn value or a norm; B groups the per-step
# partials a study's pass sums (see sampler's memory model).
BLOCK_BYTES = 4 * 2**20


@lru_cache(maxsize=64)
def _spectrum(dimension: int, s: float) -> np.ndarray:
    j = np.arange(1, dimension + 1, dtype=float)
    gamma = j ** (-2.0 * s)
    gamma /= gamma.sum()
    gamma.setflags(write=False)
    return gamma


@dataclass(frozen=True)
class NoiseModel:
    """Specification of the perturbation law; hashable and immutable.

    c_xi = 0 is admitted as the degenerate (noise-free) model.
    """

    dimension: int
    p: float = 1.0
    c_xi: float = 1.0
    s: float = 1.0
    kind: str = CENTRED_GAUSSIAN
    bias_mode: int = 0
    bias_coefficient: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        _check_integer(self.dimension, "dimension")
        _check_integer(self.bias_mode, "bias_mode")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("p", "c_xi", "s", "bias_coefficient", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p < 0.0 and self.p != -0.5:
            raise ValueError("decay order p must be >= 0 (p = -1/2 demonstration mode aside)")
        if self.c_xi < 0.0:
            raise ValueError("amplitude c_xi must be >= 0")
        if self.s <= 0.5:
            raise ValueError("spectral decay s must exceed 1/2")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == BIASED and not (0 <= self.bias_mode < self.dimension):
            raise ValueError(f"bias mode {self.bias_mode} outside 0..{self.dimension - 1}")
        if self.kind == SHARED_FACTOR and not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"shared-factor weight must lie in [0, 1], got {self.rho}")

    @property
    def spectrum(self) -> np.ndarray:
        return _spectrum(self.dimension, self.s)


def centred_gaussian(dimension: int, p: float = 1.0, c_xi: float = 1.0, s: float = 1.0) -> NoiseModel:
    return NoiseModel(dimension, p, c_xi, s)


def _row_blocks(model: NoiseModel, stream: np.random.Generator, steps, m: int):
    """Yield (start, xi): the draws xi_k(h_k) of rows start.. of m, shape
    (count, N, J), in blocks of as many rows (at least one) as keep the
    row buffers alive at once within a quarter of BLOCK_BYTES: the raw
    normals, a reducer's scratch and, for the shared-factor and bounded
    kinds, their factors or squares, each counted at N W floats a row.
    The one reader of one stream: the shared-factor kind's m factors
    first (read in these blocks from a copy of the stream, which skips
    them by discarding them), then `_step_normals` normals per step, row
    by row.  xi views a reused buffer: use it before the next block."""
    steps = np.asarray(steps, dtype=float)
    if steps.ndim != 1:
        raise ValueError(f"steps must be a 1-d array, got shape {steps.shape}")
    bad = np.flatnonzero(~((steps > 0.0) & (steps < math.inf)))
    if bad.size:
        raise ValueError(f"step {bad[0]} has size {steps.flat[bad[0]]}, expected positive and finite")
    if m < 1:
        raise ValueError(f"need at least one trajectory, got m = {m}")
    buffers = 3 if model.kind in (SHARED_FACTOR, BOUNDED_UNIFORM) else 2
    row = 8 * max(1, steps.size) * _step_normals(model)
    size = min(m, max(1, (BLOCK_BYTES // (4 * buffers)) // row))
    buf, factors, shared = np.empty((size, steps.size, _step_normals(model))), None, None
    if model.kind == SHARED_FACTOR:
        factors, shared = copy.deepcopy(stream), np.empty((size, model.dimension))
        for start in range(0, m, size):
            stream.standard_normal(out=shared[:min(size, m - start)])
    scales = _step_scales(model, steps)
    for start in range(0, m, size):
        normals, term = stream.standard_normal(out=buf[:min(size, m - start)]), None
        if factors is not None:
            term = factors.standard_normal(out=shared[:len(normals)])
            term *= model.rho
        for k in range(steps.size):
            xi = normals[:, k, :model.dimension]
            _noise(model, _unit(model, normals[:, k], term, xi), scales, k, xi)
        yield start, normals[..., :model.dimension]


def _step_normals(model: NoiseModel) -> int:
    """Standard normals drawn per step: J + 2 for the bounded kind, else J."""
    return model.dimension + 2 if model.kind == BOUNDED_UNIFORM else model.dimension


def _chunk_shape(model: NoiseModel, n: int, rows: int) -> tuple[int, int]:
    """(B, S): trajectories per group and steps per chunk of a pass over
    rows trajectories and n steps, from BLOCK_BYTES alone; see its comment.
    B = min(rows, `_side`) fixes the task split, and
    S = min(n, max(1, (BLOCK_BYTES / 4) / (8 B W))) keeps the (B, S, W)
    chunk within a quarter of BLOCK_BYTES (or one step)."""
    size = min(rows, _side(model))
    return size, min(n, max(1, (BLOCK_BYTES // 4) // (8 * size * _step_normals(model))))


def _side(model: NoiseModel) -> int:
    """max(1, isqrt(BLOCK_BYTES / (8 W))): the most trajectories a group
    takes, and the steps of norms a pass's blocks hold in all."""
    return max(1, math.isqrt(BLOCK_BYTES // (8 * _step_normals(model))))


def _unit(model: NoiseModel, normals: np.ndarray, shared, out) -> np.ndarray:
    """The unit draw U_k, shape (B, J), from the step's raw normals, shape
    (B, `_step_normals`), into out (the centred and biased kinds return
    the normals); shared = rho F is the shared-factor kind's term."""
    if model.kind == SHARED_FACTOR:
        out = np.multiply(normals, math.sqrt(1.0 - model.rho**2), out=out)
        return np.add(out, shared, out=out)
    if model.kind == BOUNDED_UNIFORM:
        return np.divide(normals[:, :model.dimension], _h_norm(normals)[:, None], out=out)
    return normals


def _step_scales(model: NoiseModel, steps: np.ndarray) -> tuple:
    """The scales, shape (N, J), and offsets, shape (N,), of the steps."""
    scale = model.c_xi * steps[:, None] ** (model.p + 1.0) * np.sqrt(model.spectrum)
    if model.kind == BOUNDED_UNIFORM:
        scale *= math.sqrt(3.0)
    return scale, steps ** (model.p + 1.0) * model.bias_coefficient


def _noise(model: NoiseModel, unit: np.ndarray, scales: tuple, k: int, out) -> np.ndarray:
    """xi_k, shape (B, J), into out, from U_k and the `_step_scales` tables."""
    scale, offset = scales
    xi = np.multiply(unit, scale[k], out=out)
    if model.kind == BIASED:
        xi[:, model.bias_mode] += offset[k]
    return xi


def _family_noise(model: NoiseModel, streams: list, n: int):
    """Yield the unit draws U_k, shape (B, J), of n raw steps, one row per
    stream, each consumed as noise_path(model, stream, steps) consumes it
    for any n steps: the shared factor, then the normals, drawn S steps
    at a time (`_chunk_shape`) into one reused (B, S, `_step_normals`)
    chunk.  A unit is a view of it or of one (B, J) scratch: use it first.
    """
    size = _chunk_shape(model, n, len(streams))[1]
    shared = (model.rho * np.array([stream.standard_normal(model.dimension) for stream in streams])
              if model.kind == SHARED_FACTOR else None)
    buf = np.empty((len(streams), size, _step_normals(model)))
    scratch = np.empty((len(streams), model.dimension))
    for start in range(0, n, size):
        chunk = buf[:, :min(size, n - start)]
        for row, stream in enumerate(streams):
            stream.standard_normal(out=chunk[row])
        for k in range(chunk.shape[1]):
            yield _unit(model, chunk[:, k], shared, scratch)


def noise_path(model: NoiseModel, stream: np.random.Generator, steps: np.ndarray) -> np.ndarray:
    """All per-step draws xi_k(h_k) of one trajectory, shape (N, J): the
    one row block of `_row_blocks`, copied out of its buffer."""
    [(_, block)] = _row_blocks(model, stream, steps, 1)
    return block[0].copy()


def _l2_amplitude(model: NoiseModel) -> float:
    """Exact |xi(1)|_(L2(Omega;H)) by kind."""
    if model.kind == BIASED:
        return math.sqrt(model.c_xi**2 + model.bias_coefficient**2)
    if model.kind == BOUNDED_UNIFORM:
        return model.c_xi * math.sqrt(3.0 / (model.dimension + 2.0))
    return model.c_xi


def _draw_norms(model: NoiseModel, stream: np.random.Generator, h: float, m: int) -> np.ndarray:
    """|xi(h)|_H of m independent draws of xi(h) from the stream, shape
    (m,), reduced block by block (`_row_blocks`) through one reused
    scratch."""
    norms, work = np.empty(m), None
    for start, block in _row_blocks(model, stream, [h], m):
        xi = block[:, 0]
        work = np.empty(xi.shape) if work is None else work  # the first block is the largest
        _h_norm(xi, norms[start:start + len(xi)], work[:len(xi)])
    return norms


@lru_cache(maxsize=64)
def psi2_amplitude(model: NoiseModel) -> float:
    """Orlicz (exp(z^2) - 1) norm of |xi(1)|_H, estimated once and cached
    from the `_draw_norms` of _PSI2_SAMPLES draws of a fixed internal
    stream, so the cached value is reproducible."""
    if model.c_xi == 0.0 and model.kind != BIASED:
        return 0.0
    stream = np.random.default_rng(np.random.SeedSequence(_PSI2_SEED))
    return analysis.orlicz_norm_estimate(analysis._checked_samples(
        _draw_norms(model, stream, 1.0, _PSI2_SAMPLES), what="noise amplitude draws"), "psi2")


def theoretical_noise_norm(model: NoiseModel, h: float, norm_kind: str = "l2") -> float:
    """Model amplitude at step h: amplitude(1) * h^(p+1).

    norm_kind "l2" uses the exact second-moment amplitude of the kind;
    "psi2" uses the cached Orlicz estimate of |xi(1)|_H.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, got {h}")
    if norm_kind == "l2":
        base = _l2_amplitude(model)
    elif norm_kind == "psi2":
        base = psi2_amplitude(model)
    else:
        raise ValueError(f"unsupported norm kind {norm_kind!r}, expected 'l2' or 'psi2'")
    return base * h ** (model.p + 1.0)
