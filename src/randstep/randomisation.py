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

The exponent p = -1/2 (diffusion-like scaling) is accepted for
demonstration only; no convergence statement attaches to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NoiseModel",
    "centred_gaussian",
    "sample_noise_matrix",
    "sample_path_matrix",
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
# Byte budget of one row block of psi2_amplitude's draws.  The blocks
# consume the stream in the one-shot order, so the block size changes no
# computed float.
_PSI2_BLOCK_BYTES = 4 * 2**20


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


def sample_path_matrix(
    model: NoiseModel, stream: np.random.Generator, steps: np.ndarray, m: int
) -> np.ndarray:
    """m independent trajectories of per-step draws xi_k(h_k), shape (m, N, J).

    The sampler of one stream; `_family_noise` draws one trajectory per
    stream and consumes each as this does with m = 1.  Consumes the stream
    in a fixed order, lead normals first, then `_follow_draws` (for the
    shared-factor kind the m shared factors, then the per-step draws; for
    the bounded kind the directions, then the radii), so draws are
    reproducible given the stream state; the shared factor correlates the
    steps of each row.
    """
    steps = np.asarray(steps, dtype=float)
    if np.any(steps <= 0.0):
        raise ValueError(f"step sizes must be positive, got {steps}")
    if m < 1:
        raise ValueError(f"need at least one trajectory, got m = {m}")
    n = steps.size
    lead = stream.standard_normal((m, 1 if model.kind == SHARED_FACTOR else n, model.dimension))
    return _shape_noise(model, steps, lead, _follow_draws(model, stream, m, n))


def _follow_draws(model: NoiseModel, stream: np.random.Generator, m: int, n: int):
    """The draws that follow the lead normals in the stream: the per-step
    normals of the shared-factor kind (its lead normals are the shared
    factors), the radii of the bounded kind, else None."""
    if model.kind == SHARED_FACTOR:
        return stream.standard_normal((m, n, model.dimension))
    if model.kind == BOUNDED_UNIFORM:
        return stream.uniform(size=(m, n, 1))
    return None


def _shape_noise(model: NoiseModel, steps: np.ndarray, lead: np.ndarray, follow) -> np.ndarray:
    """Noise rows xi_k(h_k) of each kind's law from its raw (m, N, J)
    draws, shaped in place: the per-step normals (follow for the
    shared-factor kind, else lead) become the noise and are returned."""
    if model.kind == BOUNDED_UNIFORM:
        # one step at a time: the norms' temporaries are (m, J), not (m, N, J)
        for k in range(lead.shape[1]):
            step = lead[:, k]
            step /= np.linalg.norm(step, axis=1, keepdims=True)
        follow **= 1.0 / model.dimension
        follow *= math.sqrt(3.0) * (model.c_xi * steps[None, :, None] ** (model.p + 1.0))
        lead *= follow
        lead *= np.sqrt(model.spectrum)
        return lead
    if model.kind == SHARED_FACTOR:
        lead, follow = follow, lead[:, 0]
    for _ in _gaussian_steps(model, lead, steps, follow):
        pass
    return lead


def _gaussian_steps(model: NoiseModel, normals: np.ndarray, steps: np.ndarray,
                    factor=None, out=None):
    """Yield a Gaussian kind's noise xi_k(h_k), shape (B, J), for each
    step of steps from its raw (B, S, J) normals Z, shaped in place or
    into out: (sqrt(1 - rho^2) Z_k + rho factor) * scale_k for the
    shared-factor kind, else Z_k * scale_k (+ h_k^(p+1) b on the biased
    kind's mode), with scale_k = c_xi h_k^(p+1) sqrt(gamma)."""
    scale = model.c_xi * steps[:, None] ** (model.p + 1.0) * np.sqrt(model.spectrum)
    bias = steps ** (model.p + 1.0) * model.bias_coefficient
    shared = None if factor is None else model.rho * factor
    for k in range(steps.size):
        xi = normals[:, k] if out is None else out
        if model.kind == SHARED_FACTOR:
            np.multiply(normals[:, k], math.sqrt(1.0 - model.rho**2), out=xi)
            xi += shared
            xi *= scale[k]
        else:
            np.multiply(normals[:, k], scale[k], out=xi)
            if model.kind == BIASED:
                xi[:, model.bias_mode] += bias[k]
        yield xi


def _family_noise(model: NoiseModel, streams: list, grid_steps: list, size: int):
    """Yield (start, noises) for each chunk of S <= size steps of the
    longest grid: noises[g] iterates grid g's noise, shape (B, J), for its
    steps from start inside the chunk.  Each stream is consumed as
    noise_path(model, stream, grid_steps[g]) consumes it, for every g:
    the shared factor, then the normals, drawn by chunks into one reused
    (B, S, J) buffer whose prefixes serve every grid.  A Gaussian kind's
    steps are shaped from it into one (B, J) scratch, so use each step
    before taking the next.  The bounded kind's radii follow all of its
    normals: it takes one grid, size >= N, and shapes its chunk in place.
    """
    rows, n = len(streams), max(steps.size for steps in grid_steps)
    factor = None
    if model.kind == SHARED_FACTOR:
        factor = np.empty((rows, model.dimension))
        for row, stream in enumerate(streams):
            stream.standard_normal(out=factor[row])
    buf = np.empty((rows, min(size, n), model.dimension))
    scratch = np.empty((rows, model.dimension))
    for start in range(0, n, size):
        chunk = buf[:, :min(size, n - start)]
        for row, stream in enumerate(streams):
            stream.standard_normal(out=chunk[row])
        if model.kind == BOUNDED_UNIFORM:
            radii = np.stack([stream.uniform(size=(n, 1)) for stream in streams])
            yield start, [iter(_shape_noise(model, grid_steps[0], chunk, radii).swapaxes(0, 1))]
        else:
            stop = start + chunk.shape[1]
            yield start, [_gaussian_steps(model, chunk, steps[start:stop], factor, scratch)
                          for steps in grid_steps]


def noise_path(model: NoiseModel, stream: np.random.Generator, steps: np.ndarray) -> np.ndarray:
    """All per-step draws xi_k(h_k) of one trajectory, shape (N, J)."""
    return sample_path_matrix(model, stream, steps, 1)[0]


def sample_noise_matrix(model: NoiseModel, stream: np.random.Generator, h: float, m: int) -> np.ndarray:
    """m independent draws of xi(h), shape (m, J); estimator utility.

    Each row is distributed like one per-step draw (for the shared-factor
    kind the shared component is drawn fresh per row).
    """
    return sample_path_matrix(model, stream, [h], m)[:, 0]


def _l2_amplitude(model: NoiseModel) -> float:
    """Exact |xi(1)|_(L2(Omega;H)) by kind."""
    if model.kind == BIASED:
        return math.sqrt(model.c_xi**2 + model.bias_coefficient**2)
    if model.kind == BOUNDED_UNIFORM:
        return model.c_xi * math.sqrt(3.0 / (model.dimension + 2.0))
    return model.c_xi


@lru_cache(maxsize=64)
def psi2_amplitude(model: NoiseModel, samples: int = _PSI2_SAMPLES) -> float:
    """Orlicz (exp(z^2) - 1) norm of |xi(1)|_H, estimated once and cached.

    Uses a fixed internal stream so the cached value is reproducible.  The
    draws of sample_noise_matrix(model, stream, 1.0, samples) are made in
    row blocks of at most _PSI2_BLOCK_BYTES and reduced to their norms
    block by block; the kinds with follow-up draws take all their lead
    normals first, as the one-shot draw does.
    """
    from .analysis import orlicz_norm_estimate

    if model.c_xi == 0.0 and model.kind != BIASED:
        return 0.0
    stream = np.random.default_rng(np.random.SeedSequence(_PSI2_SEED))
    j = model.dimension
    lead = None
    if model.kind in (SHARED_FACTOR, BOUNDED_UNIFORM):
        lead = stream.standard_normal((samples, 1, j))
    rows = max(1, _PSI2_BLOCK_BYTES // (8 * j))
    norms = np.empty(samples)
    for start in range(0, samples, rows):
        size = min(rows, samples - start)
        block = stream.standard_normal((size, 1, j)) if lead is None else lead[start:start + size]
        draws = _shape_noise(model, np.ones(1), block, _follow_draws(model, stream, size, 1))
        norms[start:start + size] = np.linalg.norm(draws[:, 0], axis=1)
    return orlicz_norm_estimate(norms, "psi2")


def theoretical_noise_norm(model: NoiseModel, h: float, norm_kind: str = "l2") -> float:
    """Model amplitude at step h: amplitude(1) * h^(p+1).

    norm_kind "l2" uses the exact second-moment amplitude of the kind;
    "psi2" uses the cached Orlicz estimate of |xi(1)|_H.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if norm_kind == "l2":
        base = _l2_amplitude(model)
    elif norm_kind == "psi2":
        base = psi2_amplitude(model)
    else:
        raise ValueError(f"unsupported norm kind {norm_kind!r}, expected 'l2' or 'psi2'")
    return base * h ** (model.p + 1.0)
