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
    "sample_noise",
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

    The one sampler of the module.  Consumes the stream in a fixed order
    (for the shared-factor kind the m shared factors first, then the
    per-step draws), so draws are reproducible given the stream state; the
    shared factor correlates the steps of each row.
    """
    steps = np.asarray(steps, dtype=float)
    if np.any(steps <= 0.0):
        raise ValueError(f"step sizes must be positive, got {steps}")
    if m < 1:
        raise ValueError(f"need at least one trajectory, got m = {m}")
    n, j = steps.size, model.dimension
    amps = model.c_xi * steps[None, :, None] ** (model.p + 1.0)
    root = np.sqrt(model.spectrum)
    if model.kind == BOUNDED_UNIFORM:
        z = stream.standard_normal((m, n, j))
        direction = z / np.linalg.norm(z, axis=2, keepdims=True)
        radius = stream.uniform(size=(m, n, 1)) ** (1.0 / j)
        return math.sqrt(3.0) * amps * radius * direction * root
    if model.kind == SHARED_FACTOR:
        shared = stream.standard_normal((m, 1, j))
        z = stream.standard_normal((m, n, j))
        return amps * root * (math.sqrt(1.0 - model.rho**2) * z + model.rho * shared)
    out = amps * root * stream.standard_normal((m, n, j))
    if model.kind == BIASED:
        out[..., model.bias_mode] += steps ** (model.p + 1.0) * model.bias_coefficient
    return out


def noise_path(model: NoiseModel, stream: np.random.Generator, steps: np.ndarray) -> np.ndarray:
    """All per-step draws xi_k(h_k) of one trajectory, shape (N, J)."""
    return sample_path_matrix(model, stream, steps, 1)[0]


def sample_noise(model: NoiseModel, stream: np.random.Generator, h: float) -> np.ndarray:
    """Single draw xi(h), shape (J,)."""
    return sample_path_matrix(model, stream, [h], 1)[0, 0]


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

    Uses a fixed internal stream so the cached value is reproducible.
    """
    from .analysis import orlicz_norm_estimate

    if model.c_xi == 0.0 and model.kind != BIASED:
        return 0.0
    stream = np.random.default_rng(np.random.SeedSequence(_PSI2_SEED))
    draws = sample_noise_matrix(model, stream, 1.0, samples)
    norms = np.linalg.norm(draws, axis=1)
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
