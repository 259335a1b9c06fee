"""Closed-form Gaussian posteriors for the linear inverse problem of
recovering an initial state from a noisy observation of the evolved state.

Everything is diagonal in the operator eigenbasis, so the three posterior
variants reduce to scalar conjugate formulas per mode; g and gt are row 0
of `flow_table` and `step_table` on the one step [0, h] of u' + A u = 0:

    exact forward map      g_j    = exp(-h lam_j)
    implicit Euler map     gt_j   = (1 + h lam_j)^(-1)
    randomised map         gt_j with observation variance inflated by
                           h^(2p+2) gamma1_j

With data y = g theta and noise scale delta -> 0, the exact posterior
concentrates on theta, the discretised posterior concentrates on the
biased limit (g / gt) theta, and the randomised posterior keeps strictly
positive spread: the inflation term is what prevents overconfident
collapse onto the biased point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .integrators import implicit_euler, step_table
from .problems import Problem, flow_table
from .spaces import SpaceDescriptor, _h_norm

__all__ = [
    "DiagonalGaussianModel",
    "single_mode_model",
    "posterior",
    "biased_limit",
    "small_noise_sweep",
    "SWEEP_COLUMNS",
]

VARIANTS = ("exact", "discretised", "randomised")
SWEEP_COLUMNS = ("delta", "err_exact_mean", "err_tilde_mean_vs_biased_limit", "min_hat_variance")


@dataclass(frozen=True, eq=False)
class DiagonalGaussianModel:
    """Per-mode prior, observation and randomisation variances, and the
    read-only forward maps forward_exact and forward_euler, built once.
    The noise scale delta is an argument of `posterior`."""

    eigenvalues: np.ndarray
    h: float
    p: float
    prior_mean: np.ndarray
    prior_var: np.ndarray
    obs_var: np.ndarray
    rand_var: np.ndarray
    theta: np.ndarray
    forward_exact: np.ndarray = field(init=False, repr=False)
    forward_euler: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("h", "p"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.h > 0.0:
            raise ValueError("h must be positive")
        if self.p < 0.0:
            raise ValueError("p must be >= 0")
        try:  # math.pow raises where numpy's power would give inf
            inflation = math.pow(self.h, 2.0 * self.p + 2.0)
        except OverflowError:
            raise ValueError(f"the inflation factor h^(2p + 2) overflows at h = {self.h}, "
                             f"p = {self.p}") from None
        object.__setattr__(self, "_inflation", inflation)
        space = SpaceDescriptor(np.atleast_1d(np.asarray(self.eigenvalues, dtype=float)))
        step = Problem(space, horizon=self.h)  # the one step [0, h] of u' + A u = 0
        forward = {"forward_exact": flow_table(step, [self.h], [0.0])[0][0],
                   "forward_euler": step_table(implicit_euler(), step, [self.h], [0.0])[0][0]}
        for name in ("eigenvalues", "prior_mean", "prior_var", "obs_var", "rand_var", "theta"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.size != space.dimension:
                raise ValueError(f"{name} has length {arr.size}, expected {space.dimension}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr}")
            if name in ("prior_var", "obs_var", "rand_var") and np.any(arr <= 0.0):
                raise ValueError(f"{name} must be strictly positive")
            forward[name] = arr
        for name, arr in forward.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def single_mode_model(
    lam: float = 1.0,
    h: float = 0.1,
    p: float = 0.0,
    prior_var: float = 1.0,
    obs_var: float = 1.0,
    rand_var: float = 1.0,
    prior_mean: float = 0.0,
    theta: float = 1.0,
) -> DiagonalGaussianModel:
    return DiagonalGaussianModel(lam, h, p, prior_mean, prior_var, obs_var, rand_var, theta)


def posterior(
    model: DiagonalGaussianModel, y: np.ndarray, variant: str, delta: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance per mode for the chosen forward model
    at noise scale delta >= 0: a scalar, or a (..., 1) array against
    stacked (..., J) data y.  At delta = 0 the formulas give the
    small-noise limit directly."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    delta = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise ValueError(f"delta must be finite, got {delta}")
    if np.any(delta < 0.0):
        raise ValueError("delta must be >= 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape[-1] != model.eigenvalues.size:
        raise ValueError(f"data length {y.shape[-1]} does not match {model.eigenvalues.size} modes")
    g = model.forward_exact if variant == "exact" else model.forward_euler
    inflation = model._inflation * model.rand_var if variant == "randomised" else 0.0
    denom = delta * model.obs_var + inflation + g * model.prior_var * g
    if np.any(denom <= 0.0):
        raise ValueError("degenerate posterior denominator")
    gain = model.prior_var * g / denom
    mean = model.prior_mean + gain * (y - g * model.prior_mean)
    var = model.prior_var - gain * g * model.prior_var
    return mean, var


def biased_limit(model: DiagonalGaussianModel) -> np.ndarray:
    """Small-noise limit of the discretised posterior mean for noiseless
    data: per mode (g / gt) theta, off the truth by the one-step error of
    the implicit Euler map."""
    return model.forward_exact / model.forward_euler * model.theta


def _check_delta_grid(delta_grid) -> np.ndarray:
    """delta_grid as a float array, checked non-empty, finite, non-negative
    and strictly decreasing."""
    delta_grid = np.asarray(delta_grid, dtype=float)
    if delta_grid.size == 0:
        raise ValueError("empty delta grid")
    if not np.all(np.isfinite(delta_grid)):
        raise ValueError(f"delta values must be finite, got {delta_grid}")
    if np.any(delta_grid < 0.0):
        raise ValueError("delta values must be >= 0")
    if np.any(np.diff(delta_grid) >= 0.0):
        raise ValueError("delta grid must be strictly decreasing")
    return delta_grid


def small_noise_sweep(
    model: DiagonalGaussianModel,
    delta_grid: np.ndarray,
    noise_draw: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate all three posteriors along a decreasing noise-scale grid.

    Data follow y = g theta + sqrt(delta) * noise_draw with a fixed draw
    (zero draw when None, i.e. noiseless data).  Returns one row per
    delta with columns SWEEP_COLUMNS: the H-norm error of the exact mean
    to theta, of the discretised mean to its biased limit, and the
    smallest randomised posterior variance.
    """
    delta_grid = _check_delta_grid(delta_grid)
    j = model.eigenvalues.size
    noise_draw = np.zeros(j) if noise_draw is None else np.atleast_1d(np.asarray(noise_draw, dtype=float))
    if noise_draw.size != j:
        raise ValueError(f"noise draw length {noise_draw.size} does not match {j} modes")
    delta = delta_grid[:, None]
    y = model.forward_exact * model.theta + np.sqrt(delta) * noise_draw
    mean_exact, _ = posterior(model, y, "exact", delta)
    mean_tilde, _ = posterior(model, y, "discretised", delta)
    _, var_hat = posterior(model, y, "randomised", delta)
    return np.column_stack((delta_grid, _h_norm(mean_exact - model.theta),
                            _h_norm(mean_tilde - biased_limit(model)), var_hat.min(axis=-1)))
