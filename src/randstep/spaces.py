"""Discretised Gelfand triple V -> H -> V' in the eigenbasis of the operator.

State vectors are plain float arrays of coefficients in the orthonormal
H-eigenbasis of the spatial operator.  With eigenvalues lam_j > 0, the
three norms are realised spectrally:

    H:  (sum c_j^2)^(1/2)
    V:  (sum lam_j c_j^2)^(1/2)
    V': (sum c_j^2 / lam_j)^(1/2)

The default model operator is the Dirichlet Laplacian on (0, pi), whose
eigenvalues are lam_j = j^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpaceDescriptor", "laplacian_1d", "norm", "inner_h"]

NORM_KINDS = ("h", "v", "v_dual")


@dataclass(frozen=True, eq=False)
class SpaceDescriptor:
    """Finite spectral section of the operator: dimension and eigenvalues."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d array")
        bad = np.flatnonzero(~np.isfinite(eig))
        if bad.size:
            raise ValueError(f"eigenvalues must be finite, entry {bad[0]} is {eig[bad[0]]}")
        if np.any(eig <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(eig) < 0.0):
            raise ValueError("eigenvalues must be non-decreasing")
        eig.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.size


def laplacian_1d(dimension: int) -> SpaceDescriptor:
    """First `dimension` Dirichlet-Laplacian eigenvalues on (0, pi): j^2."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    j = np.arange(1, dimension + 1, dtype=float)
    return SpaceDescriptor(j**2)


def _check_dimension(x: np.ndarray, dimension: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dimension:
        raise ValueError(f"coefficient length {x.shape[-1]} does not match space dimension {dimension}")
    return x


def norm(x: np.ndarray, space: SpaceDescriptor, kind: str = "h") -> float | np.ndarray:
    """Norm of a coefficient vector in H, V or V'.

    Accepts stacked inputs of shape (..., J) and reduces the last axis.
    """
    x = _check_dimension(x, space.dimension)
    if kind == "h":
        sq = np.sum(x * x, axis=-1)
    elif kind == "v":
        sq = np.sum(space.eigenvalues * x * x, axis=-1)
    elif kind == "v_dual":
        sq = np.sum(x * x / space.eigenvalues, axis=-1)
    else:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")
    out = np.sqrt(sq)
    return float(out) if out.ndim == 0 else out


def inner_h(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """H inner product sum_j x_j y_j; reduces the last axis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    out = np.sum(x * y, axis=-1)
    return float(out) if out.ndim == 0 else out
