"""Discretised Gelfand triple V -> H -> V' in the eigenbasis of the operator.

State vectors are plain float arrays of coefficients in the orthonormal
H-eigenbasis of the spatial operator.  With eigenvalues lam_j > 0, the
triple is carried by the eigenvalues alone (V and V' weight mode j by
lam_j and 1 / lam_j).  The default model operator is the Dirichlet
Laplacian on (0, pi), whose eigenvalues are lam_j = j^2.

Every norm the package reports is the H-norm (sum c_j^2)^(1/2), and
every norm of a state vector is the one reduction `_h_norm`; `norm` is
its public, dimension-checked form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpaceDescriptor", "laplacian_1d", "norm"]


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


def _check_integer(value, name: str) -> None:
    """Refuse by name a count, index or seed that is not an int or numpy integer."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def laplacian_1d(dimension: int) -> SpaceDescriptor:
    """First `dimension` Dirichlet-Laplacian eigenvalues on (0, pi): j^2."""
    _check_integer(dimension, "dimension")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    j = np.arange(1, dimension + 1, dtype=float)
    return SpaceDescriptor(j**2)


def _check_dimension(x: np.ndarray, dimension: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dimension:
        raise ValueError(f"coefficient length {x.shape[-1]} does not match space dimension {dimension}")
    return x


def _check_state(theta: np.ndarray, dimension: int) -> np.ndarray:
    """theta as a finite float vector of the given dimension."""
    theta = _check_dimension(theta, dimension)
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(
            f"initial state theta must be finite, entry {bad[0]} is {theta.flat[bad[0]]}"
        )
    return theta


def _h_norm(x: np.ndarray, out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> np.ndarray:
    """|x|_H = sqrt(sum_j x_j^2) of every row of x (its last axis), into out
    if given; work is optional scratch of x's shape.  Only rows whose sum
    of squares left the normal range (a norm above about 1e154 or below
    2^-511, about 1.5e-154) with finite entries, not all zero, are
    recomputed, as s sqrt(sum_j (x_j / s)^2) with s their largest |x_j|."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(np.multiply(x, x, out=work), axis=-1, out=out), out=out)
    if not (norms.min(initial=np.inf) >= 2.0**-511 and norms.max(initial=0.0) < np.inf):
        norms = np.asarray(norms)  # a 1-d x gives a scalar
        top = np.max(np.abs(x), axis=-1)
        redo = (np.isinf(norms) | (norms < 2.0**-511)) & np.isfinite(top) & (top > 0.0)
        rows, s = x[redo], top[redo]
        norms[redo] = s * np.sqrt(np.add.reduce(np.square(rows / s[:, None]), axis=-1))
    return norms


def norm(x: np.ndarray, space: SpaceDescriptor) -> float | np.ndarray:
    """H-norm of a coefficient vector of space, through `_h_norm`.

    Accepts stacked inputs of shape (..., J) and reduces the last axis.
    """
    out = _h_norm(_check_dimension(x, space.dimension))
    return float(out) if out.ndim == 0 else out

