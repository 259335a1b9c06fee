"""Deterministic one-step methods: explicit Euler, a two-stage explicit
family, and implicit Euler with Steklov time averages.

The two-stage family advances by

    v + h * (a1 f(t, v) + a2 f(t + b1 h, v + b2 h f(t, v))),

which has local order q = 2 exactly when a1 + a2 = 1 and
a2 b1 = a2 b2 = 1/2.  Implicit Euler replaces the operator and forcing by
their exact sliding averages over [t, t + h] and solves mode-wise:

    (1 + h lam_j alpha_bar)^(-1) (h bbar_j + v_j).

Because the operator is diagonal, the implicit solve is scalar division;
no iterative linear solver is involved.  Multistep methods and the
higher-order variational schemes for time-dependent operators are out of
scope.

On these linear mode-diagonal problems every step is a per-mode affine
map v -> a_k * v + c_k; `step_table` builds (a, c) for a whole grid and
validates it once, and `step` is one row of it.  Explicit Euler is the
two-stage member (a1, a2, b1, b2) = (1, 0, 0, 0), so one formula gives
the tables of both explicit kinds.  A run's Lipschitz constant is read
off its table (`sampler._lipschitz_constant`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import Problem, _check_steps, _step_arrays, flow_table
from .spaces import _check_dimension

__all__ = [
    "MethodConfig",
    "explicit_euler",
    "two_stage",
    "implicit_euler",
    "exact_method",
    "validate_two_stage",
    "steklov_average",
    "step",
    "step_table",
]

EXPLICIT_EULER = "explicit_euler"
TWO_STAGE = "two_stage"
IMPLICIT_EULER = "implicit_euler"
EXACT = "exact"
_KINDS = (EXPLICIT_EULER, TWO_STAGE, IMPLICIT_EULER, EXACT)
_TWO_STAGE_TOL = 1e-12


@dataclass(frozen=True)
class MethodConfig:
    """One-step method selector with its admissible-step bound h_star.

    declared_order is the local-truncation order q (one-step error
    O(h^(q+1))); if unset it defaults per kind: 1 for both Euler methods
    and the order implied by the coefficient conditions for the two-stage
    family.
    """

    kind: str
    a1: float = 0.0
    a2: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    h_star: float = math.inf
    declared_order: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}, expected one of {_KINDS}")
        if not self.h_star > 0.0:
            raise ValueError(f"h_star must be positive, got {self.h_star}")
        if self.declared_order is not None and not 0.0 <= self.declared_order < math.inf:
            raise ValueError(f"declared_order must be finite and >= 0, got {self.declared_order}")
        if self.kind == TWO_STAGE:
            validate_two_stage(self.a1, self.a2, self.b1, self.b2)

    @property
    def order(self) -> float:
        if self.declared_order is not None:
            return self.declared_order
        if self.kind == TWO_STAGE:
            return float(validate_two_stage(self.a1, self.a2, self.b1, self.b2))
        if self.kind == EXACT:
            return math.inf
        return 1.0


def explicit_euler(h_star: float = math.inf) -> MethodConfig:
    return MethodConfig(EXPLICIT_EULER, h_star=h_star)


def two_stage(a1: float, a2: float, b1: float, b2: float, h_star: float = math.inf) -> MethodConfig:
    return MethodConfig(TWO_STAGE, a1=a1, a2=a2, b1=b1, b2=b2, h_star=h_star)


def implicit_euler(h_star: float = math.inf, declared_order: float | None = None) -> MethodConfig:
    return MethodConfig(IMPLICIT_EULER, h_star=h_star, declared_order=declared_order)


def exact_method(h_star: float = math.inf) -> MethodConfig:
    """The exact flow used as a one-step method (testing aid)."""
    return MethodConfig(EXACT, h_star=h_star)


def validate_two_stage(a1: float, a2: float, b1: float, b2: float) -> int:
    """Order implied by the two-stage coefficients: 2 iff a1+a2 = 1 and
    a2 b1 = a2 b2 = 1/2, else 1 for any consistent (a1+a2 = 1) choice,
    each condition up to _TWO_STAGE_TOL."""
    if not all(map(math.isfinite, (a1, a2, b1, b2))):
        raise ValueError(f"coefficients must be finite, got {(a1, a2, b1, b2)}")
    if min(a1, a2, b1, b2) < 0.0:
        raise ValueError("coefficients must be non-negative")
    if abs(a1 + a2 - 1.0) > _TWO_STAGE_TOL:
        raise ValueError(f"inconsistent method coefficients: a1 + a2 = {a1 + a2} != 1")
    if abs(a2 * b1 - 0.5) <= _TWO_STAGE_TOL and abs(a2 * b2 - 0.5) <= _TWO_STAGE_TOL:
        return 2
    return 1


def steklov_average(problem: Problem, h, t) -> tuple[float, np.ndarray]:
    """Exact mean values of alpha and of the forcing over [t, t + h].

    h and t may be vectors of step sizes and start times, shape (N,); the
    means then have shapes (N,) and (N, J).
    """
    h, t = np.asarray(h, dtype=float), np.asarray(t, dtype=float)
    _check_steps(problem, h, t)
    alpha_bar = problem.alpha_at(t + 0.5 * h)[()]
    if problem.forcing is None:
        return alpha_bar, np.zeros(t.shape + (problem.space.dimension,))
    b0, b1, b2 = problem.forcing.T
    t, h = t[..., None], h[..., None]
    return alpha_bar, b0 + b1 * (t + 0.5 * h) + b2 * (t * t + t * h + h * h / 3.0)


def step_table(method: MethodConfig, problem: Problem, steps, points) -> tuple[np.ndarray, np.ndarray]:
    """The method's steps [t_k, t_k + h_k] as v -> a[k] * v + c[k], for h_k
    and t_k of shape (N,); a and c have shape (N, J).

    Validates the whole grid once: steps and points 1-d of one length,
    finite steps in (0, h*] inside [0, T], a non-singular implicit solve,
    and for the explicit kinds no mode amplified (|a| > 1, or NaN from an
    overflow) where the flow contracts.
    """
    steps, points = _step_arrays(problem, steps, points)
    if np.any(steps > method.h_star):
        raise ValueError(f"step {steps.max()} exceeds the admissible maximum h* = {method.h_star}")
    if method.kind == EXACT:
        return flow_table(problem, steps, points)
    h, lam = steps[:, None], problem.space.eigenvalues
    if method.kind == IMPLICIT_EULER:
        alpha_bar, b_bar = steklov_average(problem, steps, points)
        z = h * lam * alpha_bar[:, None]
        if np.any(1.0 + z <= 0.0):
            raise ValueError("implicit solve singular: 1 + h lam alpha <= 0; reduce h below h*")
        a = 1.0 / (1.0 + z)
        return a, h * b_bar * a
    a1, a2, b1, b2 = ((method.a1, method.a2, method.b1, method.b2) if method.kind == TWO_STAGE
                      else (1.0, 0.0, 0.0, 0.0))
    mid = points + b1 * steps
    z0 = h * lam * problem.alpha_at(points)[:, None]
    z1 = h * lam * problem.alpha_at(mid)[:, None]
    a = 1.0 - a1 * z0 - a2 * z1 + a2 * b2 * z0 * z1
    unstable = np.argwhere(~(np.abs(a) <= 1.0) & (z0 > 0.0))
    if unstable.size:
        k, j = unstable[0]
        raise ValueError(
            f"unstable explicit step {k}: mode {j} has h lam alpha = {z0[k, j]:.6g} and factor "
            f"{a[k, j]:.6g}, |factor| > 1 where the exact flow contracts; reduce the step"
        )
    b0 = problem.forcing_at(points)
    return a, h * (a1 * b0 + a2 * (problem.forcing_at(mid) - b2 * z1 * b0))


def step(method: MethodConfig, problem: Problem, h: float, t: float, v: np.ndarray) -> np.ndarray:
    """Apply one step of the method, one row of `step_table`; v may be stacked (..., J)."""
    v = _check_dimension(v, problem.space.dimension)
    a, c = step_table(method, problem, [h], [t])
    return a[0] * v + c[0]
