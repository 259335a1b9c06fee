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
validates it once, `step` is one row of it, and `_factor` is the one
per-kind formula for a, shared with `lipschitz_constant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import Problem, _check_steps, flow_table

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
    "admissible_max_step",
    "lipschitz_constant",
]

EXPLICIT_EULER = "explicit_euler"
TWO_STAGE = "two_stage"
IMPLICIT_EULER = "implicit_euler"
EXACT = "exact"
_KINDS = (EXPLICIT_EULER, TWO_STAGE, IMPLICIT_EULER, EXACT)


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
        if self.kind == TWO_STAGE and min(self.a1, self.a2, self.b1, self.b2) < 0.0:
            raise ValueError("two-stage coefficients must be non-negative")

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
    method = MethodConfig(TWO_STAGE, a1=a1, a2=a2, b1=b1, b2=b2, h_star=h_star)
    validate_two_stage(a1, a2, b1, b2)
    return method


def implicit_euler(h_star: float = math.inf, declared_order: float | None = None) -> MethodConfig:
    return MethodConfig(IMPLICIT_EULER, h_star=h_star, declared_order=declared_order)


def exact_method(h_star: float = math.inf) -> MethodConfig:
    """The exact flow used as a one-step method (testing aid)."""
    return MethodConfig(EXACT, h_star=h_star)


def validate_two_stage(a1: float, a2: float, b1: float, b2: float, tol: float = 1e-12) -> int:
    """Order implied by the two-stage coefficients: 2 iff a1+a2 = 1 and
    a2 b1 = a2 b2 = 1/2, else 1 for any consistent (a1+a2 = 1) choice."""
    if min(a1, a2, b1, b2) < 0.0:
        raise ValueError("coefficients must be non-negative")
    if abs(a1 + a2 - 1.0) > tol:
        raise ValueError(f"inconsistent method: a1 + a2 = {a1 + a2} != 1")
    if abs(a2 * b1 - 0.5) <= tol and abs(a2 * b2 - 0.5) <= tol:
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


def _factor(method: MethodConfig, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Multiplier a of one step v -> a * v + c on a mode with
    z0 = h lam alpha at the step's start (for implicit Euler its Steklov
    mean) and z1 = h lam alpha at the second stage t + b1 h."""
    if method.kind == EXPLICIT_EULER:
        return 1.0 - z0
    if method.kind == TWO_STAGE:
        return 1.0 - method.a1 * z0 - method.a2 * z1 + method.a2 * method.b2 * z0 * z1
    if method.kind == IMPLICIT_EULER:
        if np.any(1.0 + z0 <= 0.0):
            raise ValueError("implicit solve singular: 1 + h lam alpha <= 0; reduce h below h*")
        return 1.0 / (1.0 + z0)
    return np.exp(-z0)


def step_table(method: MethodConfig, problem: Problem, steps, points) -> tuple[np.ndarray, np.ndarray]:
    """The method's steps [t_k, t_k + h_k] as v -> a[k] * v + c[k], for h_k
    and t_k of shape (N,); a and c have shape (N, J).

    Validates the whole grid once: steps in (0, h*] inside [0, T], a
    non-singular implicit solve, and for the explicit kinds no mode
    amplified (|a| > 1) where the exact flow contracts.
    """
    steps, points = np.asarray(steps, dtype=float), np.asarray(points, dtype=float)
    _check_steps(problem, steps, points)
    if np.any(steps > method.h_star):
        raise ValueError(f"step {steps.max()} exceeds the admissible maximum h* = {method.h_star}")
    if method.kind == EXACT:
        return flow_table(problem, steps, points)
    h, lam = steps[:, None], problem.space.eigenvalues
    if method.kind == IMPLICIT_EULER:
        alpha_bar, b_bar = steklov_average(problem, steps, points)
        a = _factor(method, h * lam * alpha_bar[:, None], None)
        return a, h * b_bar * a
    mid = points + method.b1 * steps
    z0 = h * lam * problem.alpha_at(points)[:, None]
    z1 = h * lam * problem.alpha_at(mid)[:, None]
    a = _factor(method, z0, z1)
    unstable = np.argwhere((np.abs(a) > 1.0) & (z0 > 0.0))
    if unstable.size:
        k, j = unstable[0]
        raise ValueError(
            f"unstable explicit step {k}: mode {j} has h lam alpha = {z0[k, j]:.6g} and factor "
            f"{a[k, j]:.6g}, |factor| > 1 where the exact flow contracts; reduce the step"
        )
    b0 = problem.forcing_at(points)
    if method.kind == EXPLICIT_EULER:
        return a, h * b0
    return a, h * (method.a1 * b0 + method.a2 * (problem.forcing_at(mid) - method.b2 * z1 * b0))


def step(method: MethodConfig, problem: Problem, h: float, t: float, v: np.ndarray) -> np.ndarray:
    """Apply one step of the method, one row of `step_table`; v may be stacked (..., J)."""
    a, c = step_table(method, problem, [h], [t])
    return a[0] * np.asarray(v, dtype=float) + c[0]


def admissible_max_step(kappa: float, l_psi: float) -> float:
    """Largest step keeping implicit Euler (1 + L_psi h)-Lipschitz.

    With coercivity shift kappa the contraction estimate is
    |psi(x) - psi(y)|^2 <= (1 - 2 h kappa)^(-1) |x - y|^2, so for
    kappa = 0 there is no constraint (returns inf) and for kappa > 0
    the step must satisfy h* = (L_psi - 2 kappa) / (2 kappa L_psi).
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if kappa == 0.0:
        return math.inf
    if l_psi <= 2.0 * kappa:
        raise ValueError(f"need L_psi > 2 kappa, got L_psi = {l_psi}, kappa = {kappa}")
    return (l_psi - 2.0 * kappa) / (2.0 * kappa * l_psi)


def lipschitz_constant(method: MethodConfig, problem: Problem, h_star: float | None = None) -> float:
    """Smallest L with |psi(h,t,x) - psi(h,t,y)|_H <= (1 + L h)|x - y|_H
    over 0 < h <= h_star, estimated from the mode amplification factors.

    The factors are monotone in lam * alpha, so eigenvalue and scaling
    extremes suffice; the supremum over h is taken on a fine grid.
    Returns 0 for unconditionally non-expansive configurations.
    """
    if h_star is None:
        h_star = method.h_star
    if not (0.0 < h_star < math.inf):
        raise ValueError("a finite positive h_star is required")
    lam = problem.space.eigenvalues
    lo, hi = problem.alpha_range()
    hs = h_star * np.linspace(1.0 / 1024, 1.0, 1024)[:, None]
    z = hs * np.array([lam[0] * lo, lam[0] * hi, lam[-1] * lo, lam[-1] * hi])
    return max(0.0, float(((np.abs(_factor(method, z, z)) - 1.0) / hs).max()))
