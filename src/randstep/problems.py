"""Linear operator ODE instances with closed-form exact flows.

A problem is the mode-diagonal evolution equation

    u'(t) + alpha(t) * A u(t) = b(t),    u(0) = theta,

posed on the spectral section of `spaces`:  A acts diagonally with
eigenvalues lam_j, the time scaling alpha is constant or affine, and the
per-mode forcing b_j is a polynomial in t of degree <= 2.  Within this
class every Duhamel and Steklov integral is exact, so the flow map can
serve as a trustworthy oracle for convergence-rate measurements.

Over a step the flow is the per-mode affine map u -> E_k * u + f_k;
`flow_table` builds (E, f) for a whole grid and `exact_flow` is one row.
Both are array passes over the (N, J) steps and modes, with no loop over
either.  The forcing response f splits by mask into a series path
(|gamma| h^2 <= _SERIES_LIMIT, which includes every constant-alpha entry)
and a completed-square path whose dawsn / erfcx / erf cases are masks
too; the series path sums the integrals f_k(z) = int_0^1 s^k e^(-z s) ds
of one stable evaluator, `_poly_exp_sum`, that covers every sign and
size of z.

The scalar test problem u' = rate * u (any sign of rate) is included via
`scalar_linear`; growth corresponds to a negative effective scaling and
is admitted only for such classical one-dimensional instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import SpaceDescriptor, laplacian_1d

__all__ = [
    "Problem",
    "heat_1d",
    "scalar_linear",
    "exact_flow",
    "flow_table",
    "apply_operator",
    "vector_field",
    "garding_constants",
    "flow_lipschitz",
]

# largest |gamma| * (t1 - t)^2 handled by the series expansion of the
# quadratic exponential factor; beyond it the error-function path takes
# over (whose conditioning degrades only like (a0/a1)^2 * eps_machine)
_SERIES_LIMIT = 1.0


@dataclass(frozen=True, eq=False)
class Problem:
    """One operator ODE instance; immutable and freely shareable.

    alpha is stored as affine coefficients (a0, a1), i.e. alpha(t) = a0 + a1*t.
    forcing holds per-mode polynomial coefficients, shape (J, 3), or None.
    """

    space: SpaceDescriptor
    alpha: tuple[float, float] = (1.0, 0.0)
    forcing: np.ndarray | None = None
    horizon: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        a0, a1 = (float(self.alpha[0]), float(self.alpha[1]))
        if not (math.isfinite(a0) and math.isfinite(a1)):
            raise ValueError(f"alpha coefficients must be finite, got {(a0, a1)}")
        object.__setattr__(self, "alpha", (a0, a1))
        lo, hi = self.alpha_range()
        if lo == 0.0 and hi == 0.0:
            raise ValueError("time scaling vanishes identically")
        if self.forcing is not None:
            forcing = np.atleast_2d(np.asarray(self.forcing, dtype=float))
            if forcing.shape != (self.space.dimension, 3):
                raise ValueError(
                    f"forcing must have shape ({self.space.dimension}, 3), got {forcing.shape}"
                )
            if not np.all(np.isfinite(forcing)):
                raise ValueError("forcing coefficients must be finite")
            forcing.setflags(write=False)
            object.__setattr__(self, "forcing", forcing)

    def alpha_at(self, t):
        a0, a1 = self.alpha
        return a0 + a1 * np.asarray(t, dtype=float)

    def alpha_range(self) -> tuple[float, float]:
        """Extremes of alpha on [0, T] (affine, so attained at the endpoints)."""
        a0, a1 = self.alpha
        ends = (a0, a0 + a1 * self.horizon)
        return min(ends), max(ends)

    def alpha_integral(self, t0: float, t1: float) -> float:
        a0, a1 = self.alpha
        return a0 * (t1 - t0) + 0.5 * a1 * (t1 * t1 - t0 * t0)

    def forcing_at(self, t) -> np.ndarray:
        """Per-mode forcing values b_j(t), shape t.shape + (J,); zeros if no forcing."""
        t = np.asarray(t, dtype=float)[..., None]
        if self.forcing is None:
            return np.zeros(t.shape[:-1] + (self.space.dimension,))
        b0, b1, b2 = self.forcing.T
        return b0 + b1 * t + b2 * t * t

    @property
    def garding(self) -> tuple[float, float, float]:
        return garding_constants(self)


def heat_1d(
    dimension: int,
    horizon: float = 1.0,
    alpha: tuple[float, float] = (1.0, 0.0),
    forcing: np.ndarray | None = None,
) -> Problem:
    """Spectral heat model: Dirichlet Laplacian on (0, pi), lam_j = j^2."""
    problem = Problem(laplacian_1d(dimension), alpha, forcing, horizon)
    if problem.alpha_range()[0] <= 0.0:
        raise ValueError("heat model requires a strictly positive time scaling")
    return problem


def scalar_linear(rate: float, horizon: float = 1.0) -> Problem:
    """Classical scalar test problem u' = rate * u (rate of either sign)."""
    return Problem(SpaceDescriptor(np.array([1.0])), (-float(rate), 0.0), None, horizon)


def _check_time(problem: Problem, t: float) -> None:
    if not (0.0 <= t <= problem.horizon + 1e-12):
        raise ValueError(f"time {t} outside [0, {problem.horizon}]")


def apply_operator(problem: Problem, t: float, x: np.ndarray) -> np.ndarray:
    """A(t) x in coefficients: mode-wise lam_j * alpha(t) * x_j."""
    _check_time(problem, t)
    x = np.asarray(x, dtype=float)
    return problem.space.eigenvalues * problem.alpha_at(t) * x


def vector_field(problem: Problem, t: float, x: np.ndarray) -> np.ndarray:
    """Right-hand side f(t, x) = b(t) - A(t) x."""
    return problem.forcing_at(t) - apply_operator(problem, t, x)


def garding_constants(problem: Problem) -> tuple[float, float, float]:
    """Constants (mu, kappa, beta) of the coercivity-up-to-shift inequality.

    The discrete bilinear form is a(t, u, v) = alpha(t) * <u, v>_V, so for
    alpha_min > 0 the inequality holds with mu = alpha_min and kappa = 0,
    and beta = alpha_max bounds the form.  For instances whose scaling dips
    to zero or below (the classical growth problems), coercivity is rescued
    by a kappa-shift through |u|_V^2 <= lam_max |u|_H^2.
    """
    lo, hi = problem.alpha_range()
    if lo > 0.0:
        return lo, 0.0, hi
    beta = max(abs(lo), abs(hi))
    mu = min(1.0, beta)
    kappa = (mu - lo) * float(problem.space.eigenvalues[-1])
    return mu, kappa, max(beta, mu)


def flow_lipschitz(problem: Problem, h_star: float) -> float:
    """Smallest L such that |phi(h,t,x)-phi(h,t,y)|_H <= (1+L h)|x-y|_H for h <= h_star.

    The mode-diagonal flow contracts unless some mode grows; the growth
    rate g = max_j sup_t (-lam_j alpha(t)) gives e^(g h) <= 1 + L h on
    (0, h_star] with L = (e^(g h_star) - 1) / h_star.
    """
    lo, hi = problem.alpha_range()
    lam = problem.space.eigenvalues
    growth = max(0.0, max(-lam[0] * lo, -lam[0] * hi, -lam[-1] * lo, -lam[-1] * hi))
    if growth == 0.0:
        return 0.0
    if not (0.0 < h_star < math.inf):
        raise ValueError("growing flow needs a finite positive maximum step")
    return math.expm1(growth * h_star) / h_star


def _check_steps(problem: Problem, steps, points) -> None:
    """Reject any step [t_k, t_k + h_k] that is empty or leaves [0, T]."""
    steps, points = np.atleast_1d(steps), np.atleast_1d(points)
    ends = points + steps
    bad = np.flatnonzero((steps <= 0.0) | (points < 0.0) | (ends > problem.horizon + 1e-12))
    if bad.size:
        k = bad[0]
        raise ValueError(f"step [{points[k]}, {ends[k]}] is empty or leaves [0, {problem.horizon}]")


def flow_table(problem: Problem, steps, points) -> tuple[np.ndarray, np.ndarray]:
    """Exact flow over each step [t_k, t_k + h_k] as u -> E[k] * u + f[k], for
    h_k and t_k of shape (N,); E and f have shape (N, J).

    E = exp(-lam int alpha) is vectorised over steps; f (zero without
    forcing) comes from the closed-form response integrals.
    """
    steps, points = np.asarray(steps, dtype=float), np.asarray(points, dtype=float)
    _check_steps(problem, steps, points)
    ends = points + steps
    decay = np.exp(-problem.space.eigenvalues * problem.alpha_integral(points, ends)[:, None])
    if problem.forcing is None:
        return decay, np.zeros_like(decay)
    return decay, _forcing_response(problem, points, ends)


def exact_flow(problem: Problem, h: float, t: float, x: np.ndarray) -> np.ndarray:
    """Exact solution operator: advance state x at time t by duration h.

    One row of `flow_table`.  Accepts stacked states of shape (..., J).
    """
    if h < 0.0:
        raise ValueError(f"negative step {h}")
    _check_time(problem, t)
    if t + h > problem.horizon + 1e-12:
        raise ValueError(f"step leaves the time interval: {t} + {h} > {problem.horizon}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != problem.space.dimension:
        raise ValueError("state dimension does not match the problem space")
    if h == 0.0:
        return x.copy()
    decay, response = flow_table(problem, np.array([h]), np.array([t]))
    return decay[0] * x + response[0]


def _forcing_response(problem: Problem, t: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Per-mode Duhamel integrals int_t^t1 exp(-lam int_s^t1 alpha) b(s) ds
    over the steps [t[k], t1[k]], shape (N, J).

    With g(s) = beta s + gamma s^2, beta = lam a0 and gamma = lam a1 / 2
    per mode, the integral is int_t^t1 exp(g(s) - g(t1)) b(s) ds.  Entries
    with |gamma| h^2 <= _SERIES_LIMIT (all of them when alpha is constant)
    take the series path, the others the completed-square path; each path
    runs once over its masked entries.
    """
    lam = problem.space.eigenvalues
    a0, a1 = problem.alpha
    shape = (t.size, lam.size)
    t, t1 = (np.broadcast_to(s[:, None], shape) for s in (t, t1))
    h = t1 - t
    beta, gamma = (np.broadcast_to(v, shape) for v in (lam * a0, 0.5 * lam * a1))
    coeffs = [np.broadcast_to(c, shape) for c in problem.forcing.T]
    series = np.abs(gamma) * h * h <= _SERIES_LIMIT
    out = np.empty(shape)
    for mask, path in ((series, _series_response), (~series, _erf_response)):
        if np.any(mask):
            out[mask] = path(*(c[mask] for c in coeffs), beta[mask], gamma[mask], t[mask], t1[mask])
    return out


def _series_response(c0, c1, c2, beta, gamma, t, t1):
    """Series path of the response, elementwise over 1-D arrays.

    In u = s - t1, g(s) - g(t1) = B u + gamma u^2 with B = beta + 2 gamma t1.
    Expanding exp(gamma u^2) to order n and substituting u = -h sigma gives

        h * sum_(m <= n) mu^m / m! * (P0 f_2m - h P1 f_(2m+1) + h^2 P2 f_(2m+2)),

    mu = gamma h^2, P0 + P1 u + P2 u^2 = b(s), and f_k = f_k(B h) from
    `_poly_exp_sum`.  One order n serves the whole call, taken from the
    largest |mu| so that mu^(n+1) / n! <= 1e-17; extra terms only shrink
    the remainder.
    """
    h = t1 - t
    mu = gamma * h * h
    eps = float(np.max(np.abs(mu)))
    n, fac = 0, 1.0
    while eps ** (n + 1) / fac > 1e-17 and n < 24:
        n += 1
        fac *= n
    p0 = c0 + c1 * t1 + c2 * t1 * t1
    p1 = -h * (c1 + 2.0 * c2 * t1)
    p2 = h * h * c2

    def coef(m):
        return mu**m / math.factorial(m) if 0 <= m <= n else 0.0

    def weight(k):
        m = k // 2
        return coef(m) * p1 if k % 2 else coef(m) * p0 + coef(m - 1) * p2

    return h * _poly_exp_sum((beta + 2.0 * gamma * t1) * h, weight, 2 * n + 2)


def _poly_exp_sum(z, weight, kmax: int) -> np.ndarray:
    """sum_(k <= kmax) weight(k) * f_k(z) elementwise, where
    f_k(z) = int_0^1 sigma^k exp(-z sigma) d sigma and weight(k) is an
    array broadcastable to z.

    f_0 = -expm1(-z) / z; past it one recurrence runs for each entry in
    its stable direction: upward f_k = (k f_(k-1) - e^(-z)) / z for
    k <= |z|, where errors shrink by k / |z|, and downward
    f_(k-1) = (z f_k + e^(-z)) / k for k > |z|, where they shrink by
    |z| / k, seeded far enough above kmax that the seed error has shrunk
    by e^-45.  That covers either sign of z, z = 0 (f_k = 1 / (k + 1)) and
    large z (e^(-z) may underflow to 0).  Entries outside a pass run it
    on a harmless stand-in z and are masked out of the sum, which is
    accumulated as the recurrences run: memory stays a few arrays of z's
    shape, whatever kmax is.
    """
    z = np.asarray(z, dtype=float)
    split = np.minimum(np.floor(np.abs(z)), kmax)  # last k of the upward pass
    zero = z == 0.0
    total = weight(0) * np.where(zero, 1.0, -np.expm1(-z) / np.where(zero, 1.0, z))
    last_up = int(split.max(initial=0.0))
    if last_up >= 1:
        zu = np.where(split >= 1.0, z, 1.0)
        eu = np.exp(-zu)
        fk = -np.expm1(-zu) / zu
        for k in range(1, last_up + 1):
            fk = (k * fk - eu) / zu
            total += np.where(k <= split, weight(k) * fk, 0.0)
    down = split < kmax
    if np.any(down):
        widest = max(float(np.abs(z[down]).max()), 1.0)
        top, shrink = kmax, 0.0
        while shrink < 45.0:
            top += 1
            shrink += math.log(top / widest)
        zd = np.where(down, z, 0.0)
        ed = np.exp(-zd)
        fk = ed / np.maximum(top - zd, 1.0)  # endpoint-layer estimate of f_top
        for k in range(top, 1, -1):
            fk = (zd * fk + ed) / k  # now f_(k-1)
            if k <= kmax + 1:
                total += np.where(k - 1 > split, weight(k - 1) * fk, 0.0)
    return total


def _erf_response(c0, c1, c2, beta, gamma, t, t1):
    """Completed-square path of the response, elementwise over 1-D arrays
    with gamma != 0.

    c0 e0 + c1 e1 + c2 e2 with e_i = int_t^t1 s^i exp(g(s) - g(t1)) ds.  e0
    comes from dawsn (gamma > 0) or, for gamma < 0, from erfcx when the
    vertex of g lies outside the step on either side, else erf; each case
    is a mask, arranged so every term stays bounded whenever g is
    increasing on the step (the dissipative case).  e1 and e2 follow by
    parts.
    """
    # imported on first use: loading scipy.special takes about 0.3 s, which
    # runs that never reach this path should not pay
    from scipy.special import dawsn, erf, erfcx

    expo = np.exp(beta * (t - t1) + gamma * (t * t - t1 * t1))  # exp(g(t) - g(t1))
    root = np.sqrt(np.abs(gamma))
    shift = beta / (2.0 * root)
    # gamma > 0: g(s) = (root s + shift)^2 - shift^2
    x_t, x_1 = root * t + shift, root * t1 + shift
    # gamma < 0: g(s) = shift^2 - (root s - shift)^2, vertex at w = 0
    w_t, w_1 = root * t - shift, root * t1 - shift
    up = gamma > 0.0
    right = ~up & (w_t >= 0.0)
    left = ~up & ~right & (w_1 <= 0.0)
    inside = ~(up | right | left)
    sqp2 = 0.5 * math.sqrt(math.pi)
    e0 = np.empty_like(expo)
    e0[up] = dawsn(x_1[up]) - expo[up] * dawsn(x_t[up])
    e0[right] = sqp2 * (expo[right] * erfcx(w_t[right]) - erfcx(w_1[right]))
    e0[left] = sqp2 * (erfcx(-w_1[left]) - expo[left] * erfcx(-w_t[left]))
    e0[inside] = sqp2 * np.exp(w_1[inside] ** 2) * (erf(-w_t[inside]) + erf(w_1[inside]))
    e0 /= root
    e1 = (1.0 - expo) / (2.0 * gamma) - beta / (2.0 * gamma) * e0
    e2 = (t1 - t * expo - e0) / (2.0 * gamma) - beta / (2.0 * gamma) * e1
    return c0 * e0 + c1 * e1 + c2 * e2
