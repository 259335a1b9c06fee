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

The scalar test problem u' = rate * u (any sign of rate) is included via
`scalar_linear`; growth corresponds to a negative effective scaling and
is admitted only for such classical one-dimensional instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn, erf, erfcx

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
    return decay, np.array(
        [_forcing_response(problem, float(t), float(t1)) for t, t1 in zip(points, ends)]
    )


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


def _forcing_response(problem: Problem, t: float, t1: float) -> np.ndarray:
    """Per-mode Duhamel integral int_t^t1 exp(-lam int_s^t1 alpha) b(s) ds."""
    lam = problem.space.eigenvalues
    a0, a1 = problem.alpha
    h = t1 - t
    if a1 == 0.0:
        return _response_const_alpha(problem.forcing, lam * a0, t1, h)
    # quadratic coefficient of the log integrating factor, per mode
    gamma = 0.5 * lam * a1
    out = np.empty(lam.size)
    for j in range(lam.size):
        if abs(gamma[j]) * h * h <= _SERIES_LIMIT:
            out[j] = _response_affine_series(problem.forcing[j], lam[j] * a0, gamma[j], t, t1)
        else:
            out[j] = _response_affine_erf(problem.forcing[j], lam[j] * a0, gamma[j], t, t1)
    return out


def _poly_exp_table(z: np.ndarray, kmax: int) -> np.ndarray:
    """f_k(z) = int_0^1 sigma^k exp(-z sigma) d sigma for k = 0..kmax.

    Series below |z| = 0.5; otherwise closed form for f_0 and the upward
    recurrence f_k = (k f_(k-1) - e^(-z)) / z, stable for either sign.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty((kmax + 1,) + z.shape)
    small = np.abs(z) < 0.5
    if np.any(small):
        zs = z[small]
        for k in range(kmax + 1):
            acc = np.zeros_like(zs)
            term = np.ones_like(zs)
            for m in range(18):
                acc += term / (k + m + 1)
                term *= -zs / (m + 1)
            out[k][small] = acc
    if np.any(~small):
        zb = z[~small]
        ez = np.exp(-zb)
        fk = (1.0 - ez) / zb
        out[0][~small] = fk
        for k in range(1, kmax + 1):
            fk = (k * fk - ez) / zb
            out[k][~small] = fk
    return out


def _response_const_alpha(forcing: np.ndarray, c: np.ndarray, t1: float, h: float) -> np.ndarray:
    # substitute tau = t1 - s:  int_0^h exp(-c tau) b(t1 - tau) d tau
    q0 = forcing[:, 0] + forcing[:, 1] * t1 + forcing[:, 2] * t1 * t1
    q1 = -(forcing[:, 1] + 2.0 * forcing[:, 2] * t1)
    q2 = forcing[:, 2]
    f = _poly_exp_table(c * h, 2)
    return h * (q0 * f[0] + q1 * h * f[1] + q2 * h * h * f[2])


def _poly_exp_column(z: float, kmax: int) -> np.ndarray:
    """f_k(z) = int_0^1 sigma^k exp(-z sigma) d sigma for k = 0..kmax, scalar z.

    Three regimes keep every k stable: the defining series (all terms
    positive for z <= 0, mildly alternating up to z = 1); for z far above
    kmax the closed form f_k = (k!/z^(k+1)) (1 - e^(-z) Q_k(z)) with
    Q_k(z) = sum_(i<=k) z^i/i!, whose subtracted part is small there; and
    in between the backward recurrence f_(k-1) = (z f_k + e^(-z)) / k,
    contractive for k > z, seeded well above kmax (forward below the
    k = z crossover, where forward is the stable direction).
    """
    out = np.empty(kmax + 1)
    if z <= 1.0:
        # series sum_m (-z)^m / (m! (k+m+1)); no cancellation for z <= 0
        for k in range(kmax + 1):
            acc, term, m = 0.0, 1.0, 0
            while True:
                piece = term / (k + m + 1)
                acc += piece
                if abs(piece) <= 1e-18 * abs(acc) and m > abs(z):
                    break
                m += 1
                if m > 800:
                    break
                term *= -z / m
            out[k] = acc
        return out
    log_z = math.log(z)
    if z >= 2.0 * kmax + 40.0:
        ez = math.exp(-z) if z < 700.0 else 0.0
        for k in range(kmax + 1):
            q_tail = 1.0
            if ez > 0.0:
                for i in range(k, 0, -1):
                    q_tail = 1.0 + q_tail * z / i
            out[k] = math.exp(math.lgamma(k + 1) - (k + 1) * log_z) * (1.0 - ez * q_tail)
        return out
    ez = math.exp(-z)
    split = min(kmax, int(z))
    fk = (1.0 - ez) / z
    out[0] = fk
    for k in range(1, split + 1):
        fk = (k * fk - ez) / z
        out[k] = fk
    if split < kmax:
        # extend until the accumulated contraction kills the seed error
        top, shrink = kmax, 0.0
        while shrink < 45.0:
            top += 1
            shrink += math.log(top / z)
        gk = ez / max(top - z, 1.0)  # endpoint-layer estimate of f_top
        for k in range(top, split, -1):
            gk = (z * gk + ez) / k
            if k - 1 <= kmax:
                out[k - 1] = gk
    return out


def _response_affine_series(
    coeffs: np.ndarray, beta: float, gamma: float, t: float, t1: float
) -> float:
    """Series evaluation of the affine-scaling response in u = s - t1.

    With g(s) - g(t1) = B u + gamma u^2, B = beta + 2 gamma t1, the factor
    exp(gamma u^2) is expanded to order n with |gamma| Delta^2 <= 1, so the
    truncation error is below 1 / 25! of the result.
    """
    delta = t1 - t
    eps = abs(gamma) * delta * delta
    p0 = float(coeffs[0] + coeffs[1] * t1 + coeffs[2] * t1 * t1)
    p1 = float(coeffs[1] + 2.0 * coeffs[2] * t1)
    p2 = float(coeffs[2])
    n = 1
    fac = 1.0
    while eps**(n + 1) / fac > 1e-17 and n < 24:
        n += 1
        fac *= n
    kmax = 2 * n + 2
    q = np.zeros(kmax + 1)
    weight = 1.0
    for m in range(n + 1):
        q[2 * m] += weight * p0
        q[2 * m + 1] += weight * p1
        q[2 * m + 2] += weight * p2
        weight *= gamma / (m + 1)
    f = _poly_exp_column((beta + 2.0 * gamma * t1) * delta, kmax)
    k = np.arange(kmax + 1)
    return float(np.sum(q * (-delta) ** k * delta * f))


def _response_affine_erf(
    coeffs: np.ndarray, beta: float, gamma: float, t: float, t1: float
) -> float:
    """int_t^t1 exp(g(s) - g(t1)) b(s) ds with g(s) = beta s + gamma s^2.

    Completed-square evaluation through dawsn (gamma > 0) or erfcx / erf
    (gamma < 0), arranged so every term stays bounded whenever g is
    increasing on the step (the dissipative case).
    """
    dg = beta * (t - t1) + gamma * (t * t - t1 * t1)  # g(t) - g(t1)
    expo = math.exp(dg)
    if gamma > 0.0:
        sg = math.sqrt(gamma)
        x_t = sg * t + beta / (2.0 * sg)
        x_1 = sg * t1 + beta / (2.0 * sg)
        e0 = (dawsn(x_1) - expo * dawsn(x_t)) / sg
    else:
        sd = math.sqrt(-gamma)
        w_t = sd * t - beta / (2.0 * sd)
        w_1 = sd * t1 - beta / (2.0 * sd)
        sqp2 = 0.5 * math.sqrt(math.pi)
        if w_t >= 0.0:
            q = sqp2 * (expo * erfcx(w_t) - erfcx(w_1))
        elif w_1 <= 0.0:
            q = sqp2 * (erfcx(-w_1) - expo * erfcx(-w_t))
        else:
            q = sqp2 * math.exp(w_1 * w_1) * (erf(-w_t) + erf(w_1))
        e0 = q / sd
    e1 = (1.0 - expo) / (2.0 * gamma) - beta / (2.0 * gamma) * e0
    e2 = (t1 - t * expo - e0) / (2.0 * gamma) - beta / (2.0 * gamma) * e1
    return float(coeffs[0] * e0 + coeffs[1] * e1 + coeffs[2] * e2)
