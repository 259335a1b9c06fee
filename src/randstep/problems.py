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
a mode; f is taken in blocks of whole steps that fit `randomisation`'s
byte budget.  The forcing response f is one series per (step, mode)
entry in the integrals f_k(z) = int_0^1 s^k e^(-z s) ds, summed by one
stable evaluator, `_poly_exp_sum`, that covers every sign and size of z.
Each entry takes its own order from a tail bound in both mu = gamma h^2
and z; an entry that no order up to _ORDER_CAP reaches is the sum of the
same response over equal substeps with |mu| <= 1, by a recursive call
per group of split entries whose substeps fit a quarter of a full block.

The scalar test problem u' = rate * u (any sign of rate) is included via
`scalar_linear`; growth corresponds to a negative effective scaling.
`Problem`, and so a config, admits any alpha that does not vanish
identically, growth included; only `heat_1d` requires alpha > 0 on [0, T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import randomisation
from .spaces import SpaceDescriptor, _check_dimension, laplacian_1d

__all__ = [
    "Problem",
    "heat_1d",
    "scalar_linear",
    "exact_flow",
    "flow_table",
]

# highest order a series response sums: an entry that needs more is split
# into substeps with |mu| <= 1, whose order is at most 19, so they split no further
_ORDER_CAP = 24
# _MU_LIMITS[n] is the largest |mu| with |mu|^(n+1) / n! <= 1e-17, and
# _RHO_LIMITS[n] the largest rho with 2 rho^(n+1) <= 1e-17 (see _series_order)
_MU_LIMITS = np.array([(1e-17 * math.factorial(n)) ** (1.0 / (n + 1)) for n in range(_ORDER_CAP + 1)])
_RHO_LIMITS = np.array([5e-18 ** (1.0 / (n + 1)) for n in range(_ORDER_CAP + 1)])


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
            raise ValueError("time scaling alpha vanishes identically")
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
        if a1 == 0.0:  # else 0 * inf = NaN once t1 * t1 overflows, above about 1.34e154
            return a0 * (t1 - t0)
        return a0 * (t1 - t0) + 0.5 * a1 * (t1 * t1 - t0 * t0)

    def forcing_at(self, t) -> np.ndarray:
        """Per-mode forcing values b_j(t), shape t.shape + (J,); zeros if no forcing."""
        t = np.asarray(t, dtype=float)[..., None]
        if self.forcing is None:
            return np.zeros(t.shape[:-1] + (self.space.dimension,))
        b0, b1, b2 = self.forcing.T
        return b0 + b1 * t + b2 * t * t


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


def _check_steps(problem: Problem, steps, points) -> None:
    """Reject any step [t_k, t_k + h_k] that is empty, leaves [0, T] or is
    not finite (the negated test fails on NaN).  An end may pass T by a
    relative 1e-12, far above the rounding of t_k + h_k on a grid of [0, T]."""
    steps, points = np.atleast_1d(steps), np.atleast_1d(points)
    ends = points + steps
    bad = np.flatnonzero(~((steps > 0.0) & (points >= 0.0)
                           & (ends <= problem.horizon * (1.0 + 1e-12))))
    if bad.size:
        k = bad[0]
        fault = f"is empty or leaves [0, {problem.horizon}]" if np.isfinite(ends[k]) else "is not finite"
        raise ValueError(f"step {k} [{points[k]}, {ends[k]}] {fault}")


def _step_arrays(problem: Problem, steps, points) -> tuple[np.ndarray, np.ndarray]:
    """steps and points as float arrays of shape (N,), checked by
    `_check_steps`: the grid of a table builder."""
    steps, points = np.asarray(steps, dtype=float), np.asarray(points, dtype=float)
    if steps.ndim != 1 or steps.shape != points.shape:
        raise ValueError(f"steps and points must be 1-d arrays of one length, "
                         f"got shapes {steps.shape} and {points.shape}")
    _check_steps(problem, steps, points)
    return steps, points


def flow_table(problem: Problem, steps, points) -> tuple[np.ndarray, np.ndarray]:
    """Exact flow over each step [t_k, t_k + h_k] as u -> E[k] * u + f[k], for
    h_k and t_k of shape (N,); E and f have shape (N, J).

    E = exp(-lam int alpha) is vectorised over steps; f (zero without
    forcing) comes from the closed-form response integrals, taken over
    blocks of whole steps of at most randomisation.BLOCK_BYTES / 256 flat
    entries (or one step).  At the response's peak 6 flat arrays of the
    block's entries (modes, step ends, beta, gamma, the response) are
    alive beside those of the order group being summed: 26 on the finest
    grid of perfbench's oracle-affine, where that group is 45% of the
    block, and 20 where one group fills it (constant alpha).  So they fit
    in BLOCK_BYTES beside E and f, the substeps' included (see
    `_forcing_response`).
    """
    steps, points = _step_arrays(problem, steps, points)
    ends = points + steps
    decay = np.exp(-problem.space.eigenvalues * problem.alpha_integral(points, ends)[:, None])
    if problem.forcing is None:
        return decay, np.zeros_like(decay)
    response, width = np.empty_like(decay), decay.shape[1]
    count = max(1, randomisation.BLOCK_BYTES // (8 * 32 * width))
    for start in range(0, len(steps), count):
        rows = response[start:start + count]
        # flat entry i J + j is mode j of step start + i
        rows[:] = _forcing_response(problem, np.tile(np.arange(width), len(rows)),
                                    np.repeat(points[start:start + count], width),
                                    np.repeat(ends[start:start + count], width),
                                    count * width).reshape(rows.shape)
    return decay, response


def exact_flow(problem: Problem, h: float, t: float, x: np.ndarray) -> np.ndarray:
    """Exact solution operator: advance state x at time t by duration h.

    One row of `flow_table`, which checks the step (h = 0 is refused as
    an empty step).  Accepts stacked states of shape (..., J).
    """
    x = _check_dimension(x, problem.space.dimension)
    decay, response = flow_table(problem, [h], [t])
    return decay[0] * x + response[0]


def _forcing_response(problem: Problem, j: np.ndarray, t: np.ndarray, t1: np.ndarray,
                      room: int) -> np.ndarray:
    """Duhamel integrals int_t^t1 exp(-lam_j int_s^t1 alpha) b_j(s) ds of
    the flat entries (mode j[i], step [t[i], t1[i]]), shape j.shape.

    With g(s) = beta s + gamma s^2, beta = lam a0 and gamma = lam a1 / 2,
    the integral is int_t^t1 exp(g(s) - g(t1)) b(s) ds, which
    `_series_response` sums to the order `_series_order` gives each entry,
    one call per order.  An entry past _ORDER_CAP is the sum of the same
    integral over ceil(sqrt|mu|) equal substeps, each carried to t1 by the
    exact decay exp(g(hi) - g(t1)).  On a substep |mu| <= 1, so its order
    is at most 19 and the recursive call for the substeps splits none.
    The split entries take that call in groups of whole entries of at most
    room / 4 substeps (or one entry), room the entries of a full block of
    `flow_table`, so the substeps' temporaries fit beside the block's.
    """
    lam = problem.space.eigenvalues[j]
    a0, a1 = problem.alpha
    beta, gamma = lam * a0, 0.5 * lam * a1
    del lam
    order = _series_order(beta, gamma, t, t1)
    levels = np.flatnonzero(np.isin(np.arange(_ORDER_CAP + 1), order))  # not np.unique: numpy.ma
    groups = [np.flatnonzero(order == n) for n in levels]
    split = np.flatnonzero(order > _ORDER_CAP)
    del order
    value = np.empty(j.size)
    for n in levels:
        group = groups.pop(0)  # each group is freed once summed
        value[group] = _series_response(*problem.forcing[j[group]].T, beta[group], gamma[group],
                                        t[group], t1[group], int(n))
    h = t1[split] - t[split]
    counts = np.ceil(np.sqrt(np.abs(gamma[split]) * h ** 2)).astype(int)
    bounds, stop = np.cumsum(counts), 0
    while stop < split.size:  # whole entries of at most room / 4 substeps, or one entry
        start, below = stop, bounds[stop] - counts[stop] + room // 4
        stop = max(start + 1, int(np.searchsorted(bounds, below, "right")))
        group, count = split[start:stop], counts[start:stop]
        first, entry = np.cumsum(count) - count, np.repeat(group, count)
        index = np.arange(entry.size) - np.repeat(first, count)
        length = np.repeat(h[start:stop], count)
        count = np.repeat(count, count)
        # both ends of the whole step are kept exact
        lo = t[entry] + length * (index / count)
        hi = t1[entry] - length * ((count - 1 - index) / count)
        carry = np.exp((hi - t1[entry]) * (beta[entry] + gamma[entry] * (hi + t1[entry])))
        response = _forcing_response(problem, j[entry], lo, hi, room)
        value[group] = np.add.reduceat(response * carry, first)
    return value


def _series_order(beta, gamma, t, t1):
    """Order n of the series of `_series_response` over [t, t1], elementwise
    (broadcasting); above _ORDER_CAP where neither bound below reaches
    1e-17 within it.

    With mu = gamma h^2 and z = (beta + 2 gamma t1) h, term m of the
    series is tau_m ~ mu^m / m! f_2m(z).  As f_(k+2) <= f_k, and for z > 0
    also f_(k+2) <= (k+1)(k+2) / z^2 f_k,
    tau_(m+1) / tau_m <= |mu| / (m+1) min(1, (2m+1)(2m+2) / z^2).  From
    mu alone the order is the smallest n with |mu|^(n+1) / n! <= 1e-17.
    Where 4 |mu| <= z every ratio is at most 1/2 and, for m <= _ORDER_CAP,
    at most rho = 2 (2 _ORDER_CAP + 1) |mu| / z^2, so the tail past n is
    at most 2 rho^(n+1) of the first term.  Each entry takes the smaller
    order.  Without the guard the terms of a large-z entry grow again
    near m = z / 2 (alpha vanishing inside a step), which that bound
    misses.
    """
    h = t1 - t
    z = (beta + 2.0 * gamma * t1) * h
    size, square = np.abs(gamma * h * h), z * z
    rho = np.divide(2 * (2 * _ORDER_CAP + 1) * size, square, out=np.full_like(size, np.inf),
                    where=(square > 0.0) & (4.0 * size <= z))
    return np.minimum(np.searchsorted(_MU_LIMITS, size), np.searchsorted(_RHO_LIMITS, rho))


def _series_response(c0, c1, c2, beta, gamma, t, t1, n: int):
    """Series response to order n, elementwise over 1-D arrays.

    In u = s - t1, g(s) - g(t1) = B u + gamma u^2 with B = beta + 2 gamma t1.
    Expanding exp(gamma u^2) to order n and substituting u = -h sigma gives

        h * sum_(m <= n) mu^m / m! * (P0 f_2m - h P1 f_(2m+1) + h^2 P2 f_(2m+2)),

    mu = gamma h^2, P0 + P1 u + P2 u^2 = b(s), and f_k = f_k(B h) from
    `_poly_exp_sum`.
    """
    h = t1 - t
    mu = gamma * h * h
    p0 = c0 + c1 * t1 + c2 * t1 * t1
    p1 = -h * (c1 + 2.0 * c2 * t1)
    p2 = h * h * c2
    # the trailing 0.0 is the coefficient both past the last term (m = n + 1)
    # and before the first (m = -1, read as coef[-1])
    coef = [mu**m / math.factorial(m) for m in range(n + 1)] + [0.0]

    def weight(k):
        m = k // 2
        return coef[m] * p1 if k % 2 else coef[m] * p0 + coef[m - 1] * p2

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
    large z (e^(-z) may underflow to 0).  Entries outside the upward pass
    run it on a harmless stand-in z and are masked out of the sum; the
    downward pass, whose seed starts past kmax, runs on its own entries
    only.  The sum is accumulated as the recurrences run: memory stays a
    few arrays of z's shape, whatever kmax is.
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
    down = np.flatnonzero(split < kmax)
    if down.size:
        zd, split = z[down], split[down]
        widest = max(float(np.abs(zd).max()), 1.0)
        top, shrink = kmax, 0.0
        while shrink < 45.0:
            top += 1
            shrink += math.log(top / widest)
        ed = np.exp(-zd)
        fk = ed / np.maximum(top - zd, 1.0)  # endpoint-layer estimate of f_top
        for k in range(top, 1, -1):
            fk = (zd * fk + ed) / k  # now f_(k-1)
            if k <= kmax + 1:
                term = np.broadcast_to(weight(k - 1), z.shape)[down] * fk
                total[down] += np.where(k - 1 > split, term, 0.0)
    return total
