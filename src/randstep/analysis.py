"""Estimators, rate fitting, discrete Gronwall bounds, and the paper's
closed-form strong-error bound, against which dominance is checked
empirically.

Two orderings of the error statistic are tracked: the "max of norm"
max_k |e_k|_(L^R) and the stronger "norm of max" | max_k |e_k|_H |_(L^R)
(or its Orlicz analogue); the former never exceeds the latter.

Every L^R norm is the one root `_lr_root`: of the reduction `_lr_norms`,
whose one-column case is `lr_norm_estimate`, or of the per-task partials
a study's ensemble pass keeps (`_pooled_lr_norms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sampler import Ensemble, ReducedEnsemble

__all__ = [
    "EstimationError",
    "ErrorStatistics",
    "RateFit",
    "lr_norm_estimate",
    "orlicz_norm_estimate",
    "error_statistics",
    "fit_rate",
    "gronwall_uniform",
    "gronwall_special",
    "gronwall_nonuniform",
    "theoretical_bound",
]

_ORLICZ_REL_TOL = 1e-6


class EstimationError(RuntimeError):
    """An estimator could not produce a value from the given samples."""


def lr_norm_estimate(samples: np.ndarray, r: float) -> float:
    """Empirical L^R norm (mean of x^R)^(1/R) of non-negative samples."""
    samples = _checked_samples(samples, r)
    return float(_lr_norms(samples.reshape(-1, 1), r)[0])


def _lr_root(total: float, m: int, r: float, scale: float = 1.0) -> float:
    """scale (total / m)^(1/R): the L^R norm of m samples x from total, the
    sum of (x / scale)^R.  The one statement of the root, a scalar power
    (numpy's array power rounds differently)."""
    return scale * float(total / m) ** (1.0 / r)


def _lr_norms(samples: np.ndarray, r: float) -> np.ndarray:
    """(mean_i x_ik^R)^(1/R) for every column k of the finite, non-negative
    samples x, shape (M, K), one column at a time, so no temporary is
    larger than a column.  A column whose norm overflowed (above about
    1.3e154 at R = 2) is recomputed as s mean((x / s)^R)^(1/R) with s its
    largest sample."""
    norms = np.empty(samples.shape[1])
    m = samples.shape[0]
    with np.errstate(over="ignore"):
        for k, x in enumerate(samples.T):
            norms[k] = _lr_root(np.add.reduce(np.power(x, r)), m, r)
            if math.isinf(norms[k]):
                s = x.max()
                norms[k] = _lr_root(np.add.reduce(np.power(x / s, r)), m, r, s)
    return norms


def _pooled_lr_norms(tops: np.ndarray, sums: np.ndarray, m: int, r: float) -> np.ndarray:
    """The `_lr_norms` of m finite, non-negative samples per column from
    partials of disjoint groups of them, shape (G, K) each: tops, each
    group's largest sample, and sums, its sum of (x / top)^R.  Each column
    is rescaled to its largest sample s, so nothing overflows, summed in
    group order and reported as s mean((x / s)^R)^(1/R)."""
    top = tops.max(axis=0)
    ratio = np.divide(tops, top, out=np.zeros_like(tops), where=top > 0.0)
    totals = np.add.reduce(np.power(ratio, r) * sums, axis=0)
    return np.array([_lr_root(total, m, r, s) for total, s in zip(totals.tolist(), top.tolist())])


def _checked_samples(samples: np.ndarray, r: float = 1.0, what: str = "samples") -> np.ndarray:
    """samples as a float array, checked non-empty, finite and non-negative
    by one min and one max, which allocate nothing the size of samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError(f"empty {what}")
    if not (1.0 <= r < math.inf):
        raise ValueError(f"order must be >= 1 and finite, got {r}")
    lo, hi = samples.min(), samples.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} must be finite")
    if lo < 0.0:
        raise ValueError(f"{what} must be non-negative")
    return samples


def _psi2_mean(samples: np.ndarray, k: float, z: np.ndarray) -> float:
    """mean(expm1((x / k)^2)) through z, scratch of samples' shape that
    does not alias it: the same operations as on fresh temporaries."""
    np.divide(samples, k, out=z)
    with np.errstate(over="ignore"):
        return float(np.mean(np.expm1(np.multiply(z, z, out=z), out=z)))


def orlicz_norm_estimate(samples: np.ndarray, young: str = "psi2") -> float:
    """Orlicz norm inf{k > 0 : mean(Psi(x / k)) <= 1}.

    young is "psi2" for Psi(z) = exp(z^2) - 1, found by bisection to a
    relative width _ORLICZ_REL_TOL (the objective decreases strictly in k,
    and the bracket [max(x)/50, 50 max(x)] straddles the crossing).  The
    Orlicz norm of Psi(z) = z^R is the L^R norm, `lr_norm_estimate`.
    """
    if young != "psi2":
        raise ValueError(f"unsupported young function {young!r}, expected 'psi2'")
    samples = _checked_samples(samples)
    top = float(samples.max())
    if top == 0.0:
        return 0.0
    # this brackets the crossing for any finite samples: at top / 50 the top
    # sample gives expm1(2500) = inf > 1, at 50 top each term is <= expm1(1 / 2500) < 1
    lo, hi = top / 50.0, top * 50.0
    if not math.isfinite(hi):  # the norm is positively homogeneous
        return top * orlicz_norm_estimate(samples / top)
    z = np.empty_like(samples)  # one scratch for every step, laid out as x / k would be
    while (hi - lo) > _ORLICZ_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _psi2_mean(samples, mid, z) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ErrorStatistics:
    """Per-grid strong-error estimates from one ensemble."""

    mesh: float
    sample_size: int
    r: float
    max_of_norm: float
    norm_of_max: float
    psi2_norm_of_max: float | None = None


def error_statistics(ensemble: Ensemble | ReducedEnsemble, r: float = 2.0,
                     young: str | None = "psi2") -> ErrorStatistics:
    """Both error orderings (and optionally the Orlicz norm of the max)
    from the per-step L^R norms and the per-trajectory maxima: of an
    Ensemble's checked norms (`_lr_norms`), or of a ReducedEnsemble, whose
    maxima are checked (any NaN or inf of a norm reaches them) and whose
    per-task partials at order r give the per-step norms
    (`_pooled_lr_norms`)."""
    if young not in ("psi2", None):
        raise ValueError(f"unsupported young function {young!r}, expected 'psi2' or None")
    what = f"error norms at h = {ensemble.grid.mesh:g}"
    if hasattr(ensemble, "maxima"):
        per_traj_max = _checked_samples(ensemble.maxima, r, what)
        per_step = _pooled_lr_norms(ensemble.tops, ensemble.sums[r], ensemble.size, r)
    else:
        norms = _checked_samples(ensemble.error_h_norms(), r, what)
        per_step, per_traj_max = _lr_norms(norms, r), norms.max(axis=1)
    max_of_norm = float(np.max(per_step))
    norm_of_max = lr_norm_estimate(per_traj_max, r)
    psi2 = orlicz_norm_estimate(per_traj_max, "psi2") if young == "psi2" else None
    return ErrorStatistics(ensemble.grid.mesh, ensemble.size, r, max_of_norm, norm_of_max, psi2)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def fit_rate(points) -> RateFit:
    """Least-squares line of log(err) against log(h), in closed form."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 3:
        raise ValueError("need at least three (h, err) pairs")
    h, err = points[:, 0], points[:, 1]
    ordered = np.sort(h)  # not np.unique, whose first call imports numpy.ma
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("mesh values must be distinct")
    if np.any(err <= 0.0) or np.any(h <= 0.0):
        raise ValueError("mesh and error values must be positive")
    x, y = np.log(h), np.log(err)
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    intercept = float(y.mean() - slope * x.mean())
    residual = y - (slope * x + intercept)
    total = np.sum(dy**2)
    r2 = 1.0 if total < 1e-30 else 1.0 - float(np.sum(residual**2)) / float(total)
    return RateFit(slope, intercept, r2)


def gronwall_uniform(y0: float, a: float, b: float, p: float, h: float, horizon: float) -> float:
    """Bound for y_(k+1) <= (1 + A h) y_k + B h^p on a uniform grid:

        y_k <= e^(A T) y_0 + (B / A) (e^(A T) - 1) h^(p - 1).

    At A = 0 the prefactor A^(-1)(e^(A T) - 1) is taken as its limit T,
    i.e. the bound degenerates to y_0 + B T h^(p-1), which is what the
    telescoped recursion supports.  A bound that does not fit a double is
    refused, naming what overflowed.
    """
    # a NaN passes every sign check, so finiteness is checked first
    if not all(map(math.isfinite, (y0, a, b, p, h, horizon))):
        raise ValueError("y0, A, B, p, h and T must be finite")
    if min(y0, a, b) < 0.0:
        raise ValueError("y0, A, B must be non-negative")
    if p < 1.0:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if h <= 0.0 or horizon <= 0.0:
        raise ValueError("h and T must be positive")
    n = horizon / h
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"h = {h} does not divide the horizon {horizon}")
    try:  # a float power raises where numpy's would give inf
        power = h ** (p - 1.0)
    except OverflowError:
        raise ValueError(f"the power h^(p - 1) of the bound overflows at h = {h}, "
                         f"p = {p}") from None
    if a == 0.0:
        bound = y0 + b * horizon * power
    else:  # expm1 keeps the prefactor's limit T where e^(A T) - 1 would cancel to 0
        bound = _growth(a, horizon, "A") * y0 + b * (math.expm1(a * horizon) / a) * power
    if not math.isfinite(bound):
        raise ValueError(f"the bound overflows at y0 = {y0}, A = {a}, B = {b}, p = {p}, "
                         f"h = {h}, T = {horizon}")
    return bound


def gronwall_special(c: float, g: np.ndarray) -> np.ndarray:
    """Bounds c * exp(prefix sums of g) for y_(k+1) <= c + sum_(j<=k) g_j y_j.

    Requires y_0 <= c for the recursion hypothesis to propagate; entry k
    of the result bounds y_(k+1).  Bounds that do not fit a double are
    refused, naming the first.
    """
    g = np.asarray(g, dtype=float)
    if not (math.isfinite(c) and np.all(np.isfinite(g))):
        raise ValueError("c and the g sequence must be finite")
    if c < 0.0 or np.any(g < 0.0):
        raise ValueError("c and the g sequence must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
        return _finite_bounds(c * np.exp(np.cumsum(g)), "c exp(g_0 + ... + g_k)")


def gronwall_nonuniform(y0: float, a: float, h_seq: np.ndarray, b_seq: np.ndarray) -> np.ndarray:
    """Bounds (y_0 + sum_l b_l) exp(A sum_(j<=k) h_j), entry k bounding y_(k+1),
    for the recursion y_(k+1) <= (1 + A h_k) y_k + b_k.  Bounds that do not
    fit a double are refused, naming the first."""
    h_seq = np.asarray(h_seq, dtype=float)
    b_seq = np.asarray(b_seq, dtype=float)
    if h_seq.shape != b_seq.shape:
        raise ValueError("step and increment sequences must have equal length")
    if not (math.isfinite(y0) and math.isfinite(a) and np.all(np.isfinite(h_seq))
            and np.all(np.isfinite(b_seq))):
        raise ValueError("all inputs must be finite")
    if y0 < 0.0 or a < 0.0 or np.any(h_seq < 0.0) or np.any(b_seq < 0.0):
        raise ValueError("all inputs must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
        return _finite_bounds((y0 + b_seq.sum()) * np.exp(a * np.cumsum(h_seq)),
                              "(y_0 + sum_l b_l) exp(A sum_(j<=k) h_j)")


def _finite_bounds(bounds: np.ndarray, what: str) -> np.ndarray:
    """bounds, refused at the first entry k that overflowed (to inf, or to
    NaN as 0 * inf)."""
    bad = np.flatnonzero(~np.isfinite(bounds))
    if bad.size:
        raise ValueError(f"the bound {what} overflows at k = {bad[0]}")
    return bounds


def theoretical_bound(h: float, *, c_phi_psi: float, c_xi: float, lipschitz: float,
                      q: float, p: float, horizon: float) -> float:
    """The strong-error bound (C h^q T + C_xi h^p T) exp(L T) at mesh width
    h: C the sup truncation constant of the method, of order q, C_xi the
    noise amplitude, of order p, and L the method's Lipschitz constant.
    Every run starts from U_0 = theta, so there is no initial-error term.
    A bound that does not fit a double is refused, naming what overflowed.
    """
    # a NaN passes every sign check, so finiteness is checked first
    for name, value in (("mesh width", h), ("order q", q), ("order p", p), ("horizon", horizon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if h <= 0.0:
        raise ValueError(f"mesh width must be positive, got {h}")
    constants = (c_phi_psi, c_xi, lipschitz)
    if not all(map(math.isfinite, constants)):
        raise ValueError("bound constants must be finite")
    if min(constants) < 0.0:
        raise ValueError("bound constants must be non-negative")
    try:  # a float power raises where numpy's would give inf
        terms = c_phi_psi * h**q * horizon + c_xi * h**p * horizon
    except OverflowError:
        raise ValueError(f"the power h^q or h^p of the bound overflows at h = {h}, "
                         f"q = {q}, p = {p}") from None
    bound = terms * _growth(lipschitz, horizon, "L")
    if not math.isfinite(bound):
        raise ValueError(f"the bound overflows at h = {h}, C = {c_phi_psi}, C_xi = {c_xi}, "
                         f"L = {lipschitz}, T = {horizon}")
    return bound


def _growth(rate: float, horizon: float, name: str) -> float:
    """A bound's growth factor exp(rate T), rate named name, refused where
    it overflows."""
    try:  # math.exp raises where numpy's exp would give inf
        return math.exp(rate * horizon)
    except OverflowError:
        raise ValueError(f"the growth factor exp({name} T) of the bound overflows at "
                         f"{name} = {rate}, T = {horizon}") from None
