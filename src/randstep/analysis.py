"""Estimators, rate fitting, discrete Gronwall bounds, and the closed-form
strong-error bounds used to check dominance empirically.

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
    "derived_lipschitz",
    "theoretical_bound",
]

BOUND_SETTINGS = ("banach", "gelfand_orlicz", "gelfand_l2_centred")

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


def _psi2_mean(samples: np.ndarray, k: float) -> float:
    z = samples / k
    with np.errstate(over="ignore"):
        return float(np.mean(np.expm1(z * z)))


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
    while (hi - lo) > _ORLICZ_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _psi2_mean(samples, mid) > 1.0:
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
    telescoped recursion supports.
    """
    if min(y0, a, b) < 0.0:
        raise ValueError("y0, A, B must be non-negative")
    if p < 1.0:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if h <= 0.0 or horizon <= 0.0:
        raise ValueError("h and T must be positive")
    n = horizon / h
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"h = {h} does not divide the horizon {horizon}")
    if a == 0.0:
        return y0 + b * horizon * h ** (p - 1.0)
    grow = math.exp(a * horizon)
    return grow * y0 + (b / a) * (grow - 1.0) * h ** (p - 1.0)


def gronwall_special(c: float, g: np.ndarray) -> np.ndarray:
    """Bounds c * exp(prefix sums of g) for y_(k+1) <= c + sum_(j<=k) g_j y_j.

    Requires y_0 <= c for the recursion hypothesis to propagate; entry k
    of the result bounds y_(k+1).
    """
    g = np.asarray(g, dtype=float)
    if c < 0.0 or np.any(g < 0.0):
        raise ValueError("c and the g sequence must be non-negative")
    return c * np.exp(np.cumsum(g))


def gronwall_nonuniform(y0: float, a: float, h_seq: np.ndarray, b_seq: np.ndarray) -> np.ndarray:
    """Bounds (y_0 + sum_l b_l) exp(A sum_(j<=k) h_j), entry k bounding y_(k+1),
    for the recursion y_(k+1) <= (1 + A h_k) y_k + b_k."""
    h_seq = np.asarray(h_seq, dtype=float)
    b_seq = np.asarray(b_seq, dtype=float)
    if h_seq.shape != b_seq.shape:
        raise ValueError("step and increment sequences must have equal length")
    if y0 < 0.0 or a < 0.0 or np.any(h_seq < 0.0) or np.any(b_seq < 0.0):
        raise ValueError("all inputs must be non-negative")
    return (y0 + b_seq.sum()) * np.exp(a * np.cumsum(h_seq))


def derived_lipschitz(l_psi: float) -> float:
    """3 L^2 + 6 L + 2, the non-constant coefficients of (1 + 2x)(1 + L x)^2
    summed: the one-step growth constant of the squared-error recursion."""
    if l_psi < 0.0:
        raise ValueError(f"Lipschitz constant must be >= 0, got {l_psi}")
    return 3.0 * l_psi * l_psi + 6.0 * l_psi + 2.0


def theoretical_bound(
    setting: str,
    h: float,
    *,
    c_phi_psi: float,
    c_xi: float,
    lipschitz: float,
    q: float,
    p: float,
    horizon: float,
    e0: float = 0.0,
    kappa_bdg: float = 2.0,
    h_star: float | None = None,
) -> float:
    """Closed-form strong-error bound at mesh width h.

    "banach":             (e0 + C h^q T + C_xi h^p T) exp(L T) with the
                          flow Lipschitz constant L.
    "gelfand_orlicz":     the same shape with the method Lipschitz
                          constant and the sup truncation constant.
    "gelfand_l2_centred": the centred-independent L2 bound; its closed
                          form bounds the squared norm, so the square
                          root is returned to stay comparable with the
                          other settings.  Requires h <= min(1, h*).
    """
    if h <= 0.0:
        raise ValueError(f"mesh width must be positive, got {h}")
    if min(c_phi_psi, c_xi, e0) < 0.0 or lipschitz < 0.0:
        raise ValueError("bound constants must be non-negative")
    if setting in ("banach", "gelfand_orlicz"):
        return (e0 + c_phi_psi * h**q * horizon + c_xi * h**p * horizon) * math.exp(
            lipschitz * horizon
        )
    if setting == "gelfand_l2_centred":
        if h > 1.0 or (h_star is not None and h > h_star):
            raise ValueError(f"mesh {h} outside the admissible range h <= min(1, h*)")
        l_prime = derived_lipschitz(lipschitz)
        val = 2.0 * (
            e0**2
            + 4.0 * c_phi_psi**2 * h ** (2.0 * q) * horizon
            + c_xi**2 * horizon * h ** (2.0 * p + 1.0) * (1.0 + kappa_bdg**2 * (1.0 + l_prime))
        ) * math.exp(2.0 * l_prime * horizon)
        return math.sqrt(val)
    raise ValueError(f"unknown setting {setting!r}, expected one of {BOUND_SETTINGS}")
