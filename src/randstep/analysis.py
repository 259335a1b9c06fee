"""Estimators, rate fitting, discrete Gronwall bounds, and the closed-form
strong-error bounds used to check dominance empirically.

Two orderings of the error statistic are tracked: the "max of norm"
max_k |e_k|_(L^R) and the stronger "norm of max" | max_k |e_k|_H |_(L^R)
(or its Orlicz analogue); the former never exceeds the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampler import Ensemble

__all__ = [
    "EstimationError",
    "ErrorStatistics",
    "RateFit",
    "ConvergenceReport",
    "lr_norm_estimate",
    "orlicz_norm_estimate",
    "error_statistics",
    "fit_rate",
    "gronwall_uniform",
    "gronwall_special",
    "gronwall_nonuniform",
    "derived_lipschitz",
    "theoretical_bound",
    "convergence_report",
]

BOUND_SETTINGS = ("banach", "gelfand_orlicz", "gelfand_l2_centred")

# Byte budget of one block of error_statistics' per-step powers, whose
# whole (N + 1, M) array would be as large as the norms.
_STEP_BLOCK_BYTES = 2**20


class EstimationError(RuntimeError):
    """An estimator could not produce a value from the given samples."""


def lr_norm_estimate(samples: np.ndarray, r: float) -> float:
    """Empirical L^R norm (mean of x^R)^(1/R) of non-negative samples."""
    samples = _check_lr_samples(samples, r)
    return float(np.mean(samples**r) ** (1.0 / r))


def _check_lr_samples(samples: np.ndarray, r: float) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample")
    if r < 1.0:
        raise ValueError(f"order must be >= 1, got {r}")
    if np.any(samples < 0.0):
        raise ValueError("samples must be non-negative")
    return samples


def _young_mean(samples: np.ndarray, k: float, young) -> float:
    z = samples / k
    if young == "psi2":
        with np.errstate(over="ignore"):
            return float(np.mean(np.expm1(z * z)))
    return float(np.mean(z ** float(young)))


def orlicz_norm_estimate(samples: np.ndarray, young="psi2", rel_tol: float = 1e-6) -> float:
    """Orlicz norm inf{k > 0 : mean(Psi(x / k)) <= 1} by bisection.

    young is "psi2" for Psi(z) = exp(z^2) - 1, or a number R for the
    power function Psi(z) = z^R.  The objective is strictly decreasing in
    k; the bracket [max(x)/50, 50 max(x)] must straddle the crossing.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample")
    if np.any(samples < 0.0):
        raise ValueError("samples must be non-negative")
    top = float(samples.max())
    if top == 0.0:
        return 0.0
    lo, hi = top / 50.0, top * 50.0
    if _young_mean(samples, lo, young) < 1.0:
        raise EstimationError("Orlicz objective already below 1 at the lower bracket")
    if _young_mean(samples, hi, young) > 1.0:
        raise EstimationError("Orlicz objective still above 1 at the upper bracket: heavy tail?")
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if _young_mean(samples, mid, young) > 1.0:
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


def _step_means(norms: np.ndarray, r: float) -> np.ndarray:
    """mean_i norms[i, k]^r for every step k, by blocks of step columns.
    With the steps as contiguous rows each mean sums exactly as
    lr_norm_estimate of that step's column does, whatever the block."""
    cols = max(1, _STEP_BLOCK_BYTES // (8 * norms.shape[0]))
    return np.concatenate([
        np.mean(np.power(norms[:, k:k + cols].T, r, order="C"), axis=1)
        for k in range(0, norms.shape[1], cols)
    ])


def error_statistics(ensemble: Ensemble, r: float = 2.0, young: str | None = "psi2") -> ErrorStatistics:
    """Both error orderings (and optionally the Orlicz norm of the max)."""
    norms = _check_lr_samples(ensemble.error_h_norms(), r)
    max_of_norm = float(np.max(_step_means(norms, r)) ** (1.0 / r))
    per_traj_max = norms.max(axis=1)
    norm_of_max = lr_norm_estimate(per_traj_max, r)
    psi2 = orlicz_norm_estimate(per_traj_max, "psi2") if young == "psi2" else None
    return ErrorStatistics(ensemble.grid.mesh, ensemble.size, r, max_of_norm, norm_of_max, psi2)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def fit_rate(points) -> RateFit:
    """Least-squares slope of log(err) against log(h)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 3:
        raise ValueError("need at least three (h, err) pairs")
    h, err = points[:, 0], points[:, 1]
    if np.unique(h).size != h.size:
        raise ValueError("mesh values must be distinct")
    if np.any(err <= 0.0) or np.any(h <= 0.0):
        raise ValueError("mesh and error values must be positive")
    x, y = np.log(h), np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if total < 1e-30 else 1.0 - float(np.sum(residual**2)) / float(total)
    return RateFit(float(slope), float(intercept), r2)


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
    """Sum of the non-constant coefficients of (1 + 2x)(1 + L x)^2, the
    one-step growth constant of the squared-error recursion."""
    if l_psi < 0.0:
        raise ValueError(f"Lipschitz constant must be >= 0, got {l_psi}")
    poly = np.polynomial.Polynomial([1.0, 2.0]) * np.polynomial.Polynomial([1.0, l_psi]) ** 2
    return float(poly.coef[1:].sum())


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


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-mesh error series with the fitted rate and theoretical values.

    The fit is computed on the norm-of-max L^R column.
    """

    stats: tuple[ErrorStatistics, ...]
    fit: RateFit
    theory_slope: float | None = None
    bounds: tuple[float, ...] | None = None
    fingerprint: str | None = None
    columns: tuple[str, ...] = field(
        default=("h", "err_l2_maxnorm", "err_l2_normmax", "err_psi2", "bound"), repr=False
    )

    def rows(self) -> list[tuple]:
        out = []
        for i, st in enumerate(self.stats):
            bound = None if self.bounds is None else self.bounds[i]
            out.append((st.mesh, st.max_of_norm, st.norm_of_max, st.psi2_norm_of_max, bound))
        return out

    def to_json_dict(self) -> dict:
        series = [
            {
                "h": st.mesh,
                "err_l2_maxnorm": st.max_of_norm,
                "err_l2_normmax": st.norm_of_max,
                "err_psi2": st.psi2_norm_of_max,
                "samples": st.sample_size,
                "r": st.r,
            }
            for st in self.stats
        ]
        return {
            "series": series,
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "r2": self.fit.r_squared,
            "theory_slope": self.theory_slope,
            "theory": None if self.bounds is None else list(self.bounds),
            "fingerprint": self.fingerprint,
        }


def convergence_report(
    stats: list[ErrorStatistics],
    theory_slope: float | None = None,
    bounds: list[float] | None = None,
    fingerprint: str | None = None,
) -> ConvergenceReport:
    points = [(st.mesh, st.norm_of_max) for st in stats]
    fit = fit_rate(points)
    return ConvergenceReport(
        tuple(stats),
        fit,
        theory_slope,
        None if bounds is None else tuple(bounds),
        fingerprint,
    )
