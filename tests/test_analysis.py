import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from randstep import (
    EstimationError,
    build_grid,
    centred_gaussian,
    error_statistics,
    fit_rate,
    gronwall_nonuniform,
    gronwall_special,
    gronwall_uniform,
    heat_1d,
    implicit_euler,
    lr_norm_estimate,
    orlicz_norm_estimate,
    run_ensemble,
    theoretical_bound,
    two_stage,
)
from randstep import analysis


def _column_norms(norms: np.ndarray, r: float) -> np.ndarray:
    """lr_norm_estimate of each column of norms: each step's L^R norm."""
    return np.array([lr_norm_estimate(x, r) for x in norms.T])


def _spike(m: int) -> np.ndarray:
    sample = np.zeros(m)
    sample[0] = 1.0
    return sample


class TestLrNorm:
    def test_constant_sample(self):
        assert lr_norm_estimate(np.array([2.0, 2.0, 2.0]), 2.0) == pytest.approx(2.0)

    def test_direct(self):
        assert lr_norm_estimate(np.array([0.0, 2.0]), 2.0) == pytest.approx(math.sqrt(2.0))
        assert lr_norm_estimate(np.array([0.0, 2.0]), 1.0) == pytest.approx(1.0)

    def test_monotone_in_r(self):
        rng = np.random.default_rng(3)
        sample = np.abs(rng.standard_normal(500))
        values = [lr_norm_estimate(sample, r) for r in (1.0, 1.5, 2.0, 3.0, 6.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            lr_norm_estimate(np.array([]), 2.0)
        with pytest.raises(ValueError):
            lr_norm_estimate(np.array([1.0]), 0.5)
        with pytest.raises(ValueError):
            lr_norm_estimate(np.array([-1.0]), 2.0)

    def test_subnormal_samples_end(self):
        # below the normal range the bracket's width tolerance underflowed
        # to 0 and the bisection never ended; the norm is homogeneous
        est = orlicz_norm_estimate(np.array([1e-320, 5e-321]), "psi2")
        assert est == pytest.approx(1e-320 * orlicz_norm_estimate(np.array([1.0, 0.5])),
                                    rel=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            lr_norm_estimate(np.array([1.0, bad, 2.0]), 2.0)


    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_order_rejected(self, r):
        with pytest.raises(ValueError, match="order must be >= 1 and finite"):
            lr_norm_estimate(np.ones(4), r)

    def test_huge_samples_do_not_overflow(self):
        # 1e200^2 overflows; the sample's largest value scales it first
        assert lr_norm_estimate(np.full(10, 1e200), 2) == 1e200

    @pytest.mark.parametrize("value,r", [(1e-170, 2.0), (3e-160, 2.0), (0.5, 2000.0)])
    def test_tiny_samples_do_not_underflow(self, value, r):
        # 1e-170^2 underflows to 0, 3e-160^2 to a subnormal that keeps a few
        # digits, and 0.5^2000 to 0; the sample's largest value scales each
        # first, so a constant sample is its own norm
        out = lr_norm_estimate(np.full(10, value), r)
        assert type(out) is float and out == value

    def test_tiny_spike_is_rescaled(self):
        # a spike of 1e-170 among zeros: m^(-1/R) of the spike, not 0
        assert lr_norm_estimate(1e-170 * _spike(1000), 2.0) == pytest.approx(
            1e-170 / math.sqrt(1000), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-170, 0.0])
    def test_every_path_returns_a_python_float(self, scale):
        # the plain sum, the rescaled sum past overflow and below underflow,
        # and all zeros, which stay the plain sum: each scales with x
        out = lr_norm_estimate(scale * np.arange(1.0, 5.0), 2.0)
        unit = lr_norm_estimate(np.arange(1.0, 5.0), 2.0)
        assert type(out) is float and out == pytest.approx(scale * unit, rel=1e-15, abs=0.0)

    def test_single_spike(self):
        # one spike in a sea of zeros: the L^R norm is m^(-1/R), below the
        # sample's largest value by far
        sample = _spike(100_000)
        assert lr_norm_estimate(sample, 2.0) == pytest.approx(1.0 / math.sqrt(100_000), rel=1e-15)
        assert lr_norm_estimate(sample, 4.0) == pytest.approx(100_000 ** -0.25, rel=1e-15)


class TestLrNorms:
    """The one L^R estimator of held samples: the plain power mean, and
    the rescaled one where that overflows, taken of each column."""

    @pytest.mark.parametrize("r", [1.0, 2.0, 2.5, 3.0, 4.0])
    def test_one_column_equals_the_plain_power_mean(self, r):
        # test_blocked_lr_norms_equal_one_pass checks many columns
        rng = np.random.default_rng(int(10 * r))
        for m in (1, 7, 1000, 100_000):
            sample = np.abs(rng.standard_normal(m)) * 10.0 ** rng.uniform(-5, 5)
            assert lr_norm_estimate(sample, r) == float(np.mean(sample**r) ** (1.0 / r))

    @pytest.mark.parametrize("r", [2.0, 3.5])
    def test_only_overflowing_columns_are_rescaled(self, r):
        rng = np.random.default_rng(8)
        norms = np.abs(rng.standard_normal((500, 6)))
        huge = norms.copy()
        huge[:, [1, 4]] *= 1e200
        out = _column_norms(huge, r)
        plain = _column_norms(norms, r)
        assert out[[0, 2, 3, 5]].tolist() == plain[[0, 2, 3, 5]].tolist()
        assert np.all(np.isfinite(out))
        assert out[[1, 4]] == pytest.approx(1e200 * plain[[1, 4]], rel=1e-13)

    def test_overflowing_statistics_are_finite(self):
        from randstep.sampler import Ensemble

        rng = np.random.default_rng(4)
        norms = np.abs(rng.standard_normal((200, 9)))
        stats = error_statistics(Ensemble(build_grid(1.0, 8), 1e200 * norms), 2.0, "psi2")
        small = error_statistics(Ensemble(build_grid(1.0, 8), norms.copy()), 2.0, "psi2")
        assert stats.max_of_norm == pytest.approx(1e200 * small.max_of_norm, rel=1e-13)
        assert stats.norm_of_max == pytest.approx(1e200 * small.norm_of_max, rel=1e-13)
        assert stats.psi2_norm_of_max == pytest.approx(1e200 * small.psi2_norm_of_max, rel=1e-5)


def _reference_orlicz(samples: np.ndarray) -> float:
    """The psi2 bisection with three fresh temporaries a step."""
    top = float(samples.max())
    lo, hi = top / 50.0, top * 50.0
    if not math.isfinite(hi):
        return top * _reference_orlicz(samples / top)
    while (hi - lo) > analysis._ORLICZ_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        z = samples / mid
        with np.errstate(over="ignore"):
            mean = float(np.mean(np.expm1(z * z)))
        if mean > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestOrliczNorm:
    @pytest.mark.parametrize("sample", [
        np.abs(np.random.default_rng(31).standard_normal(10_000)),
        _spike(1_000),
        np.array([2.5]),
        np.full(10, 4e306),  # 50 max(x) overflows: the homogeneity path
    ], ids=["random", "spike", "m=1", "huge-constant"])
    def test_in_place_bisection_equals_fresh_temporaries(self, sample):
        kept = sample.copy()
        assert orlicz_norm_estimate(sample, "psi2") == _reference_orlicz(sample)
        assert np.array_equal(sample, kept)

    def test_bisection_memory_is_one_scratch(self):
        # not a timing gate: numpy reports its buffers to tracemalloc.  The
        # bisection reuses one (m,) scratch; three fresh temporaries a step
        # would peak at about 3 * 8 m bytes
        m = 10**6
        sample = np.abs(np.random.default_rng(32).standard_normal(m))
        orlicz_norm_estimate(sample[:10], "psi2")  # imports outside the trace
        tracemalloc.start()
        try:
            orlicz_norm_estimate(sample, "psi2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * m

    def test_constant_sample_closed_form(self):
        # solves exp(c^2/k^2) = 2  =>  k = c / sqrt(ln 2)
        c = 3.7
        est = orlicz_norm_estimate(np.full(100, c), "psi2")
        assert est == pytest.approx(c / math.sqrt(math.log(2.0)), rel=1e-6)

    def test_gaussian_oracle(self):
        # E exp(Z^2/k^2) = (1 - 2/k^2)^(-1/2) = 2  =>  k = sqrt(8/3)
        rng = np.random.default_rng(101)
        sample = np.abs(rng.standard_normal(100_000))
        est = orlicz_norm_estimate(sample, "psi2")
        assert est == pytest.approx(math.sqrt(8.0 / 3.0), rel=0.05)

    def test_all_zero(self):
        assert orlicz_norm_estimate(np.zeros(10), "psi2") == 0.0

    def test_single_spike_closed_form(self):
        # mean(Psi(x / k)) = expm1(1 / k^2) / m = 1  =>  k = 1 / sqrt(ln(m + 1))
        m = 100_000
        est = orlicz_norm_estimate(_spike(m), "psi2")
        assert est == pytest.approx(1.0 / math.sqrt(math.log(m + 1.0)), rel=1e-5)

    def test_huge_constant_sample_closed_form(self):
        # 1e200^2 would overflow; the bisection only squares x / k
        est = orlicz_norm_estimate(np.full(10, 1e200), "psi2")
        assert est == pytest.approx(1e200 / math.sqrt(math.log(2.0)), rel=1e-5)

    def test_finite_where_the_bracket_overflows(self):
        # 50 max(x) overflows above about 3.6e306; the norm is positively
        # homogeneous, so it is ten times that of the samples over ten
        est = orlicz_norm_estimate(np.array([1e307, 5e306]), "psi2")
        small = orlicz_norm_estimate(np.array([1e306, 5e305]), "psi2")
        assert est == pytest.approx(10.0 * small, rel=1e-12)

    def test_subnormal_samples_end(self):
        # below the normal range the bracket's width tolerance underflowed
        # to 0 and the bisection never ended; the norm is homogeneous
        est = orlicz_norm_estimate(np.array([1e-320, 5e-321]), "psi2")
        assert est == pytest.approx(1e-320 * orlicz_norm_estimate(np.array([1.0, 0.5])),
                                    rel=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            orlicz_norm_estimate(np.array([1.0, 2.0, bad]), "psi2")

    @pytest.mark.parametrize("young", ["psi1", "Psi2", "2", None, 2.0, 1])
    def test_unsupported_young_rejected(self, young):
        # the Orlicz norm of z^R is the L^R norm, whose one entry point is
        # lr_norm_estimate; an order is refused here, not forwarded
        with pytest.raises(ValueError, match=f"young function {young!r}, expected 'psi2'$"):
            orlicz_norm_estimate(np.array([1.0, 2.0]), young)


class TestFitRate:
    def test_exact_square_law(self):
        points = [(h, 2.0 * h**2) for h in (0.2, 0.1, 0.05, 0.025)]
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_error(self):
        fit = fit_rate([(h, 0.5) for h in (0.2, 0.1, 0.05)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_three_halves_exact(self):
        points = [(2.0**-k, (2.0**-k) ** 1.5) for k in range(3, 9)]
        assert fit_rate(points).slope == pytest.approx(1.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.05, 0.5), (0.05, 0.2)])
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.05, 0.0), (0.025, 0.2)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column, name", [(0, "mesh"), (1, "error")])
    def test_non_finite_point_named(self, column, name, bad):
        # a NaN or inf passes the sign checks and gave RateFit(nan, nan,
        # nan) after a numpy RuntimeWarning
        points = [[0.2, 0.4], [0.1, 0.2], [0.05, 0.1]]
        points[1][column] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"^{name} values must be finite, pair 1 has {bad}$"
            with pytest.raises(ValueError, match=message):
                fit_rate(points)


    @pytest.mark.parametrize("bad", [0.0, -0.1])
    @pytest.mark.parametrize("column", [0, 1], ids=["h", "err"])
    def test_non_positive_point_named(self, column, bad):
        # errors that underflow to 0 (a horizon of 1e-300) name their pair
        points = [[0.2, 0.4], [0.1, 0.2], [0.05, 0.1]]
        points[1][column] = bad
        message = (f"mesh and error values must be positive, pair 1 is (h, err) = "
                   f"({points[1][0]}, {points[1][1]})")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_rate(points)


class TestGronwallUniform:
    def test_formula_evaluation(self):
        val = gronwall_uniform(0.0, 1.0, 1.0, 2.0, 0.1, 1.0)
        assert val == pytest.approx((math.e - 1.0) * 0.1, rel=1e-12)

    def test_zero_rate_limit(self):
        assert gronwall_uniform(0.0, 0.0, 1.0, 2.0, 0.1, 1.0) == pytest.approx(0.1)

    def test_homogeneous(self):
        assert gronwall_uniform(2.0, 1.5, 0.0, 2.0, 0.25, 1.0) == pytest.approx(
            2.0 * math.exp(1.5)
        )

    def test_step_must_divide_horizon(self):
        with pytest.raises(ValueError):
            gronwall_uniform(0.0, 1.0, 1.0, 2.0, 0.3, 1.0)

    @pytest.mark.parametrize("args, match", [
        ((-1.0, 1.0, 1.0, 2.0, 0.1, 1.0), "y0, A, B must be non-negative"),
        ((0.0, -1.0, 1.0, 2.0, 0.1, 1.0), "y0, A, B must be non-negative"),
        ((0.0, 1.0, -1.0, 2.0, 0.1, 1.0), "y0, A, B must be non-negative"),
        ((0.0, 1.0, 1.0, 0.5, 0.1, 1.0), "exponent p must be >= 1, got 0.5"),
        ((0.0, 1.0, 1.0, 2.0, 0.0, 1.0), "h and T must be positive"),
        ((0.0, 1.0, 1.0, 2.0, 0.1, -1.0), "h and T must be positive"),
        # a NaN passes every sign check and gives a NaN bound; B = inf gives inf
        ((math.nan, 1.0, 1.0, 2.0, 0.1, 1.0), "y0, A, B, p, h and T must be finite"),
        ((0.0, math.nan, 1.0, 2.0, 0.1, 1.0), "y0, A, B, p, h and T must be finite"),
        ((0.0, 1.0, math.inf, 2.0, 0.1, 1.0), "y0, A, B, p, h and T must be finite"),
        ((0.0, 1.0, 1.0, math.nan, 0.1, 1.0), "y0, A, B, p, h and T must be finite"),
        ((0.0, 1.0, 1.0, 2.0, math.nan, 1.0), "y0, A, B, p, h and T must be finite"),
        ((0.0, 1.0, 1.0, 2.0, 0.1, math.inf), "y0, A, B, p, h and T must be finite"),
    ])
    def test_rejects_bad_inputs(self, args, match):
        with pytest.raises(ValueError, match=match):
            gronwall_uniform(*args)

    @pytest.mark.parametrize("args, match", [
        # math.exp and a float power raise a bare OverflowError past about
        # 1.8e308; a product of finite factors gives inf
        ((0.0, 1000.0, 1.0, 2.0, 0.1, 1.0),
         "the growth factor exp(A T) of the bound overflows at A = 1000.0, T = 1.0"),
        ((0.0, 0.0, 1.0, 400.0, 1e10, 1e10),
         "the power h^(p - 1) of the bound overflows at h = 10000000000.0, p = 400.0"),
        ((1e308, 1.0, 0.0, 2.0, 0.1, 1.0),
         "the bound overflows at y0 = 1e+308, A = 1.0, B = 0.0, p = 2.0, h = 0.1, T = 1.0"),
        ((0.0, 0.0, 1e300, 2.0, 1e-5, 1e10),
         "the bound overflows at y0 = 0.0, A = 0.0, B = 1e+300, p = 2.0, h = 1e-05, "
         "T = 10000000000.0"),
    ])
    def test_overflowing_bound_is_refused_by_name(self, args, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            gronwall_uniform(*args)

    @pytest.mark.parametrize("a", [1e-20, 1e-320])
    def test_tiny_rate_keeps_the_zero_rate_limit(self, a):
        # e^(A T) - 1 cancels to 0 at A T below the unit roundoff (and B / A
        # overflows at A = 1e-320), while the bound tends to y_0 + B T h^(p-1)
        assert gronwall_uniform(0.0, a, 1.0, 2.0, 0.1, 1.0) == pytest.approx(0.1, rel=1e-15)

    def test_zero_rate_bound_dominates_recursion(self):
        # telescoping oracle: y_k <= k B h^p <= B T h^(p-1)
        h, horizon, b, p = 0.05, 1.0, 0.7, 2.0
        n = round(horizon / h)
        y = 0.0
        bound = gronwall_uniform(0.0, 0.0, b, p, h, horizon)
        for _ in range(n):
            y = y + b * h**p
            assert y <= bound * (1 + 1e-12)


class TestGronwallSpecial:
    def test_formula(self):
        bounds = gronwall_special(1.0, np.array([0.1, 0.1]))
        assert bounds[-1] == pytest.approx(math.exp(0.2), rel=1e-12)

    def test_zero_constant(self):
        assert np.all(gronwall_special(0.0, np.array([0.3, 0.4])) == 0.0)

    def test_zero_increments(self):
        assert np.allclose(gronwall_special(2.5, np.zeros(5)), 2.5)

    @pytest.mark.parametrize("c, g", [(-1.0, [0.1, 0.1]), (1.0, [0.1, -0.1])])
    def test_rejects_negative_inputs(self, c, g):
        with pytest.raises(ValueError, match="c and the g sequence must be non-negative"):
            gronwall_special(c, np.array(g))

    @pytest.mark.parametrize("c, g", [
        (math.nan, [0.1, 0.1]), (math.inf, [0.1, 0.1]),
        (1.0, [0.1, math.nan]), (1.0, [math.inf, 0.1]),
    ])
    def test_rejects_non_finite_inputs(self, c, g):
        with pytest.raises(ValueError, match="c and the g sequence must be finite"):
            gronwall_special(c, np.array(g))

    @pytest.mark.parametrize("c, g, k", [
        (1.0, [400.0, 400.0], 1),  # exp(800) overflows
        (1e300, [0.0, 100.0], 1),  # a finite exp(100), times c
        (0.0, [800.0, 0.0], 0),  # 0 * inf is NaN
    ])
    def test_overflowing_bound_is_refused_by_name(self, c, g, k):
        # numpy gives inf (or NaN) with a RuntimeWarning, not an error
        with pytest.raises(ValueError, match=re.escape(
                f"the bound c exp(g_0 + ... + g_k) overflows at k = {k}")):
            gronwall_special(c, np.array(g))


class TestGronwallNonuniform:
    def test_zero_rate_reduces_to_sum(self):
        bounds = gronwall_nonuniform(1.0, 0.0, np.array([0.3, 0.7]), np.array([0.5, 0.5]))
        assert np.allclose(bounds, 2.0)

    def test_homogeneous_growth(self):
        bounds = gronwall_nonuniform(1.0, 1.0, np.array([1.0, 1.0]), np.zeros(2))
        assert bounds[-1] == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gronwall_nonuniform(1.0, 1.0, np.ones(3), np.ones(2))

    @pytest.mark.parametrize("y0, a, h_seq, b_seq", [
        (-1.0, 1.0, [0.5, 0.5], [0.1, 0.1]),
        (1.0, -1.0, [0.5, 0.5], [0.1, 0.1]),
        (1.0, 1.0, [0.5, -0.5], [0.1, 0.1]),
        (1.0, 1.0, [0.5, 0.5], [0.1, -0.1]),
    ])
    def test_rejects_negative_inputs(self, y0, a, h_seq, b_seq):
        with pytest.raises(ValueError, match="all inputs must be non-negative"):
            gronwall_nonuniform(y0, a, np.array(h_seq), np.array(b_seq))

    @pytest.mark.parametrize("y0, a, h_seq, b_seq", [
        (math.nan, 1.0, [0.5, 0.5], [0.1, 0.1]),
        (1.0, math.inf, [0.5, 0.5], [0.1, 0.1]),
        (1.0, math.nan, [0.5, 0.5], [0.1, 0.1]),
        (1.0, 1.0, [0.5, math.nan], [0.1, 0.1]),
        (1.0, 1.0, [0.5, 0.5], [math.inf, 0.1]),
    ])
    def test_rejects_non_finite_inputs(self, y0, a, h_seq, b_seq):
        with pytest.raises(ValueError, match="all inputs must be finite"):
            gronwall_nonuniform(y0, a, np.array(h_seq), np.array(b_seq))

    @pytest.mark.parametrize("y0, a, h_seq, b_seq, k", [
        (1.0, 1000.0, [1.0, 1.0], [1.0, 1.0], 0),  # exp(1000) overflows
        (1.0, 500.0, [1.0, 1.0], [1.0, 1.0], 1),  # exp(1000) at the second step
        (1.0, 0.0, [1.0, 1.0], [1e308, 1e308], 0),  # the sum of b overflows
    ])
    def test_overflowing_bound_is_refused_by_name(self, y0, a, h_seq, b_seq, k):
        # numpy gives inf with a RuntimeWarning, not an error
        with pytest.raises(ValueError, match=re.escape(
                f"the bound (y_0 + sum_l b_l) exp(A sum_(j<=k) h_j) overflows at k = {k}")):
            gronwall_nonuniform(y0, a, np.array(h_seq), np.array(b_seq))

    def test_random_recursions_dominated(self):
        rng = np.random.default_rng(104)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            a = float(rng.uniform(0.0, 2.0))
            h_seq = rng.uniform(0.0, 0.3, n)
            b_seq = rng.uniform(0.0, 0.5, n)
            y0 = float(rng.uniform(0.0, 2.0))
            bounds = gronwall_nonuniform(y0, a, h_seq, b_seq)
            y = y0
            for k in range(n):
                y = (1.0 + a * h_seq[k]) * y + rng.uniform() * b_seq[k]
                assert y <= bounds[k] * (1 + 1e-12) + 1e-300


class TestTheoreticalBound:
    def test_gelfand_orlicz_example(self):
        val = theoretical_bound(
            0.1, c_phi_psi=1.0, c_xi=1.0, lipschitz=0.0, q=1.0, p=1.0, horizon=1.0,
        )
        assert val == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("h, change, match", [
        (0.0, {}, "mesh width must be positive, got 0.0"),
        (-0.1, {}, "mesh width must be positive, got -0.1"),
        (0.1, {"c_phi_psi": -1.0}, "bound constants must be non-negative"),
        (0.1, {"c_xi": -1.0}, "bound constants must be non-negative"),
        (0.1, {"lipschitz": -1.0}, "bound constants must be non-negative"),
        # NaN passes every sign check
        (math.nan, {}, "mesh width must be finite, got nan"),
        (math.inf, {}, "mesh width must be finite, got inf"),
        (0.1, {"c_phi_psi": math.nan}, "bound constants must be finite"),
        (0.1, {"c_xi": math.nan}, "bound constants must be finite"),
        (0.1, {"lipschitz": math.nan}, "bound constants must be finite"),
        (0.1, {"c_xi": math.inf}, "bound constants must be finite"),
        # at h = 1 a NaN order would still give a finite bound
        (1.0, {"q": math.nan}, "order q must be finite, got nan"),
        (0.1, {"p": math.inf}, "order p must be finite, got inf"),
        (0.1, {"horizon": math.nan}, "horizon must be finite, got nan"),
        (0.1, {"horizon": -math.inf}, "horizon must be finite, got -inf"),
    ])
    def test_rejects_bad_mesh_and_constants(self, h, change, match):
        args = dict(c_phi_psi=1.0, c_xi=1.0, lipschitz=0.0, q=1.0, p=1.0, horizon=1.0)
        with pytest.raises(ValueError, match=match):
            theoretical_bound(h, **{**args, **change})

    def test_overflowing_growth_factor_is_refused(self):
        # math.exp raises a bare OverflowError past about exp(709.78)
        with pytest.raises(ValueError, match=re.escape(
                "the growth factor exp(L T) of the bound overflows at L = 720.0, T = 1.0")):
            theoretical_bound(0.01, c_phi_psi=1.0, c_xi=1.0, lipschitz=720.0,
                              q=1.0, p=1.0, horizon=1.0)
        # just below the overflow the bound is finite
        assert math.isfinite(theoretical_bound(0.01, c_phi_psi=1.0, c_xi=1.0, lipschitz=360.0,
                                               q=1.0, p=1.0, horizon=1.0))

    @pytest.mark.parametrize("h, q, p", [
        (4.0, 600.0, 1.0),  # 4^600 = 2^1200
        (1e-10, 1.0, -40.0),  # 1e400
    ])
    def test_overflowing_power_is_refused(self, h, q, p):
        # a float power raises a bare OverflowError past about 1.8e308
        with pytest.raises(ValueError, match=re.escape(
                f"the power h^q or h^p of the bound overflows at h = {h}, q = {q}, p = {p}")):
            theoretical_bound(h, c_phi_psi=1.0, c_xi=1.0, lipschitz=0.0, q=q, p=p, horizon=1.0)

    @pytest.mark.parametrize("change", [
        {"c_phi_psi": 1e300, "horizon": 1e10},  # the terms overflow
        {"c_phi_psi": 1e300, "lipschitz": 100.0},  # the terms times exp(L T) overflow
        {"lipschitz": 1e300, "horizon": 1e10},  # L T overflows, so exp(L T) is inf
    ])
    def test_overflowing_bound_is_refused(self, change):
        args = {**dict(c_phi_psi=1.0, c_xi=1.0, lipschitz=0.0, q=1.0, p=1.0, horizon=1.0), **change}
        with pytest.raises(ValueError, match=re.escape(
                f"the bound overflows at h = 0.5, C = {args['c_phi_psi']}, C_xi = 1.0, "
                f"L = {args['lipschitz']}, T = {args['horizon']}")):
            theoretical_bound(0.5, **args)


class TestErrorStatistics:
    def _ensemble(self, m=40, seed=17):
        problem = heat_1d(4)
        grid = build_grid(1.0, 8)
        noise = centred_gaussian(4, p=1.0)
        return run_ensemble(problem, implicit_euler(), noise, grid, np.ones(4), m, seed)

    def test_orderings(self):
        stats = error_statistics(self._ensemble(), 2.0, "psi2")
        assert stats.max_of_norm <= stats.norm_of_max * (1 + 1e-12)
        assert stats.psi2_norm_of_max is not None

    def test_single_trajectory_orderings_coincide(self):
        stats = error_statistics(self._ensemble(m=1), 2.0, None)
        assert stats.max_of_norm == pytest.approx(stats.norm_of_max, rel=1e-12)
        assert stats.psi2_norm_of_max is None

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.5, 4.0])
    def test_max_of_norm_matches_per_step_loop(self, r):
        ensemble = self._ensemble(m=300, seed=5)
        norms = ensemble.error_h_norms()
        loop = max(lr_norm_estimate(norms[:, k], r) for k in range(norms.shape[1]))
        assert error_statistics(ensemble, r, None).max_of_norm == loop

    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (333, 65), (1001, 513), (4000, 257)])
    def test_blocked_lr_norms_equal_one_pass(self, shape):
        # M = 7, 333 and 1001 are not multiples of 8
        m = shape[0]
        norms = np.abs(np.random.default_rng(m).standard_normal(shape))
        for r in (1.0, 2.0, 3.5):
            one_pass = [mean ** (1.0 / r) for mean in np.mean(np.power(norms.T, r, order="C"), axis=1)]
            assert np.array_equal(_column_norms(norms, r), one_pass)

    def test_statistics_hold_no_full_size_temporary(self):
        # not a timing gate: numpy reports its buffers to tracemalloc.  The
        # (M, N + 1) norms exist before the trace.  error_statistics then
        # holds one column of powers and (M,) vectors inside the 1 MB
        # margin; one pass over all steps would add a second array the
        # size of the norms (16.4 MB here).
        from randstep.sampler import Ensemble

        m, n = 4000, 512
        norms = np.abs(np.random.default_rng(3).standard_normal((m, n + 1)))
        ensemble = Ensemble(build_grid(1.0, n), norms)
        error_statistics(self._ensemble(), 2.0, "psi2")  # imports outside the trace
        tracemalloc.start()
        try:
            error_statistics(ensemble, 2.0, "psi2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_max_of_norm_checks_its_samples(self):
        from randstep.sampler import Ensemble

        ensemble = self._ensemble(m=3)
        with pytest.raises(ValueError, match="order must be >= 1"):
            error_statistics(ensemble, 0.5, None)
        for young in ("psi1", "Psi2", "none"):
            with pytest.raises(ValueError, match=f"young function '{young}', expected 'psi2' or None"):
                error_statistics(ensemble, 2.0, young)
        norms = np.array(ensemble.error_h_norms())
        norms[1, 2] = -1e-3  # not the row maximum, so only the per-step check sees it
        negative = Ensemble(ensemble.grid, norms)
        with pytest.raises(ValueError, match="non-negative"):
            error_statistics(negative, 2.0, None)
        norms = norms.copy()
        norms[1, 2] = math.inf
        with pytest.raises(ValueError, match="error norms at h = 0.125 must be finite"):
            error_statistics(Ensemble(ensemble.grid, norms), 2.0, None)

    def test_noise_free_matches_deterministic(self):
        problem = heat_1d(3)
        grid = build_grid(1.0, 8)
        noise = centred_gaussian(3, c_xi=0.0)
        ensemble = run_ensemble(problem, implicit_euler(), noise, grid, np.ones(3), 5, 0)
        stats = error_statistics(ensemble, 2.0, None)
        worst = float(ensemble.error_h_norms()[0].max())
        assert stats.max_of_norm == pytest.approx(worst, rel=1e-12)
        assert stats.norm_of_max == pytest.approx(worst, rel=1e-12)


def _reduced(grid, norms, orders, group, chunk=3):
    """The ReducedEnsemble a pass in groups of `group` trajectories and
    chunks of `chunk` steps keeps of norms (whose first column, r_0, is
    zero), folded by the pass's own sink."""
    from randstep.sampler import ReducedEnsemble, _keep_reduced

    m, width = norms.shape
    tasks = list(enumerate(range(i, min(i + group, m)) for i in range(0, m, group)))
    sink = (np.zeros(m), np.zeros((len(tasks), width)),
            np.zeros((len(orders), len(tasks), width)), orders)
    for task in tasks:
        rows = task[1]
        for start in range(0, width - 1, chunk):
            block = norms[rows.start:rows.stop, start + 1:start + 1 + chunk].T.copy()
            _keep_reduced(sink, task, start, block)
    return ReducedEnsemble(grid, sink[0], sink[1], dict(zip(orders, sink[2])))


class TestReducedStatistics:
    """error_statistics of a ReducedEnsemble: the maxima bit for bit, the
    per-step L^R norms to rounding, of the Ensemble of the same norms."""

    @staticmethod
    def _norms(scale=1.0, m=200, n=8):
        norms = np.abs(np.random.default_rng(4).standard_normal((m, n + 1)))
        norms[:, 0] = 0.0
        return scale * norms

    @pytest.mark.parametrize("group", [1, 7, 200])
    def test_reduced_statistics_equal_the_ensembles(self, group):
        from randstep.sampler import Ensemble

        grid, norms = build_grid(1.0, 8), self._norms()
        reduced = _reduced(grid, norms, (2.0, 3.5), group)
        assert np.array_equal(reduced.maxima, norms.max(axis=1))
        for r in (2.0, 3.5):
            per_step = analysis._pooled_lr_norms(reduced.tops, reduced.sums[r], 200, r)
            assert per_step == pytest.approx(_column_norms(norms, r), rel=1e-13, abs=0.0)
            got = error_statistics(reduced, r, "psi2")
            want = error_statistics(Ensemble(grid, norms.copy()), r, "psi2")
            assert got.max_of_norm == pytest.approx(want.max_of_norm, rel=1e-13)
            assert (got.norm_of_max, got.psi2_norm_of_max) == (want.norm_of_max,
                                                               want.psi2_norm_of_max)
            assert (got.mesh, got.sample_size, got.r) == (want.mesh, want.sample_size, want.r)

    def test_overflowing_statistics_are_finite(self):
        # 1e200^R overflows; each step reports s mean((x / s)^R)^(1/R) with
        # s its largest norm, as `lr_norm_estimate` does for a column that overflowed
        grid = build_grid(1.0, 8)
        huge, small = (_reduced(grid, self._norms(scale), (2.0, 4.0), 7) for scale in (1e200, 1.0))
        for r in (2.0, 4.0):
            per_step = analysis._pooled_lr_norms(huge.tops, huge.sums[r], 200, r)
            assert per_step == pytest.approx(_column_norms(self._norms(1e200), r),
                                             rel=1e-13, abs=0.0)
        stats = error_statistics(huge, 2.0, "psi2")
        unit = error_statistics(small, 2.0, "psi2")
        assert stats.max_of_norm == pytest.approx(1e200 * unit.max_of_norm, rel=1e-13)
        assert stats.norm_of_max == pytest.approx(1e200 * unit.norm_of_max, rel=1e-13)
        assert stats.psi2_norm_of_max == pytest.approx(1e200 * unit.psi2_norm_of_max, rel=1e-5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_norm_is_refused_by_its_maxima(self, bad):
        # the sink folds it quietly (a RuntimeWarning fails this test) and
        # the maxima carry it to the check
        norms = self._norms()
        norms[3, 4] = bad
        reduced = _reduced(build_grid(1.0, 8), norms, (2.0,), 7)
        assert not math.isfinite(reduced.maxima[3])
        with pytest.raises(ValueError, match="error norms at h = 0.125 must be finite"):
            error_statistics(reduced, 2.0, None)

    def test_order_the_pass_did_not_keep_is_refused_by_name(self):
        reduced = _reduced(build_grid(1.0, 8), self._norms(), (2.0,), 7)
        with pytest.raises(ValueError, match=re.escape(
                "order 3.0 was not kept by the pass, which kept orders (2.0,)")):
            error_statistics(reduced, 3.0, None)


class TestHigherOrderRates:
    def test_l3_rate_for_gaussian_noise_matches_l2_order(self):
        # For centred Gaussian perturbations the noise-dominated error is
        # itself Gaussian, so every L^R norm scales alike: the measured L^3
        # exponent should sit at the L^2 value q ^ (p + 1/2) = 1.5 rather
        # than at the weaker exponent ((2q ^ (2p+1)) + p) / 3 = 4/3 that a
        # moment-expansion argument guarantees.
        problem = heat_1d(1)
        method = two_stage(0.5, 0.5, 1.0, 1.0)  # q = 2, so the noise term leads
        noise = centred_gaussian(1, p=1.0)
        theta = np.ones(1)
        pts2, pts3 = [], []
        for k in range(3, 8):
            grid = build_grid(1.0, 2**k)
            ensemble = run_ensemble(problem, method, noise, grid, theta, 3000, 29)
            pts2.append((grid.mesh, error_statistics(ensemble, 2.0, None).max_of_norm))
            pts3.append((grid.mesh, error_statistics(ensemble, 3.0, None).max_of_norm))
        slope2 = fit_rate(pts2).slope
        slope3 = fit_rate(pts3).slope
        assert slope2 == pytest.approx(1.5, abs=0.15)
        assert slope3 == pytest.approx(slope2, abs=0.1)
        assert slope3 >= (min(2.0, 3.0) + 1.0) / 3.0 - 0.1  # provable exponent 4/3

