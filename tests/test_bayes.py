import math
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from randstep import (
    DiagonalGaussianModel,
    Problem,
    SpaceDescriptor,
    biased_limit,
    flow_table,
    posterior,
    single_mode_model,
    small_noise_sweep,
)
from randstep.spaces import _h_norm


def _quadrature_posterior(y, g, delta, obs_var, m0, prior_var):
    """Independent 1-d conjugate oracle: density-grid quadrature."""

    def weight(theta):
        like = math.exp(-((y - g * theta) ** 2) / (2.0 * delta * obs_var))
        prior = math.exp(-((theta - m0) ** 2) / (2.0 * prior_var))
        return like * prior

    centre, spread = m0, math.sqrt(prior_var)
    lo, hi = centre - 15.0 * spread, centre + 15.0 * spread
    z, _ = quad(weight, lo, hi, limit=200)
    mean, _ = quad(lambda th: th * weight(th), lo, hi, limit=200)
    mean /= z
    second, _ = quad(lambda th: th * th * weight(th), lo, hi, limit=200)
    return mean, second / z - mean * mean


def _model(lam, h=0.1):
    """A model on the eigenvalues lam with unit variances and theta."""
    ones = np.ones(np.size(lam))
    return DiagonalGaussianModel(lam, h, 0.0, 0.0 * ones, ones, ones, ones, ones)


class TestPosteriorExamples:
    def test_exact_noiseless_recovers_truth(self):
        model = single_mode_model()
        y = model.forward_exact * model.theta
        mean, var = posterior(model, y, "exact", 0.0)
        assert mean[0] == pytest.approx(1.0, abs=1e-14)
        assert var[0] == pytest.approx(0.0, abs=1e-14)

    def test_discretised_biased_limit(self):
        model = single_mode_model()
        y = model.forward_exact * model.theta
        mean, _ = posterior(model, y, "discretised", 0.0)
        target = 1.1 * math.exp(-0.1)
        assert mean[0] == pytest.approx(target, rel=1e-14)
        assert mean[0] == pytest.approx(0.995321, abs=1e-6)
        assert np.allclose(biased_limit(model), target)

    def test_randomised_variance_stays_positive(self):
        model = single_mode_model()
        y = model.forward_exact * model.theta
        _, var = posterior(model, y, "randomised", 0.0)
        exact_value = Fraction(121, 10121)
        assert var[0] == pytest.approx(float(exact_value), abs=1e-15)
        assert var[0] == pytest.approx(0.011956, abs=1e-6)
        assert var[0] > 0.0

    def test_unknown_variant(self):
        model = single_mode_model()
        with pytest.raises(ValueError):
            posterior(model, np.array([0.0]), "mcmc", 1.0)

    def test_data_length_checked(self):
        model = single_mode_model()
        with pytest.raises(ValueError):
            posterior(model, np.zeros(2), "exact", 1.0)

    def test_degenerate_denominator(self):
        # exp(-h lam) = exp(-1000) underflows to 0, so at delta = 0 the
        # exact variant's denominator delta gamma_obs + g^2 gamma0 is 0
        model = single_mode_model(lam=1e4)
        with pytest.raises(ValueError, match="degenerate posterior denominator"):
            posterior(model, np.array([0.0]), "exact", 0.0)


class TestQuadratureOracle:
    def test_exact_variant_matches_density_quadrature(self):
        rng = np.random.default_rng(202)
        for _ in range(15):
            lam = float(rng.uniform(0.2, 3.0))
            h = float(rng.uniform(0.05, 0.5))
            delta = float(rng.uniform(0.05, 2.0))
            prior_var = float(rng.uniform(0.3, 2.0))
            obs_var = float(rng.uniform(0.3, 2.0))
            m0 = float(rng.uniform(-1.0, 1.0))
            theta = float(rng.uniform(-2.0, 2.0))
            model = single_mode_model(
                lam=lam, h=h, prior_var=prior_var, obs_var=obs_var, prior_mean=m0,
                theta=theta,
            )
            g = float(model.forward_exact[0])
            y = g * theta + float(rng.normal(0.0, math.sqrt(delta * obs_var)))
            mean, var = posterior(model, np.array([y]), "exact", delta)
            ref_mean, ref_var = _quadrature_posterior(y, g, delta, obs_var, m0, prior_var)
            assert mean[0] == pytest.approx(ref_mean, abs=1e-8)
            assert var[0] == pytest.approx(ref_var, abs=1e-8)

    def test_exact_mean_is_convex_combination(self):
        model = single_mode_model()
        g = float(model.forward_exact[0])
        y = np.array([0.7])
        mean, _ = posterior(model, y, "exact", 0.5)
        weight = g * g * 1.0 / (0.5 * 1.0 + g * g * 1.0)
        assert mean[0] == pytest.approx((1 - weight) * 0.0 + weight * (y[0] / g), rel=1e-12)


class TestVarianceOrderings:
    @pytest.mark.parametrize("delta", [0.0, 0.01, 1.0, 10.0])
    def test_posterior_never_exceeds_prior(self, delta):
        model = DiagonalGaussianModel(
            np.array([1.0, 4.0, 9.0]), 0.1, 0.0, np.zeros(3), np.array([1.0, 0.5, 2.0]), np.ones(3), np.ones(3),
            np.array([1.0, -1.0, 0.5]),
        )
        y = model.forward_exact * model.theta
        for variant in ("exact", "discretised", "randomised"):
            _, var = posterior(model, y, variant, delta)
            assert np.all(var <= model.prior_var * (1 + 1e-12))
            assert np.all(var > 0.0) or variant != "randomised"

    @pytest.mark.parametrize("delta", [0.0, 0.1, 1.0])
    def test_randomisation_spreads_posterior(self, delta):
        model = single_mode_model()
        y = model.forward_exact * model.theta
        _, var_tilde = posterior(model, y, "discretised", delta)
        _, var_hat = posterior(model, y, "randomised", delta)
        assert var_hat[0] > var_tilde[0]


class TestSmallNoiseSweep:
    def test_exact_limit_row(self):
        model = single_mode_model()
        rows = small_noise_sweep(model, np.array([1.0, 0.1, 0.0]))
        assert rows[-1, 0] == 0.0
        assert rows[-1, 1] == pytest.approx(0.0, abs=1e-14)

    def test_discretised_error_decreases_to_zero(self):
        model = single_mode_model()
        rows = small_noise_sweep(model, np.array([1.0, 0.1, 0.01, 0.001, 0.0001]))
        tilde_errors = rows[:, 2]
        assert np.all(np.diff(tilde_errors) < 0.0)
        assert tilde_errors[-1] < 2e-4

    def test_randomised_variance_has_positive_limit(self):
        model = single_mode_model()
        rows = small_noise_sweep(model, np.array([1.0, 0.01, 0.0]))
        assert rows[-1, 3] == pytest.approx(float(Fraction(121, 10121)), abs=1e-12)

    def test_fixed_draw_used(self):
        model = single_mode_model()
        draw = np.array([0.3])
        a = small_noise_sweep(model, np.array([1.0, 0.5]), draw)
        b = small_noise_sweep(model, np.array([1.0, 0.5]), draw)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_noise_draw_length_checked(self, length):
        # a draw of the wrong length is refused, not broadcast over the modes
        model = _model(np.array([1.0, 4.0, 9.0]))
        with pytest.raises(ValueError, match=f"noise draw length {length} does not match 3 modes"):
            small_noise_sweep(model, np.array([1.0, 0.1]), np.ones(length))

    @pytest.mark.parametrize("j", [1, 3, 64])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_rows_equal_the_per_delta_posteriors_bit_for_bit(self, j, noisy):
        # the sweep stacks every delta into one (D, J) pass; each row must
        # equal, bit for bit, the row built from posterior at that delta alone
        rng = np.random.default_rng(100 + j)
        lam = np.arange(1, j + 1, dtype=float) ** 2
        model = DiagonalGaussianModel(
            lam, 0.01, 0.5, rng.uniform(-1.0, 1.0, j), rng.uniform(0.2, 2.0, j),
            rng.uniform(0.2, 2.0, j), rng.uniform(0.2, 2.0, j), rng.uniform(-2.0, 2.0, j),
        )
        draw = rng.standard_normal(j) if noisy else np.zeros(j)
        grid = np.array([3.0, 1.0, 0.1, 1e-4, 1e-8, 0.0])
        rows = small_noise_sweep(model, grid, draw if noisy else None)
        assert rows.shape == (grid.size, 4)
        for row, delta in zip(rows, grid):
            y = model.forward_exact * model.theta + np.sqrt(delta) * draw
            mean_exact, _ = posterior(model, y, "exact", float(delta))
            mean_tilde, _ = posterior(model, y, "discretised", float(delta))
            _, var_hat = posterior(model, y, "randomised", float(delta))
            want = (delta, _h_norm(mean_exact - model.theta),
                    _h_norm(mean_tilde - biased_limit(model)), var_hat.min())
            assert np.array_equal(row, want), (delta, row, want)

    @pytest.mark.parametrize("variant", ["exact", "discretised", "randomised"])
    def test_stacked_data_against_a_column_of_deltas(self, variant):
        # (D, J) data against (D, 1) delta gives, row by row, the scalar calls
        rng = np.random.default_rng(7)
        model = _model(np.array([1.0, 4.0, 9.0]))
        deltas = np.array([2.0, 0.5, 1e-6, 0.0])
        y = rng.standard_normal((deltas.size, 3))
        mean, var = posterior(model, y, variant, deltas[:, None])
        assert mean.shape == var.shape == y.shape
        for i, delta in enumerate(deltas):
            want_mean, want_var = posterior(model, y[i], variant, float(delta))
            assert np.array_equal(mean[i], want_mean)
            assert np.array_equal(var[i], want_var)

    def test_grid_validation(self):
        model = single_mode_model()
        with pytest.raises(ValueError):
            small_noise_sweep(model, np.array([]))
        with pytest.raises(ValueError):
            small_noise_sweep(model, np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            small_noise_sweep(model, np.array([1.0, -0.1]))


class TestModelValidation:
    def test_variances_positive(self):
        with pytest.raises(ValueError):
            single_mode_model(prior_var=0.0)
        with pytest.raises(ValueError):
            single_mode_model(obs_var=-1.0)

    def test_delta_non_negative(self):
        # delta is an argument of posterior, which refuses it by name
        model = single_mode_model()
        for variant in ("exact", "discretised", "randomised"):
            with pytest.raises(ValueError, match="delta must be >= 0"):
                posterior(model, np.array([0.0]), variant, -0.1)
        with pytest.raises(ValueError, match="delta must be >= 0"):
            posterior(model, np.zeros((2, 1)), "exact", np.array([[1.0], [-0.1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_posterior_rejects_non_finite_delta(self, bad):
        with pytest.raises(ValueError, match="delta must be finite"):
            posterior(single_mode_model(), np.array([0.0]), "exact", bad)
        with pytest.raises(ValueError, match="delta must be finite"):
            posterior(single_mode_model(), np.zeros((2, 1)), "exact", np.array([[1.0], [bad]]))

    def test_model_has_no_delta_and_read_only_forward_maps(self):
        model = single_mode_model()
        assert not hasattr(model, "delta")
        for forward in (model.forward_exact, model.forward_euler):
            with pytest.raises(ValueError, match="read-only"):
                forward[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            model.forward_exact = np.ones(1)

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            DiagonalGaussianModel(
                np.array([1.0, 2.0]), 0.1, 0.0, np.zeros(2), np.ones(2), np.ones(2),
                np.ones(2), np.ones(3),
            )

    def test_forward_maps(self):
        model = single_mode_model(lam=2.0, h=0.25)
        assert model.forward_exact[0] == pytest.approx(math.exp(-0.5))
        assert model.forward_euler[0] == pytest.approx(1.0 / 1.5)

    def test_forward_exact_on_a_huge_step(self):
        # the constant alpha's integral has no h^2 term, so exp(-h lam)
        # underflows to 0, not NaN; a model's h^(2p+2) overflows first
        assert single_mode_model(h=1e150).forward_exact.tolist() == [0.0]
        step = Problem(SpaceDescriptor(np.array([1.0])), horizon=1e160)
        assert flow_table(step, [1e160], [0.0])[0].tolist() == [[0.0]]

    @pytest.mark.parametrize("h, p", [(1e160, 0.0), (1e80, 1.5), (10.0, 400.0)])
    def test_overflowing_inflation_factor_is_refused(self, h, p):
        # math.pow raises OverflowError past the largest double; the model
        # names h and p instead
        with pytest.raises(ValueError, match=re.escape(f"h^(2p + 2) overflows at h = {h}, p = {p}")):
            single_mode_model(h=h, p=p)

    def test_forward_maps_are_the_closed_forms_bit_for_bit(self):
        # the forward maps are row 0 of flow_table and of implicit Euler's
        # step_table on [0, h]; the closed forms are the reference
        rng = np.random.default_rng(22)
        for _ in range(2000):
            j = int(rng.integers(1, 64))
            lam = np.sort(10.0 ** rng.uniform(-3.0, 6.0, j))
            h = float(10.0 ** rng.uniform(-4.0, 1.0))
            model = _model(lam, h)
            assert np.array_equal(model.forward_exact, np.exp(-h * lam))
            assert np.array_equal(model.forward_euler, 1.0 / (1.0 + h * lam))

    @pytest.mark.parametrize("lam, message", [([4.0, 1.0], "non-decreasing"),
                                              ([1.0, 0.0], "strictly positive"),
                                              ([[1.0, 4.0]], "a non-empty 1-d array")])
    def test_eigenvalues_follow_the_space_rule(self, lam, message):
        # the spectrum is a SpaceDescriptor, with its checks and messages
        with pytest.raises(ValueError, match=f"eigenvalues must be {message}"):
            _model(np.array(lam))

    FIELDS = ("eigenvalues", "h", "p", "prior_mean", "prior_var", "obs_var", "rand_var",
              "theta")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, field, bad):
        values = {name: getattr(single_mode_model(), name) for name in self.FIELDS}
        values[field] = bad if np.ndim(values[field]) == 0 else np.array([bad])
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DiagonalGaussianModel(**values)
