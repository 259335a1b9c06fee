import math
import tracemalloc

import numpy as np
import pytest

from randstep import (
    EstimationError,
    build_grid,
    centred_gaussian,
    convergence_report,
    derived_lipschitz,
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


class TestOrliczNorm:
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

    def test_power_young_matches_lr(self):
        rng = np.random.default_rng(102)
        sample = np.abs(rng.standard_normal(2000))
        est = orlicz_norm_estimate(sample, 2.0)
        assert est == pytest.approx(lr_norm_estimate(sample, 2.0), rel=1e-5)

    def test_no_crossing_raises(self):
        # a single spike in a sea of zeros pushes the power-R norm below
        # the lower bracket edge
        sample = np.zeros(100_000)
        sample[0] = 1.0
        with pytest.raises(EstimationError):
            orlicz_norm_estimate(sample, 2.0)


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


class TestDerivedLipschitz:
    def test_unit_case(self):
        # (1 + 2x)(1 + x)^2 = 1 + 4x + 5x^2 + 2x^3  =>  4 + 5 + 2 = 11
        assert derived_lipschitz(1.0) == pytest.approx(11.0, rel=1e-12)

    def test_zero_case(self):
        assert derived_lipschitz(0.0) == pytest.approx(2.0)

    def test_general_polynomial(self):
        l = 2.5
        assert derived_lipschitz(l) == pytest.approx(3.0 * l * l + 6.0 * l + 2.0, rel=1e-12)


class TestTheoreticalBound:
    def test_banach_example(self):
        val = theoretical_bound(
            "banach", 0.1, c_phi_psi=1.0, c_xi=1.0, lipschitz=0.0, q=1.0, p=1.0, horizon=1.0
        )
        assert val == pytest.approx(0.2, rel=1e-12)

    def test_gelfand_orlicz_example(self):
        val = theoretical_bound(
            "gelfand_orlicz", 0.1, c_phi_psi=1.0, c_xi=1.0, lipschitz=0.0, q=1.0, p=1.0,
            horizon=1.0,
        )
        assert val == pytest.approx(0.2, rel=1e-12)

    def test_gelfand_l2_formula(self):
        # direct evaluation of the closed form (returned as a sqrt)
        h, q, p, horizon, kappa = 0.1, 1.0, 1.0, 1.0, 2.0
        l_prime = 11.0
        expected = math.sqrt(
            2.0
            * (0.25 + 4.0 * h ** (2 * q) * horizon + horizon * h ** (2 * p + 1) * (1 + kappa**2 * 12.0))
            * math.exp(2.0 * l_prime * horizon)
        )
        val = theoretical_bound(
            "gelfand_l2_centred", h, c_phi_psi=1.0, c_xi=1.0, lipschitz=1.0, q=q, p=p,
            horizon=horizon, e0=0.5, kappa_bdg=kappa,
        )
        assert val == pytest.approx(expected, rel=1e-12)

    def test_l2_mesh_range_enforced(self):
        with pytest.raises(ValueError):
            theoretical_bound(
                "gelfand_l2_centred", 1.5, c_phi_psi=1.0, c_xi=1.0, lipschitz=1.0, q=1.0,
                p=1.0, horizon=1.0,
            )
        with pytest.raises(ValueError):
            theoretical_bound(
                "gelfand_l2_centred", 0.5, c_phi_psi=1.0, c_xi=1.0, lipschitz=1.0, q=1.0,
                p=1.0, horizon=1.0, h_star=0.25,
            )

    def test_unknown_setting(self):
        with pytest.raises(ValueError):
            theoretical_bound(
                "weak", 0.1, c_phi_psi=1.0, c_xi=1.0, lipschitz=0.0, q=1.0, p=1.0, horizon=1.0
            )


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
        assert error_statistics(ensemble, r, None).max_of_norm == pytest.approx(loop, rel=1e-14)

    @pytest.mark.parametrize("block_columns", [1, 3, None], ids=["1col", "3col", "1MB"])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (333, 65), (1001, 513), (4000, 257)])
    def test_blocked_step_means_equal_one_pass(self, monkeypatch, shape, block_columns):
        # M = 7, 333 and 1001 are not multiples of 8; the 1 MB default
        # splits (1001, 513) into blocks of 130 columns and a remainder
        m = shape[0]
        if block_columns is not None:
            monkeypatch.setattr(analysis, "_STEP_BLOCK_BYTES", 8 * m * block_columns)
        norms = np.abs(np.random.default_rng(m).standard_normal(shape))
        for r in (1.0, 2.0, 3.5):
            one_pass = np.mean(np.power(norms.T, r, order="C"), axis=1)
            assert np.array_equal(analysis._step_means(norms, r), one_pass)

    def test_statistics_hold_no_full_size_temporary(self):
        # not a timing gate: numpy reports its buffers to tracemalloc.  The
        # (M, N + 1) norms exist before the trace.  error_statistics then
        # holds the M (N + 1) bytes of its sign check's mask, one block of
        # powers of at most _STEP_BLOCK_BYTES, and (M,) vectors inside the
        # 1 MB margin; one pass over all steps would add a second array
        # the size of the norms (16.4 MB here).
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
        assert peak < m * (n + 1) + analysis._STEP_BLOCK_BYTES + 2**20

    def test_max_of_norm_checks_its_samples(self):
        from randstep.sampler import Ensemble

        ensemble = self._ensemble(m=3)
        with pytest.raises(ValueError, match="order must be >= 1"):
            error_statistics(ensemble, 0.5, None)
        norms = np.array(ensemble.error_h_norms())
        norms[1, 2] = -1e-3  # not the row maximum, so only the per-step check sees it
        negative = Ensemble(ensemble.grid, norms)
        with pytest.raises(ValueError, match="non-negative"):
            error_statistics(negative, 2.0, None)

    def test_noise_free_matches_deterministic(self):
        problem = heat_1d(3)
        grid = build_grid(1.0, 8)
        noise = centred_gaussian(3, c_xi=0.0)
        ensemble = run_ensemble(problem, implicit_euler(), noise, grid, np.ones(3), 5, 0)
        stats = error_statistics(ensemble, 2.0, None)
        worst = float(ensemble.error_h_norms()[0].max())
        assert stats.max_of_norm == pytest.approx(worst, rel=1e-12)
        assert stats.norm_of_max == pytest.approx(worst, rel=1e-12)


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


class TestConvergenceReport:
    def test_report_roundtrip(self):
        stats = []
        for k in range(3, 7):
            problem = heat_1d(3)
            grid = build_grid(1.0, 2**k)
            noise = centred_gaussian(3, p=1.0)
            ensemble = run_ensemble(problem, implicit_euler(), noise, grid, np.ones(3), 20, 3)
            stats.append(error_statistics(ensemble, 2.0, None))
        report = convergence_report(stats, theory_slope=1.0, fingerprint="abc")
        payload = report.to_json_dict()
        assert len(payload["series"]) == 4
        assert payload["fingerprint"] == "abc"
        assert math.isfinite(payload["slope"])
        rows = report.rows()
        assert rows[0][0] == pytest.approx(2.0**-3)
