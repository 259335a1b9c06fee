import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from randstep import (
    NoiseModel,
    Problem,
    SpaceDescriptor,
    build_grid,
    centred_gaussian,
    error_statistics,
    exact_flow,
    exact_method,
    exact_states,
    explicit_euler,
    flow_lipschitz,
    heat_1d,
    implicit_euler,
    measure_truncation_constant,
    run_deterministic,
    run_ensemble,
    run_randomised,
    scalar_linear,
    step,
    trajectory_stream,
    two_stage,
)
from randstep import sampler

HEUN = (0.5, 0.5, 1.0, 1.0)
NOISE_KINDS = ["centred_gaussian", "biased", "shared_factor", "bounded_uniform"]


def _randomised_norms(problem, method, noise, grid, theta, m, master_seed, perturb_initial=False):
    """The per-index run_randomised norms, the reference for ensemble rows."""
    return np.stack([
        run_randomised(
            problem, method, noise, grid, theta, trajectory_stream(master_seed, i),
            perturb_initial=perturb_initial,
        ).error_h_norms()
        for i in range(m)
    ])


class TestDeterministic:
    def test_implicit_euler_closed_form(self):
        problem = scalar_linear(-1.0)
        grid = build_grid(1.0, 10)
        trajectory = run_deterministic(problem, implicit_euler(), grid, np.array([1.0]))
        assert trajectory.states[-1, 0] == pytest.approx((1.0 / 1.1) ** 10, rel=1e-14)
        assert trajectory.states[-1, 0] == pytest.approx(0.385543, abs=1e-6)
        assert trajectory.errors[-1, 0] == pytest.approx(math.exp(-1.0) - (1.0 / 1.1) ** 10, rel=1e-12)
        assert trajectory.errors[-1, 0] == pytest.approx(-0.017664, abs=1e-6)

    def test_exact_method_zero_errors(self):
        problem = heat_1d(6)
        grid = build_grid(1.0, 13, 1.4)
        theta = np.arange(1.0, 7.0) ** -2
        trajectory = run_deterministic(problem, exact_method(), grid, theta)
        assert np.max(np.abs(trajectory.errors)) <= 1e-14

    def test_zero_solution(self):
        problem = heat_1d(4)
        grid = build_grid(1.0, 8)
        trajectory = run_deterministic(problem, implicit_euler(), grid, np.zeros(4))
        assert np.all(trajectory.states == 0.0)
        assert np.all(trajectory.errors == 0.0)

    def test_mesh_exceeding_h_star(self):
        with pytest.raises(ValueError):
            run_deterministic(
                scalar_linear(-1.0), implicit_euler(h_star=0.05), build_grid(1.0, 10),
                np.array([1.0]),
            )


class TestExactStates:
    def test_against_direct_flow(self):
        problem = heat_1d(5, alpha=(1.0, 0.5))
        grid = build_grid(1.0, 9, 1.6)
        theta = np.linspace(1.0, 0.2, 5)
        states = exact_states(problem, grid, theta)
        for k, t in enumerate(grid.points):
            direct = exact_flow(problem, float(t), 0.0, theta)
            assert np.allclose(states[k], direct, rtol=1e-11, atol=1e-14)


class TestRandomised:
    def test_zero_amplitude_reduces_to_deterministic(self):
        problem = scalar_linear(-1.0)
        grid = build_grid(1.0, 10)
        method = implicit_euler()
        det = run_deterministic(problem, method, grid, np.array([1.0]))
        noise = centred_gaussian(1, c_xi=0.0)
        rand = run_randomised(problem, method, noise, grid, np.array([1.0]), trajectory_stream(1, 0))
        assert np.array_equal(det.states, rand.states)
        assert np.array_equal(det.errors, rand.errors)

    def test_single_step_exact_method_error_is_noise(self):
        problem = heat_1d(3)
        grid = build_grid(0.5, 1)
        noise = centred_gaussian(3, p=1.0)
        trajectory = run_randomised(
            problem, exact_method(), noise, grid, np.ones(3), trajectory_stream(2, 0)
        )
        assert np.allclose(trajectory.errors[1], -trajectory.noise[0], atol=1e-15)
        assert np.all(trajectory.errors[0] == 0.0)

    def test_fixed_seed_bitwise_identical(self):
        problem = scalar_linear(1.0)
        grid = build_grid(1.0, 16)
        method = two_stage(*HEUN)
        noise = centred_gaussian(1, p=1.0)
        a = run_randomised(problem, method, noise, grid, np.array([1.0]), trajectory_stream(7, 3))
        b = run_randomised(problem, method, noise, grid, np.array([1.0]), trajectory_stream(7, 3))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.noise, b.noise)

    def test_perturbed_initial_state(self):
        problem = heat_1d(2)
        grid = build_grid(1.0, 4)
        noise = centred_gaussian(2, p=1.0)
        trajectory = run_randomised(
            problem, exact_method(), noise, grid, np.ones(2), trajectory_stream(11, 0),
            perturb_initial=True,
        )
        assert np.linalg.norm(trajectory.errors[0]) > 0.0


class TestEnsemble:
    def test_m1_equals_single_run(self):
        problem = scalar_linear(-1.0)
        grid = build_grid(1.0, 8)
        method = implicit_euler()
        noise = centred_gaussian(1, p=1.0)
        ensemble = run_ensemble(problem, method, noise, grid, np.array([1.0]), 1, 99)
        single = run_randomised(
            problem, method, noise, grid, np.array([1.0]), trajectory_stream(99, 0)
        )
        assert np.array_equal(ensemble.error_h_norms(), np.stack([single.error_h_norms()]))

    def test_worker_counts_agree(self):
        problem = heat_1d(4)
        grid = build_grid(1.0, 6)
        method = implicit_euler()
        noise = centred_gaussian(4, p=1.0)
        theta = np.ones(4)
        one = run_ensemble(problem, method, noise, grid, theta, 10, 5, workers=1)
        many = run_ensemble(problem, method, noise, grid, theta, 10, 5, workers=3)
        assert np.array_equal(one.error_h_norms(), many.error_h_norms())
        reference = _randomised_norms(problem, method, noise, grid, theta, 10, 5)
        assert np.array_equal(one.error_h_norms(), reference)

    def test_two_worker_gather_matches_one_worker(self):
        problem = heat_1d(5, forcing=np.tile([0.5, -1.0, 0.25], (5, 1)))
        grid = build_grid(1.0, 7, 2.0)
        args = (problem, implicit_euler(), centred_gaussian(5), grid, np.ones(5), 9, 13)
        one = run_ensemble(*args, workers=1)
        two = run_ensemble(*args, workers=2)
        assert np.array_equal(one.error_h_norms(), two.error_h_norms())
        assert two.error_h_norms().shape == (9, 8)

    def test_zero_amplitude_trajectories_identical(self):
        problem = heat_1d(2)
        grid = build_grid(1.0, 5)
        noise = centred_gaussian(2, c_xi=0.0)
        ensemble = run_ensemble(problem, implicit_euler(), noise, grid, np.ones(2), 4, 0)
        norms = ensemble.error_h_norms()
        for i in range(1, 4):
            assert np.array_equal(norms[i], norms[0])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            run_ensemble(
                heat_1d(2), implicit_euler(), centred_gaussian(2), build_grid(1.0, 4),
                np.ones(2), 0, 1,
            )

    def test_streamed_ensemble_keeps_only_norms(self):
        problem = heat_1d(3)
        grid = build_grid(1.0, 6)
        noise = centred_gaussian(3, p=1.0)
        ensemble = run_ensemble(problem, implicit_euler(), noise, grid, np.ones(3), 5, 2)
        assert [f.name for f in dataclasses.fields(ensemble)] == ["grid", "norms"]
        assert ensemble.error_h_norms().shape == (5, 7)
        assert ensemble.size == 5
        with pytest.raises(ValueError):
            ensemble.norms[0, 0] = 1.0

    def test_block_size_does_not_change_norms(self, monkeypatch):
        problem = heat_1d(5)
        grid = build_grid(1.0, 9, 1.5)
        noise = centred_gaussian(5, p=1.0)
        args = (problem, implicit_euler(), noise, grid, np.ones(5), 7, 41)
        row_bytes = (grid.num_steps + 1) * 5 * 8
        monkeypatch.setattr(sampler, "BLOCK_BYTES", row_bytes)
        one_per_block = run_ensemble(*args)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 7 * row_bytes)
        single_block = run_ensemble(*args)
        assert np.array_equal(one_per_block.error_h_norms(), single_block.error_h_norms())
        assert np.array_equal(one_per_block.error_h_norms(), _randomised_norms(*args))

    @pytest.mark.parametrize("perturb_initial", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_randomised_runs(self, monkeypatch, workers, perturb_initial):
        problem = heat_1d(4, forcing=np.tile([0.5, -1.0, 0.25], (4, 1)))
        grid = build_grid(1.0, 9, 1.5)
        args = (problem, implicit_euler(), centred_gaussian(4, p=0.5), grid,
                np.linspace(1.0, 0.25, 4), 6, 17)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", (grid.num_steps + 1) * 4 * 8)
        ensemble = run_ensemble(*args, workers=workers, perturb_initial=perturb_initial)
        reference = _randomised_norms(*args, perturb_initial=perturb_initial)
        assert np.array_equal(ensemble.error_h_norms(), reference)

    def test_memory_stays_below_one_stacked_array(self):
        # not a timing gate: numpy reports its buffers to tracemalloc
        m, n, j = 400, 256, 32
        problem = heat_1d(j)
        grid = build_grid(1.0, n)
        noise = centred_gaussian(j, p=1.0)
        theta = np.ones(j)
        tracemalloc.start()
        try:
            ensemble = run_ensemble(problem, implicit_euler(), noise, grid, theta, m, 3)
            error_statistics(ensemble)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * (n + 1) * j * 8

    @pytest.mark.parametrize("side", [1, 4, 64], ids=["S1", "S4", "SN"])
    @pytest.mark.parametrize("perturb_initial", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_step_major_rows_equal_randomised_runs(self, monkeypatch, kind, workers,
                                                   perturb_initial, side):
        # BLOCK_BYTES = 8 J side^2 gives chunks of S = min(side, N) steps:
        # one step, 4 steps (not a divisor of N = 9) and the whole path;
        # the bounded kind always takes S = N
        j, m = 4, 6
        problem = heat_1d(j, forcing=np.tile([0.5, -1.0, 0.25], (j, 1)))
        grid = build_grid(1.0, 9, 1.5)
        noise = NoiseModel(j, p=0.5, kind=kind, bias_mode=2, bias_coefficient=0.3, rho=0.6)
        args = (problem, implicit_euler(), noise, grid, np.linspace(1.0, 0.25, j), m, 23)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 8 * j * side**2)
        size = sampler._chunk_shape(noise, grid.num_steps, m)[1]
        assert size == (9 if kind == "bounded_uniform" else min(side, 9))
        ensemble = run_ensemble(*args, workers=workers, perturb_initial=perturb_initial)
        reference = _randomised_norms(*args, perturb_initial=perturb_initial)
        assert np.array_equal(ensemble.error_h_norms(), reference)

    @pytest.mark.parametrize("kind", ["centred_gaussian", "bounded_uniform"])
    def test_memory_is_norms_plus_one_chunk(self, kind):
        # not a timing gate: numpy reports its buffers to tracemalloc.  A
        # convergence study's pass holds all three grids' (M, N_g + 1) norms
        # and one (B, S, J) raw chunk of at most BLOCK_BYTES.  The 1 MB
        # margin covers each grid's (a, d) tables (229 KB in all here), a
        # chunk's (S, J) step scales (32 KB), one group's generators
        # (B = 128, about 0.9 KB each) and its (B, J) deviations (32 KB per
        # grid).  A second
        # chunk-sized buffer, such as shaping a grid's prefix out of place,
        # would need twice BLOCK_BYTES.  The bounded kind runs each grid as
        # a one-grid family (B N = 16,384 for every grid here) and also
        # holds its (B, N, 1) radii twice, as drawn per trajectory and
        # stacked (262 KB each); its direction norms must take no second
        # chunk-sized temporary.  With one worker the norms are ordinary
        # arrays, which tracemalloc sees.
        m, j, n_values = 400, 32, (64, 256, 128)
        problem = heat_1d(j)
        noise = NoiseModel(j, p=1.0, kind=kind)
        args = (problem, implicit_euler(), noise)
        # imports outside the trace
        sampler._converge(*args, [build_grid(1.0, n) for n in (2, 8, 4)], np.ones(j), 2, 3, 1)
        grids = [build_grid(1.0, n) for n in n_values]
        tracemalloc.start()
        try:
            _, runs = sampler._converge(*args, grids, np.ones(j), m, 3, 1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        norms = sum(m * (n + 1) * 8 for n in n_values)
        assert current >= norms == sum(run.norms.nbytes for run in runs)
        radii = max(2 * sampler._chunk_shape(noise, n, m)[0] * n * 8 for n in n_values)
        if kind != "bounded_uniform":
            radii = 0
        assert peak < norms + sampler.BLOCK_BYTES + 2**20 + radii

    def test_rejects_noise_dimension_mismatch(self):
        problem = heat_1d(4)
        grid = build_grid(1.0, 4)
        noise = centred_gaussian(3)
        with pytest.raises(ValueError, match=r"noise dimension 3 .* problem dimension 4"):
            run_ensemble(problem, implicit_euler(), noise, grid, np.ones(4), 2, 1)
        with pytest.raises(ValueError, match=r"noise dimension 3 .* problem dimension 4"):
            run_randomised(
                problem, implicit_euler(), noise, grid, np.ones(4), trajectory_stream(1, 0)
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, bad):
        problem = heat_1d(4)
        grid = build_grid(1.0, 4)
        noise = centred_gaussian(4)
        theta = np.array([1.0, bad, 1.0, 1.0])
        with pytest.raises(ValueError, match="theta must be finite, entry 1"):
            run_ensemble(problem, implicit_euler(), noise, grid, theta, 2, 1)
        with pytest.raises(ValueError, match="theta must be finite, entry 1"):
            run_randomised(
                problem, implicit_euler(), noise, grid, theta, trajectory_stream(1, 0)
            )
        with pytest.raises(ValueError, match="theta must be finite, entry 1"):
            run_deterministic(problem, implicit_euler(), grid, theta)


FAMILIES = {
    "uniform": [build_grid(1.0, n) for n in (8, 4, 16)],
    "graded": [build_grid(1.0, n, 1.5) for n in (8, 4, 16)],
}


class TestFamilyPass:
    @pytest.mark.parametrize("side", [1, 4, 16], ids=["S1", "S4", "SN"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_family_pass_equals_per_grid_runs(self, monkeypatch, kind, family, workers, side):
        # one pass over grids listed out of order equals, grid by grid, the
        # per-index run_randomised norms and measure_truncation_constant.
        # BLOCK_BYTES = 8 J side^2 gives groups of B = side trajectories
        # and chunks of S = side steps of the longest grid: one step, 4
        # steps (past the end of the 4-step grid) and the whole path; the
        # bounded kind always takes S = N of its own grid
        j, m = 4, 6
        problem = heat_1d(j, forcing=np.tile([0.5, -1.0, 0.25], (j, 1)))
        method = implicit_euler()
        noise = NoiseModel(j, p=0.5, kind=kind, bias_mode=2, bias_coefficient=0.3, rho=0.6)
        theta = np.linspace(1.0, 0.25, j)
        grids = FAMILIES[family]
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 8 * j * side**2)
        size = sampler._chunk_shape(noise, 16, m)[1]
        assert size == (16 if kind == "bounded_uniform" else side)
        constants, runs = sampler._converge(problem, method, noise, grids, theta, m, 23, workers)
        assert len(constants) == len(runs) == len(grids)
        for grid, constant, run in zip(grids, constants, runs):
            assert run.grid is grid
            reference = _randomised_norms(problem, method, noise, grid, theta, m, 23)
            assert np.array_equal(run.error_h_norms(), reference)
            assert constant == measure_truncation_constant(problem, method, grid, theta)

    def test_noise_free_family_is_deterministic_runs(self):
        problem = heat_1d(3)
        method = implicit_euler()
        theta = np.ones(3)
        grids = FAMILIES["graded"]
        constants, runs = sampler._converge(problem, method, None, grids, theta, 5, 1, 1)
        for grid, constant, run in zip(grids, constants, runs):
            assert np.array_equal(run.errors, run_deterministic(problem, method, grid, theta).errors)
            assert constant == measure_truncation_constant(problem, method, grid, theta)


class TestPathwiseGronwallDominance:
    def test_every_trajectory_below_pathwise_bound(self):
        # max_k |e_k| <= (|e_0| + C h^q T + sum_k |xi_k|) e^(L_phi T)
        # with per-run recorded defect and noise-norm constants
        problem = scalar_linear(1.0)
        h_star = 0.25
        method = two_stage(*HEUN, h_star=h_star)
        grid = build_grid(1.0, 8)
        noise = centred_gaussian(1, p=1.0, c_xi=1.0)
        q = method.order
        l_phi = flow_lipschitz(problem, h_star)
        horizon = grid.horizon
        h = grid.mesh
        for i in range(200):
            trajectory = run_randomised(
                problem, method, noise, grid, np.array([1.0]), trajectory_stream(31, i),
                record_defects=True,
            )
            c_run = float(np.max(trajectory.defects / grid.steps ** (q + 1.0)))
            noise_sum = float(np.sum(np.linalg.norm(trajectory.noise, axis=1)))
            bound = (0.0 + c_run * h**q * horizon + noise_sum) * math.exp(l_phi * horizon)
            realised = float(trajectory.error_h_norms().max())
            assert realised <= bound * (1 + 1e-12)


class TestDiffusionScalingDemonstration:
    def test_sde_like_noise_runs_without_convergence(self):
        # p = -1/2 gives per-step noise of std ~ sqrt(h): the trajectory
        # error does not vanish with the mesh (demonstration mode only)
        problem = scalar_linear(-1.0)
        noise = centred_gaussian(1, p=-0.5, c_xi=1.0)
        levels = []
        for n in (16, 256):
            grid = build_grid(1.0, n)
            ensemble = run_ensemble(problem, implicit_euler(), noise, grid, np.array([1.0]), 200, 3)
            norms = ensemble.error_h_norms()
            levels.append(float(np.mean(norms.max(axis=1))))
        assert levels[1] > 0.3 * levels[0]  # no decay remotely like h^p, p > 0


class TestTruncationConstant:
    def test_exact_method_has_zero_defect(self):
        problem = heat_1d(3)
        grid = build_grid(1.0, 6)
        assert measure_truncation_constant(problem, exact_method(), grid, np.ones(3), 1.0) == 0.0

    def test_implicit_euler_scalar_defect_scale(self):
        # one-step defect of implicit Euler on u' = -u is ~ h^2/2 at state 1
        problem = scalar_linear(-1.0)
        grid = build_grid(0.5, 64)
        c = measure_truncation_constant(problem, implicit_euler(), grid, np.array([1.0]))
        assert c == pytest.approx(0.5, rel=0.05)


def _forced_affine_problem():
    forcing = np.array([[0.5, -1.0, 0.3], [1.0, 0.2, 0.0], [-0.4, 0.0, 0.8]])
    return Problem(SpaceDescriptor(np.array([1.0, 3.0, 7.5])), (1.2, 0.4), forcing, 1.0)


TABLE_METHODS = [explicit_euler(), two_stage(*HEUN), implicit_euler(), exact_method()]
TABLE_GRIDS = [build_grid(1.0, 16), build_grid(1.0, 24, 2.0)]


class TestTablesAgainstStepLoop:
    """Table-based truncation constants and defects against a per-step loop
    of step / exact_flow, the reference."""

    @pytest.mark.parametrize("method", TABLE_METHODS, ids=lambda m: m.kind)
    def test_truncation_constant(self, method):
        problem = _forced_affine_problem()
        theta = np.array([1.0, -0.5, 0.25])
        q = 1.0
        for grid in TABLE_GRIDS:
            exact = exact_states(problem, grid, theta)
            worst = 0.0
            for k in range(grid.num_steps):
                h, t = float(grid.steps[k]), float(grid.points[k])
                defect = float(np.linalg.norm(exact[k + 1] - step(method, problem, h, t, exact[k])))
                if defect > 0.0:
                    worst = max(worst, defect / h ** (q + 1.0))
            got = measure_truncation_constant(problem, method, grid, theta, q)
            tol = 1e-13 * np.max(np.abs(exact)) / grid.steps.min() ** (q + 1.0)
            assert abs(got - worst) <= tol

    @pytest.mark.parametrize("method", TABLE_METHODS, ids=lambda m: m.kind)
    def test_recorded_defects(self, method):
        problem = _forced_affine_problem()
        theta = np.array([1.0, -0.5, 0.25])
        noise = centred_gaussian(3, p=0.5, c_xi=0.5)
        for grid in TABLE_GRIDS:
            trajectory = run_randomised(
                problem, method, noise, grid, theta, trajectory_stream(5, 0), record_defects=True
            )
            states = trajectory.states
            for k in range(grid.num_steps):
                h, t = float(grid.steps[k]), float(grid.points[k])
                gap = exact_flow(problem, h, t, states[k]) - step(method, problem, h, t, states[k])
                assert abs(trajectory.defects[k] - np.linalg.norm(gap)) <= (
                    1e-13 * np.max(np.abs(states[k:k + 2]))
                )
