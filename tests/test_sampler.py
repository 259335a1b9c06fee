import dataclasses
import math
import os
import re
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
    flow_table,
    heat_1d,
    implicit_euler,
    lr_norm_estimate,
    measure_truncation_constant,
    run_ensemble,
    scalar_linear,
    step,
    step_table,
    trajectory_stream,
    two_stage,
)
from randstep import analysis, randomisation, sampler
from reference import run_deterministic, run_randomised

HEUN = (0.5, 0.5, 1.0, 1.0)
NOISE_KINDS = ["centred_gaussian", "biased", "shared_factor", "bounded_uniform"]

# (units, (B, S)) by the longest grid's N, for M = 6 trajectories: a
# BLOCK_BYTES of 8 W units gives groups of B = min(isqrt(units), M) and
# chunks of S = min(N, max(1, units // (4 B))) steps
CHUNK_SHAPES = {n: [(1, (1, 1)), (16, (4, 1)), (100, (6, 4)), (400, (6, n))] for n in (9, 16)}
CHUNK_IDS = ["S1", "B4-S1", "S4", "SN"]


def _randomised_norms(problem, method, noise, grid, theta, m, master_seed):
    """The per-index run_randomised norms, the reference for ensemble rows."""
    return np.stack([
        run_randomised(
            problem, method, noise, grid, theta, trajectory_stream(master_seed, i),
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
            measure_truncation_constant(
                scalar_linear(-1.0), implicit_euler(h_star=0.05), build_grid(1.0, 10),
                np.array([1.0]),
            )


class TestExactStates:
    def test_against_direct_flow(self):
        problem = heat_1d(5, alpha=(1.0, 0.5))
        grid = build_grid(1.0, 9, 1.6)
        theta = np.linspace(1.0, 0.2, 5)
        states = exact_states(problem, grid, theta)
        assert np.array_equal(states[0], theta)  # exact_flow refuses the empty step to t_0
        for k, t in enumerate(grid.points[1:], 1):
            direct = exact_flow(problem, float(t), 0.0, theta)
            assert np.allclose(states[k], direct, rtol=1e-11, atol=1e-14)


class TestPrepareMemory:
    # not a timing gate: numpy reports its buffers to tracemalloc
    def test_method_table_waits_for_the_flow_table(self):
        # perfbench's oracle-affine problem on its finest grid (n = 256,
        # J = 128): the exact states are built and (E, f) let go before
        # step_table runs, so (a, c) never sits beside the forcing
        # response's temporaries; built first, they took the peak from
        # flow_table's 3.39 MiB to 3.89 MiB
        dim = 128
        problem = heat_1d(dim, alpha=(1.0, 1.0), forcing=np.tile((1.0, 0.5, -0.25), (dim, 1)))
        grid, method = build_grid(1.0, 256), implicit_euler()
        theta = np.arange(1, dim + 1, dtype=float) ** -4.0
        sampler._prepare(problem, method, build_grid(1.0, 2), theta, None)  # imports outside the trace
        peaks = []
        for build in (lambda: flow_table(problem, grid.steps, grid.points[:-1]),
                      lambda: sampler._prepare(problem, method, grid, theta, None)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        flow_peak, prepare_peak = peaks
        assert prepare_peak <= flow_peak + (grid.num_steps + 1) * dim * 8  # beside the exact states


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

    def test_trajectory_keeps_states_errors_and_noise(self):
        grid = build_grid(1.0, 6)
        trajectory = run_randomised(heat_1d(3), implicit_euler(), centred_gaussian(3, p=1.0),
                                    grid, np.ones(3), trajectory_stream(2, 0))
        assert [f.name for f in dataclasses.fields(trajectory)] == [
            "grid", "states", "errors", "noise"]
        assert trajectory.noise.shape == (6, 3)

    def test_fixed_seed_bitwise_identical(self):
        problem = scalar_linear(1.0)
        grid = build_grid(1.0, 16)
        method = two_stage(*HEUN)
        noise = centred_gaussian(1, p=1.0)
        a = run_randomised(problem, method, noise, grid, np.array([1.0]), trajectory_stream(7, 3))
        b = run_randomised(problem, method, noise, grid, np.array([1.0]), trajectory_stream(7, 3))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.noise, b.noise)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_every_kind_starts_at_theta(self, kind):
        # U_0 = theta and r_0 = 0; with the exact method every later error is
        # the noise alone, so it is non-zero from the first step on
        j = 4
        problem = heat_1d(j, forcing=np.tile([0.5, -1.0, 0.25], (j, 1)))
        grid = build_grid(1.0, 5)
        noise = NoiseModel(j, p=0.5, kind=kind, bias_mode=2, bias_coefficient=0.3, rho=0.6)
        theta = np.linspace(1.0, 0.25, j)
        trajectory = run_randomised(
            problem, exact_method(), noise, grid, theta, trajectory_stream(5, 0)
        )
        assert np.array_equal(trajectory.states[0], theta)
        assert np.all(trajectory.errors[0] == 0.0)
        norms = trajectory.error_h_norms()
        assert norms[0] == 0.0 and np.all(norms[1:] > 0.0)


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

    def test_pool_starts_no_more_workers_than_tasks(self, monkeypatch):
        # the pass forks every worker at once; B = 16 makes three tasks of
        # M = 40, so five requested workers start three
        from randstep import sampler

        started = []
        fork = os.fork

        def recording_fork():
            started.append(1)
            return fork()

        monkeypatch.setattr(sampler.os, "fork", recording_fork)
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 8 * 4 * 16**2)
        args = (heat_1d(4), implicit_euler(), centred_gaussian(4), build_grid(1.0, 6),
                np.ones(4), 40, 5)
        pooled = run_ensemble(*args, workers=5)
        assert len(started) == 3
        assert np.array_equal(pooled.error_h_norms(), run_ensemble(*args).error_h_norms())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_huge_deviations_give_finite_rows(self, monkeypatch, workers):
        # deviations of about 1e200: their squared sums overflow, their
        # norms do not; each row is still the run_randomised row, and
        # 1e200 times the rows at c_xi = 1 (theta = 0 makes r linear in c_xi)
        j = 5
        grid = build_grid(1.0, 9, 1.5)
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 8 * j * 4**2)  # groups of B = 4
        args = (heat_1d(j), implicit_euler(), centred_gaussian(j, c_xi=1e200), grid,
                np.zeros(j), 10, 3)
        norms = run_ensemble(*args, workers=workers).error_h_norms()
        assert np.all(np.isfinite(norms)) and norms[:, 1:].min() > 1e190
        assert np.array_equal(norms, _randomised_norms(*args))
        unit = _randomised_norms(*args[:2], centred_gaussian(j), *args[3:])
        assert norms == pytest.approx(1e200 * unit, rel=1e-13)

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
        with pytest.raises(ValueError, match="worker count must be >= 1, got 0"):
            run_ensemble(
                heat_1d(2), implicit_euler(), centred_gaussian(2), build_grid(1.0, 4),
                np.ones(2), 4, 1, workers=0,
            )

    @pytest.mark.parametrize("workers", [2.5, "2", float("nan")])
    def test_refuses_a_worker_count_that_is_not_an_integer(self, workers):
        # none is a count; nan < 1 is false, so a comparison alone would
        # let nan through
        with pytest.raises(ValueError, match=f"worker count must be an integer, got {workers!r}"):
            run_ensemble(
                heat_1d(2), implicit_euler(), centred_gaussian(2), build_grid(1.0, 4),
                np.ones(2), 40, 1, workers=workers,
            )

    @pytest.mark.parametrize("m", [2.5, "3", float("nan")])
    def test_refuses_an_ensemble_size_that_is_not_an_integer(self, m):
        # range() raised a bare TypeError on each of these
        message = f"ensemble size must be an integer, got {m!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_ensemble(
                heat_1d(2), implicit_euler(), centred_gaussian(2), build_grid(1.0, 4),
                np.ones(2), m, 1,
            )

    def test_refuses_a_seed_or_index_that_is_not_an_integer(self):
        # int() truncated each to a valid seed: 1.5 drew seed 1's streams
        with pytest.raises(ValueError, match="^master seed must be an integer, got 1.5$"):
            trajectory_stream(1.5, 0)
        with pytest.raises(ValueError, match="^trajectory index must be an integer, got 0.5$"):
            trajectory_stream(1, 0.5)
        with pytest.raises(ValueError, match="^master seed must be an integer, got 1.5$"):
            run_ensemble(
                heat_1d(2), implicit_euler(), centred_gaussian(2), build_grid(1.0, 4),
                np.ones(2), 4, 1.5,
            )
        numpy_ints = trajectory_stream(np.int64(7), np.int64(3))
        assert numpy_ints.random() == trajectory_stream(7, 3).random()

    def test_refuses_a_bool_seed_or_index(self):
        # trajectory_stream(True, False) drew seed 1's first stream
        with pytest.raises(ValueError, match="^master seed must be an integer, got True$"):
            trajectory_stream(True, 0)
        with pytest.raises(ValueError, match="^trajectory index must be an integer, got False$"):
            trajectory_stream(1, False)

    def test_refuses_a_negative_seed_or_index_before_any_fork(self, monkeypatch):
        # numpy refused each with "expected non-negative integer"; a pooled
        # run first forked its two workers, which both failed
        with pytest.raises(ValueError, match="^master seed must be >= 0, got -1$"):
            trajectory_stream(-1, 0)
        with pytest.raises(ValueError, match="^trajectory index must be >= 0, got -2$"):
            trajectory_stream(1, -2)
        started = []
        monkeypatch.setattr(sampler.os, "fork", lambda: started.append(1))
        with pytest.raises(ValueError, match="^master seed must be >= 0, got -1$"):
            run_ensemble(heat_1d(4), implicit_euler(), centred_gaussian(4), build_grid(1.0, 4),
                         np.ones(4), 800, -1, workers=2)
        assert started == []

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
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", row_bytes)
        one_per_block = run_ensemble(*args)
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 7 * row_bytes)
        single_block = run_ensemble(*args)
        assert np.array_equal(one_per_block.error_h_norms(), single_block.error_h_norms())
        assert np.array_equal(one_per_block.error_h_norms(), _randomised_norms(*args))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_randomised_runs(self, monkeypatch, workers):
        problem = heat_1d(4, forcing=np.tile([0.5, -1.0, 0.25], (4, 1)))
        grid = build_grid(1.0, 9, 1.5)
        args = (problem, implicit_euler(), centred_gaussian(4, p=0.5), grid,
                np.linspace(1.0, 0.25, 4), 6, 17)
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", (grid.num_steps + 1) * 4 * 8)
        ensemble = run_ensemble(*args, workers=workers)
        reference = _randomised_norms(*args)
        assert np.array_equal(ensemble.error_h_norms(), reference)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_first_norm_column_is_zero(self, kind, workers):
        # every row starts at theta, so its r_0 norm is exactly 0.0
        j, m = 4, 5
        problem = heat_1d(j, forcing=np.tile([0.5, -1.0, 0.25], (j, 1)))
        grid = build_grid(1.0, 5)
        noise = NoiseModel(j, p=0.5, kind=kind, bias_mode=2, bias_coefficient=0.3, rho=0.6)
        ensemble = run_ensemble(
            problem, exact_method(), noise, grid, np.linspace(1.0, 0.25, j), m, 9,
            workers=workers,
        )
        norms = ensemble.error_h_norms()
        assert norms.shape == (m, grid.num_steps + 1)
        assert np.all(norms[:, 0] == 0.0) and np.all(norms[:, 1:] > 0.0)

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

    @pytest.mark.parametrize("units,shape", CHUNK_SHAPES[9], ids=CHUNK_IDS)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_step_major_rows_equal_randomised_runs(self, monkeypatch, kind, workers, units,
                                                   shape):
        # BLOCK_BYTES = 8 W units gives every kind (W normals a step: J, or
        # J + 2 for the bounded kind) groups of B = min(isqrt(units), M) and
        # chunks of S = min(N, max(1, units // (4 B))) steps: one step, with
        # B = 1 and with B = 4 (not a divisor of M = 6), 4 steps (not a
        # divisor of N = 9) and the whole path
        j, m = 4, 6
        problem = heat_1d(j, forcing=np.tile([0.5, -1.0, 0.25], (j, 1)))
        grid = build_grid(1.0, 9, 1.5)
        noise = NoiseModel(j, p=0.5, kind=kind, bias_mode=2, bias_coefficient=0.3, rho=0.6)
        args = (problem, implicit_euler(), noise, grid, np.linspace(1.0, 0.25, j), m, 23)
        monkeypatch.setattr(randomisation, "BLOCK_BYTES",
                            8 * randomisation._step_normals(noise) * units)
        assert randomisation._chunk_shape(noise, grid.num_steps, m) == shape
        ensemble = run_ensemble(*args, workers=workers)
        reference = _randomised_norms(*args)
        assert np.array_equal(ensemble.error_h_norms(), reference)

    @pytest.mark.parametrize("kind", ["centred_gaussian", "bounded_uniform"])
    def test_memory_is_norms_plus_one_chunk(self, kind):
        # not a timing gate: numpy reports its buffers to tracemalloc.  A
        # convergence study's pass holds no (M, N_g + 1) norms: per grid it
        # keeps (M,) maxima and, per order, (tasks, N_g + 1) partials and
        # step maxima, beside one (B, S, W) raw chunk of at most a quarter
        # of BLOCK_BYTES, W = J normals a step (J + 2 for the bounded kind).
        # The 1 MB margin covers each grid's (a, d) tables (229 KB in all
        # here), each grid's (N_g, J) scale table (115 KB in all), one
        # group's generators (B = 128, about 0.9 KB each), its (B, J)
        # deviations (32 KB per grid), two (B, J) scratch arrays, for the
        # unit draws and xi_k, the grids' blocks of step norms (side B
        # floats in all, side = B = 128 here, 128 KB) and the power of a
        # full one (43 KB): about 0.83 MB traced beside the chunk.  A
        # second chunk-sized buffer, such as shaping the raw chunk out of
        # place, would pass the margin; so would a chunk-sized temporary of
        # the bounded kind's per-step norms.  With one worker the kept
        # arrays are ordinary arrays, which tracemalloc sees.
        m, j, n_values, orders = 400, 32, (64, 256, 128), (2.0, 4.0)
        problem = heat_1d(j)
        noise = NoiseModel(j, p=1.0, kind=kind)
        args = (problem, implicit_euler(), noise)
        # imports outside the trace
        sampler._converge(*args, [build_grid(1.0, n) for n in (2, 8, 4)], np.ones(j), 2, 3, 1,
                          orders)
        grids = [build_grid(1.0, n) for n in n_values]
        tracemalloc.start()
        try:
            _, _, runs = sampler._converge(*args, grids, np.ones(j), m, 3, 1, orders)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tasks = -(-m // randomisation._chunk_shape(noise, max(n_values), m)[0])
        kept = sum(8 * (m + (1 + len(orders)) * tasks * (n + 1)) for n in n_values)
        assert kept == sum(run.maxima.nbytes + run.tops.nbytes
                           + sum(s.nbytes for s in run.sums.values()) for run in runs)
        assert current >= kept
        assert peak < kept + randomisation.BLOCK_BYTES // 4 + 2**20

    def test_rejects_noise_dimension_mismatch(self):
        problem = heat_1d(4)
        grid = build_grid(1.0, 4)
        noise = centred_gaussian(3)
        with pytest.raises(ValueError, match=r"noise dimension 3 .* problem dimension 4"):
            run_ensemble(problem, implicit_euler(), noise, grid, np.ones(4), 2, 1)

    def test_randomised_runs_refuse_missing_noise_model(self):
        problem = heat_1d(4)
        grid = build_grid(1.0, 4)
        match = "^a randomised run needs a noise model, got None$"
        with pytest.raises(ValueError, match=match):
            run_ensemble(problem, implicit_euler(), None, grid, np.ones(4), 2, 1)

    @pytest.mark.parametrize("theta,shape", [(1.0, r"\(\)"), (np.ones((2, 4)), r"\(2, 4\)")],
                             ids=["scalar", "2-d"])
    def test_refuses_a_theta_that_is_not_a_vector(self, theta, shape):
        # a scalar raised a bare IndexError; a (2, J) theta numpy's "could
        # not broadcast input array from shape (2,4) into shape (2,)"
        problem, grid, method = heat_1d(4), build_grid(1.0, 4), implicit_euler()
        match = f"^initial state theta must be a 1-d array, got shape {shape}$"
        with pytest.raises(ValueError, match=match):
            exact_states(problem, grid, theta)
        with pytest.raises(ValueError, match=match):
            run_ensemble(problem, method, centred_gaussian(4), grid, theta, 2, 1)
        with pytest.raises(ValueError, match=match):
            measure_truncation_constant(problem, method, grid, theta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, bad):
        problem = heat_1d(4)
        grid = build_grid(1.0, 4)
        noise = centred_gaussian(4)
        theta = np.array([1.0, bad, 1.0, 1.0])
        with pytest.raises(ValueError, match="theta must be finite, entry 1"):
            run_ensemble(problem, implicit_euler(), noise, grid, theta, 2, 1)
        with pytest.raises(ValueError, match="theta must be finite, entry 1"):
            measure_truncation_constant(problem, implicit_euler(), grid, theta)
        with pytest.raises(ValueError, match="theta must be finite, entry 1"):
            exact_states(problem, grid, theta)


def _table_lipschitz(method, problem, grid):
    a, _ = step_table(method, problem, grid.steps, grid.points[:-1])
    return sampler._lipschitz_constant(a, grid.steps)


FAMILIES = {
    "uniform": [build_grid(1.0, n) for n in (8, 4, 16)],
    "graded": [build_grid(1.0, n, 1.5) for n in (8, 4, 16)],
}


def _step_lr_norms(run, r):
    """The per-step L^R norms error_statistics reads from a ReducedEnsemble."""
    return analysis._pooled_lr_norms(run.tops, run.sums[r], run.size, r)


ORDERS = (2.0, 3.5, 4.0)


class TestFamilyPass:
    @pytest.mark.parametrize("units,shape", CHUNK_SHAPES[16], ids=CHUNK_IDS)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_family_pass_equals_per_grid_runs(self, monkeypatch, kind, family, workers, units,
                                              shape):
        # one pass over grids listed out of order gives, grid by grid, the
        # per-trajectory maxima of the per-index run_randomised norms bit
        # for bit, their per-step L^R norms (`lr_norm_estimate` of each
        # step's column) to rounding, measure_truncation_constant and the
        # Lipschitz constant read off the grid's step table.
        # BLOCK_BYTES = 8 W units gives every kind groups of B trajectories
        # and chunks of S steps of the longest grid as in
        # test_step_major_rows_equal_randomised_runs: one step (B = 1 and
        # B = 4), 4 steps (past the end of the 4-step grid) and the whole
        # path
        j, m = 4, 6
        problem = heat_1d(j, forcing=np.tile([0.5, -1.0, 0.25], (j, 1)))
        method = implicit_euler()
        noise = NoiseModel(j, p=0.5, kind=kind, bias_mode=2, bias_coefficient=0.3, rho=0.6)
        theta = np.linspace(1.0, 0.25, j)
        grids = FAMILIES[family]
        monkeypatch.setattr(randomisation, "BLOCK_BYTES",
                            8 * randomisation._step_normals(noise) * units)
        assert randomisation._chunk_shape(noise, 16, m) == shape
        constants, lipschitz, runs = sampler._converge(problem, method, noise, grids, theta,
                                                       m, 23, workers, ORDERS)
        assert len(constants) == len(lipschitz) == len(runs) == len(grids)
        for grid, constant, reading, run in zip(grids, constants, lipschitz, runs):
            assert run.grid is grid and run.size == m
            reference = _randomised_norms(problem, method, noise, grid, theta, m, 23)
            assert np.array_equal(run.maxima, reference.max(axis=1))
            for r in ORDERS:
                assert _step_lr_norms(run, r) == pytest.approx(
                    [lr_norm_estimate(x, r) for x in reference.T], rel=1e-13, abs=0.0)
            assert constant == measure_truncation_constant(problem, method, grid, theta)
            assert reading == _table_lipschitz(method, problem, grid)

    @pytest.mark.parametrize("workers", [2, 5])
    def test_reduction_is_the_same_for_any_worker_count(self, monkeypatch, workers):
        # B = 3 gives eleven tasks of M = 32, each writing its own rows of
        # the shared maxima and partials (five workers outnumber the
        # cores of a small machine); the partials are summed in task
        # order, so any worker count gives the one-worker bytes
        j, m = 4, 32
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 8 * j * 3**2)
        noise = NoiseModel(j, p=0.5, kind="shared_factor", rho=0.6)
        args = (heat_1d(j), implicit_euler(), noise, FAMILIES["graded"], np.ones(j), m, 5)
        one, many = (sampler._converge(*args, count, ORDERS)[2] for count in (1, workers))
        for a, b in zip(one, many):
            assert a.tops.shape == (11, a.grid.num_steps + 1)
            assert a.maxima.tobytes() == b.maxima.tobytes()
            for r in ORDERS:
                assert _step_lr_norms(a, r).tobytes() == _step_lr_norms(b, r).tobytes()
                stats = [error_statistics(run, r, "psi2") for run in (a, b)]
                assert stats[0] == stats[1]

    def test_noise_free_family_is_deterministic_runs(self):
        problem = heat_1d(3)
        method = implicit_euler()
        theta = np.ones(3)
        grids = FAMILIES["graded"]
        constants, lipschitz, runs = sampler._converge(problem, method, None, grids, theta,
                                                       5, 1, 1, ORDERS)
        for grid, constant, reading, run in zip(grids, constants, lipschitz, runs):
            # the run is the deviation path r, whose errors are -r
            assert np.array_equal(-run, run_deterministic(problem, method, grid, theta).errors)
            assert constant == measure_truncation_constant(problem, method, grid, theta)
            assert reading == _table_lipschitz(method, problem, grid)


class TestPathwiseGronwallDominance:
    def test_every_trajectory_below_pathwise_bound(self):
        # max_k |e_k| <= (|e_0| + C h^q T + sum_k |xi_k|) e^(L_phi T)
        # with per-run constants from the one-step defects
        # |phi(U_k) - psi(U_k)|_H along the realised path and its noise
        # norms, and the flow's Lipschitz constant read off its table
        problem = scalar_linear(1.0)
        method = two_stage(*HEUN, h_star=0.25)
        grid = build_grid(1.0, 8)
        noise = centred_gaussian(1, p=1.0, c_xi=1.0)
        q = method.order
        decay, _ = flow_table(problem, grid.steps, grid.points[:-1])
        l_phi = sampler._lipschitz_constant(decay, grid.steps)
        assert l_phi == pytest.approx(math.expm1(grid.mesh) / grid.mesh)
        horizon = grid.horizon
        h = grid.mesh
        for i in range(200):
            trajectory = run_randomised(
                problem, method, noise, grid, np.array([1.0]), trajectory_stream(31, i),
            )
            c_run = max(
                float(np.linalg.norm(exact_flow(problem, h_k, t_k, u_k)
                                     - step(method, problem, h_k, t_k, u_k))) / h_k ** (q + 1.0)
                for h_k, t_k, u_k in zip(grid.steps, grid.points, trajectory.states)
            )
            noise_sum = float(np.sum(np.linalg.norm(trajectory.noise, axis=1)))
            bound = (0.0 + c_run * h**q * horizon + noise_sum) * math.exp(l_phi * horizon)
            realised = float(trajectory.error_h_norms().max())
            assert realised <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("method", [explicit_euler(), two_stage(*HEUN), implicit_euler()],
                             ids=lambda m: m.kind)
    def test_error_recursion_grows_at_most_by_the_table_reading(self, method):
        # r_(k+1) = a_k r_k + d_k + xi_k with |a_k| <= 1 + L h_k, so
        # max_k |e_k| <= e^(L T) (sum_k |d_k|_H + sum_k |xi_k|_H) with the
        # method's L read off its step table; both modes grow, and without
        # the factor e^(L T) the bound fails
        problem = Problem(SpaceDescriptor(np.array([1.0, 4.0])), (-0.5, 0.0))
        grid = build_grid(1.0, 12, 1.5)
        noise = centred_gaussian(2, p=1.0, c_xi=0.2)
        theta = np.array([1.0, -0.5])
        a, c = step_table(method, problem, grid.steps, grid.points[:-1])
        l_psi = sampler._lipschitz_constant(a, grid.steps)
        exact = exact_states(problem, grid, theta)
        defect_sum = float(np.sum(np.linalg.norm(a * exact[:-1] + c - exact[1:], axis=1)))
        worst = 0.0
        for i in range(100):
            trajectory = run_randomised(problem, method, noise, grid, theta,
                                        trajectory_stream(41, i))
            noise_sum = float(np.sum(np.linalg.norm(trajectory.noise, axis=1)))
            worst = max(worst, trajectory.error_h_norms().max() / (defect_sum + noise_sum))
        assert 1.0 < worst <= math.exp(l_psi * grid.horizon)


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

    @pytest.mark.parametrize("order", [math.nan, math.inf, -1.0])
    def test_rejects_bad_order(self, order):
        # NaN passes a sign check; an unchecked NaN order returned NaN
        with pytest.raises(ValueError, match=f"order must be finite and >= 0, got {order}"):
            measure_truncation_constant(scalar_linear(-1.0), implicit_euler(), build_grid(1.0, 4),
                                        np.array([1.0]), order)


def _forced_affine_problem():
    forcing = np.array([[0.5, -1.0, 0.3], [1.0, 0.2, 0.0], [-0.4, 0.0, 0.8]])
    return Problem(SpaceDescriptor(np.array([1.0, 3.0, 7.5])), (1.2, 0.4), forcing, 1.0)


TABLE_METHODS = [explicit_euler(), two_stage(*HEUN), implicit_euler(), exact_method()]
TABLE_GRIDS = [build_grid(1.0, 16), build_grid(1.0, 24, 2.0)]


class TestTablesAgainstStepLoop:
    """Table-based truncation constants against a per-step loop of
    step / exact_flow, the reference."""

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
