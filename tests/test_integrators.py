import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randstep import (
    MethodConfig,
    Problem,
    SpaceDescriptor,
    build_grid,
    exact_flow,
    exact_method,
    explicit_euler,
    fit_rate,
    heat_1d,
    implicit_euler,
    laplacian_1d,
    scalar_linear,
    step,
    step_table,
    steklov_average,
    two_stage,
    validate_two_stage,
)
from randstep import sampler
from reference import run_deterministic

HEUN = (0.5, 0.5, 1.0, 1.0)
EULER_MEMBER = (1.0, 0.0, 0.0, 0.0)


class TestStepExamples:
    def test_implicit_euler_scalar(self):
        problem = scalar_linear(-1.0)  # u' + u = 0
        out = step(implicit_euler(), problem, 0.1, 0.0, np.array([1.0]))
        assert out[0] == pytest.approx(1.0 / 1.1, abs=1e-15)
        one_step_error = abs(exact_flow(problem, 0.1, 0.0, np.array([1.0]))[0] - out[0])
        assert one_step_error == pytest.approx(abs(1.0 / 1.1 - math.exp(-0.1)), rel=1e-12)
        assert one_step_error == pytest.approx(0.004254, abs=1e-6)

    def test_two_stage_scalar_growth(self):
        problem = scalar_linear(1.0)  # u' = u
        out = step(two_stage(*HEUN), problem, 0.1, 0.0, np.array([1.0]))
        assert out[0] == pytest.approx(1.105, abs=1e-15)
        assert abs(math.exp(0.1) - out[0]) == pytest.approx(1.71e-4, abs=2e-7)

    def test_zero_fixed_point(self):
        problem = heat_1d(4)
        zero = np.zeros(4)
        for method in (explicit_euler(), two_stage(*HEUN), implicit_euler(), exact_method()):
            assert np.allclose(step(method, problem, 0.05, 0.1, zero), 0.0)

    def test_step_size_validation(self):
        problem = heat_1d(2)
        with pytest.raises(ValueError):
            step(implicit_euler(), problem, 0.0, 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            step(implicit_euler(h_star=0.1), problem, 0.2, 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            step(implicit_euler(), problem, 0.5, 0.8, np.zeros(2))

    def test_refuses_a_scalar_state_and_steps_stacked_states(self):
        # a 0-d state raised a bare IndexError: tuple index out of range
        with pytest.raises(ValueError,
                           match=r"^coefficients must have a last axis of length 1, got shape \(\)$"):
            step(implicit_euler(), scalar_linear(-1.0), 0.1, 0.0, 1.0)
        states = np.array([[1.0, -0.5], [0.25, 2.0], [0.0, 1.0]])
        stacked = step(implicit_euler(), heat_1d(2), 0.1, 0.2, states)
        assert np.array_equal(stacked, [step(implicit_euler(), heat_1d(2), 0.1, 0.2, x)
                                        for x in states])

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_state_length_checked(self, length):
        # refused as exact_flow refuses it, not broadcast over the modes
        with pytest.raises(ValueError, match=f"length {length} does not match space dimension 3"):
            step(implicit_euler(), heat_1d(3), 0.1, 0.0, np.ones(length))

    def test_implicit_singularity_detected(self):
        problem = scalar_linear(1.0)  # factor 1/(1 - h)
        with pytest.raises(ValueError):
            step(implicit_euler(), problem, 1.0, 0.0, np.array([1.0]))

    def test_exact_kind_matches_flow(self):
        problem = heat_1d(3)
        x = np.array([1.0, 0.5, -0.25])
        assert np.allclose(
            step(exact_method(), problem, 0.2, 0.1, x), exact_flow(problem, 0.2, 0.1, x)
        )


class TestValidateTwoStage:
    def test_heun_is_order_two(self):
        assert validate_two_stage(*HEUN) == 2

    def test_euler_reduction_is_order_one(self):
        assert validate_two_stage(1.0, 0.0, 0.3, 0.7) == 1

    def test_inconsistent_raises(self):
        with pytest.raises(ValueError):
            validate_two_stage(0.4, 0.4, 1.0, 1.0)

    def test_partial_conditions_give_one(self):
        assert validate_two_stage(0.3, 0.7, 0.2, 0.5) == 1

    def test_midpoint_is_order_two(self):
        assert validate_two_stage(0.0, 1.0, 0.5, 0.5) == 2

    def test_method_config_order(self):
        assert two_stage(*HEUN).order == 2
        assert explicit_euler().order == 1
        assert implicit_euler().order == 1
        assert implicit_euler(declared_order=0.0).order == 0.0
        assert exact_method().order == math.inf


class TestSteklovAverage:
    def test_affine_mean(self):
        problem = Problem(SpaceDescriptor(np.array([1.0])), (1.0, 1.0), None, 1.0)
        alpha_bar, _ = steklov_average(problem, 0.5, 0.0)
        assert alpha_bar == pytest.approx(1.25)

    def test_constant_mean(self):
        problem = Problem(SpaceDescriptor(np.array([1.0])), (3.0, 0.0), None, 1.0)
        for (t, h) in ((0.0, 0.2), (0.3, 0.5)):
            alpha_bar, _ = steklov_average(problem, h, t)
            assert alpha_bar == pytest.approx(3.0)

    def test_quadratic_forcing_mean(self):
        problem = Problem(
            SpaceDescriptor(np.array([1.0])), (1.0, 0.0), np.array([[0.0, 0.0, 1.0]]), 1.0
        )
        _, b_bar = steklov_average(problem, 1.0, 0.0)
        assert b_bar[0] == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("h, t", [(math.nan, 0.0), (0.1, math.nan), (math.inf, 0.0)])
    def test_rejects_non_finite_steps(self, h, t):
        with pytest.raises(ValueError, match=r"step 0 \[.*\] is not finite"):
            steklov_average(heat_1d(2), h, t)

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            steklov_average(heat_1d(1), 0.0, 0.2)


class TestLipschitzProperties:
    def test_implicit_nonexpansive_on_heat(self):
        problem = heat_1d(16)
        method = implicit_euler()
        rng = np.random.default_rng(11)
        for _ in range(300):
            x, y = rng.standard_normal((2, 16))
            h = float(rng.uniform(1e-3, 0.5))
            t = float(rng.uniform(0.0, 1.0 - h))
            dx = step(method, problem, h, t, x) - step(method, problem, h, t, y)
            assert np.linalg.norm(dx) <= np.linalg.norm(x - y) * (1 + 1e-12)

    def test_implicit_growth_bounded_by_kappa_rate(self):
        # u' = u has Gaarding shift kappa = 2; implicit Euler is (1 + L h)-Lipschitz
        # for h <= h* = (L - 2 kappa) / (2 kappa L), which is 4 / 32 at L = 8
        problem = scalar_linear(1.0)
        l_psi, h_star = 8.0, 0.125
        method = implicit_euler(h_star=h_star)
        rng = np.random.default_rng(12)
        for _ in range(300):
            x, y = rng.standard_normal((2, 1))
            h = float(rng.uniform(1e-4, h_star))
            t = float(rng.uniform(0.0, 1.0 - h))
            lhs = np.linalg.norm(step(method, problem, h, t, x) - step(method, problem, h, t, y))
            assert lhs <= (1.0 + l_psi * h) * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_numeric_constant_implicit_heat(self):
        grid = build_grid(1.0, 2)
        a, _ = step_table(implicit_euler(), heat_1d(8), grid.steps, grid.points[:-1])
        assert sampler._lipschitz_constant(a, grid.steps) == 0.0

    def test_numeric_constant_scalar_growth_explicit(self):
        # explicit Euler on u' = u: factor 1 + h on every step, so L = 1
        grid = build_grid(1.0, 4, 2.0)
        a, _ = step_table(explicit_euler(), scalar_linear(1.0), grid.steps, grid.points[:-1])
        assert sampler._lipschitz_constant(a, grid.steps) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize(
        "problem",
        [scalar_linear(1.0), Problem(SpaceDescriptor(np.array([0.5, 2.0])), (1.0, -1.5))],
        ids=["scalar_growth", "affine_sign_change"],
    )
    @pytest.mark.parametrize("method", [explicit_euler(), two_stage(*HEUN), implicit_euler()],
                             ids=lambda m: m.kind)
    def test_numeric_constant_covers_step(self, problem, method):
        # the reading off a grid's table bounds the growth of each of its
        # steps, and some step attains it; on the affine problem the
        # two-stage factor differs between a step's start and second stage
        grid = build_grid(1.0, 6, 1.5)
        a, _ = step_table(method, problem, grid.steps, grid.points[:-1])
        l_psi = sampler._lipschitz_constant(a, grid.steps)
        dimension = problem.space.dimension
        rng = np.random.default_rng(13)
        growth = 0.0
        for h, t in zip(grid.steps, grid.points[:-1]):
            for _ in range(20):
                x, y = rng.standard_normal((2, dimension))
                lhs = np.linalg.norm(step(method, problem, h, t, x) - step(method, problem, h, t, y))
                assert lhs <= (1.0 + l_psi * h) * np.linalg.norm(x - y) * (1 + 1e-12)
            factors = np.diag(step(method, problem, h, t, np.eye(dimension))
                              - step(method, problem, h, t, np.zeros(dimension)))
            growth = max(growth, float(np.max((np.abs(factors) - 1.0) / h)))
        assert l_psi > 0.0
        assert l_psi == pytest.approx(growth, rel=1e-12)


class TestLocalTruncationOrder:
    @pytest.mark.parametrize(
        "method,q",
        [
            (explicit_euler(), 1),
            (implicit_euler(), 1),
            (two_stage(*HEUN), 2),
            (two_stage(0.3, 0.7, 0.2, 0.5), 1),
        ],
    )
    def test_one_step_error_order(self, method, q):
        problem = scalar_linear(-1.0)
        v = np.array([1.0])
        points = []
        for k in range(4, 11):
            h = 2.0**-k
            err = abs(exact_flow(problem, h, 0.0, v)[0] - step(method, problem, h, 0.0, v)[0])
            points.append((h, err))
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(q + 1, abs=0.1)

    def test_two_stage_expansion_constant_bounded(self):
        # order-2 coefficients: error / h^3 stays bounded as h -> 0
        problem = scalar_linear(1.0)
        method = two_stage(*HEUN)
        v = np.array([1.0])
        ratios = []
        for k in range(4, 14):
            h = 2.0**-k
            err = abs(exact_flow(problem, h, 0.0, v)[0] - step(method, problem, h, 0.0, v)[0])
            ratios.append(err / h**3)
        assert max(ratios) < 1.0
        assert ratios[-1] == pytest.approx(math.exp(0.0) / 6.0, rel=0.05)


class TestMethodConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MethodConfig("rk4")

    def test_negative_h_star(self):
        with pytest.raises(ValueError):
            MethodConfig("explicit_euler", h_star=-1.0)

    def test_negative_two_stage_coefficients(self):
        with pytest.raises(ValueError):
            two_stage(-0.5, 1.5, 1.0, 1.0)

    def test_inconsistent_two_stage_fails_when_built(self):
        # the constructor checks as two_stage() does, before any .order
        with pytest.raises(ValueError, match="inconsistent method"):
            MethodConfig("two_stage", 0.3, 0.3, 1.0, 1.0)

    @pytest.mark.parametrize("coefficients", [(math.nan, 0.5, 1.0, 1.0), (0.5, 0.5, math.inf, 1.0),
                                              (0.5, 0.5, 1.0, -math.inf)])
    def test_non_finite_two_stage_coefficients(self, coefficients):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            validate_two_stage(*coefficients)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            MethodConfig("two_stage", *coefficients)

    @pytest.mark.parametrize("kind", ["explicit_euler", "two_stage", "implicit_euler"])
    @pytest.mark.parametrize("order", [-1.0, -1e-300, math.nan, math.inf])
    def test_declared_order_must_be_finite_and_non_negative(self, kind, order):
        coefficients = HEUN if kind == "two_stage" else ()
        with pytest.raises(ValueError, match="declared_order must be finite and >= 0"):
            MethodConfig(kind, *coefficients, declared_order=order)


def _field(problem, t, v):
    """The right-hand side b(t) - lam alpha(t) v of the problem."""
    return problem.forcing_at(t) - problem.space.eigenvalues * problem.alpha_at(t) * v


def _defining_step(method, problem, h, t, v):
    """One step of the method from its defining formula (the reference)."""
    if method.kind == "explicit_euler":
        return v + h * _field(problem, t, v)
    if method.kind == "two_stage":
        k1 = _field(problem, t, v)
        k2 = _field(problem, t + method.b1 * h, v + method.b2 * h * k1)
        return v + h * (method.a1 * k1 + method.a2 * k2)
    if method.kind == "implicit_euler":
        alpha_bar, b_bar = steklov_average(problem, h, t)
        return (h * b_bar + v) / (1.0 + h * problem.space.eigenvalues * alpha_bar)
    return exact_flow(problem, h, t, v)


class TestStepTable:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([1.0, 1.5, 3.0]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_rows_match_defining_formulas(self, n, gamma, seed):
        # affine alpha and forcing on nested grids (N and 2N steps); the
        # spectrum is scaled so the coarse mesh keeps h lam alpha <= 1.9,
        # inside the explicit methods' stability region
        rng = np.random.default_rng(seed)
        horizon = float(rng.uniform(0.5, 2.0))
        grids = [build_grid(horizon, n, gamma), build_grid(horizon, 2 * n, gamma)]
        a0 = float(rng.uniform(0.3, 2.0))
        a1 = max(float(rng.uniform(-0.2, 1.0)), (0.05 - a0) / horizon)
        alpha_max = max(a0, a0 + a1 * horizon)
        dim = int(rng.integers(1, 6))
        eig = np.sort(rng.uniform(0.01, 1.0, dim)) * 1.9 / (grids[0].mesh * alpha_max)
        forcing = rng.uniform(-1.0, 1.0, (dim, 3))
        problem = Problem(SpaceDescriptor(eig), (a0, a1), forcing, horizon)
        methods = (explicit_euler(), two_stage(*HEUN), two_stage(0.3, 0.7, 0.2, 0.5),
                   implicit_euler(), exact_method())
        for grid in grids:
            # explicit Euler is the two-stage member (1, 0, 0, 0), bit for bit
            euler, member = (step_table(method, problem, grid.steps, grid.points[:-1])
                             for method in (explicit_euler(), two_stage(*EULER_MEMBER)))
            assert all(np.array_equal(x, y) for x, y in zip(euler, member))
            for method in methods:
                a, c = step_table(method, problem, grid.steps, grid.points[:-1])
                assert a.shape == c.shape == (grid.num_steps, dim)
                for k in range(grid.num_steps):
                    h, t = float(grid.steps[k]), float(grid.points[k])
                    v = rng.standard_normal((2, dim))
                    want = _defining_step(method, problem, h, t, v)
                    got = a[k] * v + c[k]
                    scale = np.max(np.abs(v)) + np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-13 * scale
                    assert np.array_equal(step(method, problem, h, t, v), got)

    def test_rejects_steps_outside_the_interval(self):
        with pytest.raises(ValueError, match="leaves"):
            step_table(implicit_euler(), heat_1d(2), np.array([0.5, 0.6]), np.array([0.0, 0.5]))

    @pytest.mark.parametrize("method", [explicit_euler(), two_stage(*HEUN), implicit_euler(),
                                        exact_method()], ids=lambda m: m.kind)
    @pytest.mark.parametrize("steps, points, shapes", [
        ([0.1, 0.1], [0.0], r"\(2,\) and \(1,\)"),
        (0.1, 0.0, r"\(\) and \(\)"),
        ([[0.1]], [[0.0]], r"\(1, 1\) and \(1, 1\)"),
    ], ids=["two-lengths", "scalars", "2-d"])
    def test_refuses_steps_and_points_that_are_not_1d_of_one_length(self, method, steps, points,
                                                                      shapes):
        # two lengths gave two rows that both started at t = 0; scalars
        # raised a bare IndexError
        with pytest.raises(ValueError, match=f"^steps and points must be 1-d arrays of one length, "
                                             f"got shapes {shapes}$"):
            step_table(method, heat_1d(4), steps, points)

    @pytest.mark.parametrize("method", [explicit_euler(), two_stage(*HEUN), implicit_euler(),
                                        exact_method()], ids=lambda m: m.kind)
    @pytest.mark.parametrize("h, t, end", [(math.nan, 0.0, "nan"), (0.1, math.nan, "nan"),
                                           (math.inf, 0.0, "inf"), (0.1, math.inf, "inf")])
    def test_rejects_non_finite_steps(self, method, h, t, end):
        with pytest.raises(ValueError, match=rf"step 1 \[.*, {end}\] is not finite"):
            step_table(method, heat_1d(2), [0.1, h], [0.0, t])


class TestExplicitStability:
    def test_heat_explicit_euler_unstable_step_raises(self):
        # h lam_j = j^2 / 8 first exceeds 2 on mode j = 5 (index 4); the
        # two-stage member (1, 0, 0, 0) is explicit Euler and fails alike
        for method in (explicit_euler(), two_stage(*EULER_MEMBER)):
            with pytest.raises(ValueError, match=(
                r"unstable explicit step 0: mode 4 has h lam alpha = 3\.125 and factor -2\.125"
            )):
                run_deterministic(heat_1d(64), method, build_grid(1.0, 8), np.ones(64))

    @pytest.mark.parametrize("method", [explicit_euler(), two_stage(*HEUN)],
                             ids=["explicit_euler", "heun"])
    def test_overflowed_factor_is_unstable(self, method):
        # h lam alpha overflows to inf; Heun's factor is then -inf + inf = NaN
        problem = Problem(SpaceDescriptor(np.array([1e300])), (1e10, 0.0), None, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="unstable explicit step 0: mode 0 has h lam alpha = inf"):
                step_table(method, problem, [0.5], [0.0])

    @pytest.mark.parametrize("z,unstable", [(1.999, False), (2.0, False), (2.001, True)])
    def test_two_stage_stability_boundary(self, z, unstable):
        # Heun's factor 1 - z + z^2/2 leaves [-1, 1] just above z = 2
        problem = Problem(laplacian_1d(1), (z, 0.0), None, 1.0)
        if unstable:
            with pytest.raises(ValueError, match="unstable explicit step 0: mode 0"):
                step(two_stage(*HEUN), problem, 1.0, 0.0, np.array([1.0]))
        else:
            out = step(two_stage(*HEUN), problem, 1.0, 0.0, np.array([1.0]))
            assert abs(out[0]) <= 1.0

    def test_growth_problem_still_runs(self):
        # u' = u: the factor 1 + h exceeds 1, but so does the exact flow's
        trajectory = run_deterministic(
            scalar_linear(1.0), explicit_euler(), build_grid(1.0, 4), np.array([1.0])
        )
        assert trajectory.states[-1, 0] == pytest.approx(1.25**4, rel=1e-14)
