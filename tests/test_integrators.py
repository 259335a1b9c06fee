import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randstep import (
    MethodConfig,
    Problem,
    SpaceDescriptor,
    admissible_max_step,
    build_grid,
    exact_flow,
    exact_method,
    explicit_euler,
    fit_rate,
    heat_1d,
    implicit_euler,
    laplacian_1d,
    lipschitz_constant,
    run_deterministic,
    scalar_linear,
    step,
    step_table,
    steklov_average,
    two_stage,
    validate_two_stage,
    vector_field,
)

HEUN = (0.5, 0.5, 1.0, 1.0)


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

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            steklov_average(heat_1d(1), 0.0, 0.2)


class TestAdmissibleMaxStep:
    def test_formula(self):
        assert admissible_max_step(1.0, 4.0) == pytest.approx(0.25)

    def test_no_constraint_for_zero_kappa(self):
        assert admissible_max_step(0.0, 1.0) == math.inf

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            admissible_max_step(1.0, 2.0)

    def test_round_trip_with_lipschitz(self):
        # h* = (L - 2k)/(2kL) inverts to L = 1/((2k)^(-1) - h*)
        kappa, l_psi = 2.0, 8.0
        h_star = admissible_max_step(kappa, l_psi)
        assert 1.0 / (1.0 / (2.0 * kappa) - h_star) == pytest.approx(l_psi)


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
        # u' = u has Gaarding shift kappa = 2; with L = 8, h* = 0.125
        problem = scalar_linear(1.0)
        kappa, l_psi = 2.0, 8.0
        h_star = admissible_max_step(kappa, l_psi)
        method = implicit_euler(h_star=h_star)
        rng = np.random.default_rng(12)
        for _ in range(300):
            x, y = rng.standard_normal((2, 1))
            h = float(rng.uniform(1e-4, h_star))
            t = float(rng.uniform(0.0, 1.0 - h))
            lhs = np.linalg.norm(step(method, problem, h, t, x) - step(method, problem, h, t, y))
            assert lhs <= (1.0 + l_psi * h) * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_numeric_constant_implicit_heat(self):
        assert lipschitz_constant(implicit_euler(), heat_1d(8), 0.5) == 0.0

    def test_numeric_constant_scalar_growth_explicit(self):
        # explicit Euler on u' = u: factor 1 + h, so L = 1
        val = lipschitz_constant(explicit_euler(), scalar_linear(1.0), 0.25)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_numeric_constant_covers_step(self):
        problem = scalar_linear(1.0)
        h_star = 0.2
        for method in (explicit_euler(), two_stage(*HEUN), implicit_euler()):
            l_psi = lipschitz_constant(method, problem, h_star)
            rng = np.random.default_rng(13)
            for _ in range(100):
                x, y = rng.standard_normal((2, 1))
                h = float(rng.uniform(1e-4, h_star))
                lhs = np.linalg.norm(
                    step(method, problem, h, 0.0, x) - step(method, problem, h, 0.0, y)
                )
                assert lhs <= (1.0 + l_psi * h) * np.linalg.norm(x - y) * (1 + 1e-10)


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


def _defining_step(method, problem, h, t, v):
    """One step of the method from its defining formula (the reference)."""
    if method.kind == "explicit_euler":
        return v + h * vector_field(problem, t, v)
    if method.kind == "two_stage":
        k1 = vector_field(problem, t, v)
        k2 = vector_field(problem, t + method.b1 * h, v + method.b2 * h * k1)
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


class TestExplicitStability:
    def test_heat_explicit_euler_unstable_step_raises(self):
        # h lam_j = j^2 / 8 first exceeds 2 on mode j = 5 (index 4)
        with pytest.raises(ValueError, match=(
            r"unstable explicit step 0: mode 4 has h lam alpha = 3\.125 and factor -2\.125"
        )):
            run_deterministic(heat_1d(64), explicit_euler(), build_grid(1.0, 8), np.ones(64))

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
