import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from randstep import (
    Problem,
    SpaceDescriptor,
    apply_operator,
    exact_flow,
    flow_lipschitz,
    garding_constants,
    heat_1d,
    laplacian_1d,
    scalar_linear,
    vector_field,
)


def _reference_flow(problem, h, t, x):
    """High-order adaptive reference integrator; the independent oracle."""
    if h == 0.0:
        return np.asarray(x, dtype=float)
    sol = solve_ivp(
        lambda s, u: vector_field(problem, min(s, problem.horizon), u),
        (t, t + h),
        np.asarray(x, dtype=float),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    assert sol.success
    return sol.y[:, -1]


def _random_problem(rng, with_forcing=None, affine=None):
    dim = int(rng.integers(1, 6))
    eig = np.sort(rng.uniform(0.5, 25.0, dim))
    horizon = float(rng.uniform(0.5, 2.0))
    if affine is None:
        affine = bool(rng.uniform() < 0.5)
    if affine:
        a0 = float(rng.uniform(0.3, 2.0))
        a1 = float(rng.uniform(-0.2, 1.0))
        if a0 + a1 * horizon <= 0.05:
            a1 = (0.05 - a0) / horizon
        alpha = (a0, a1)
    else:
        alpha = (float(rng.uniform(0.3, 2.0)), 0.0)
    if with_forcing is None:
        with_forcing = bool(rng.uniform() < 0.5)
    forcing = rng.uniform(-1.0, 1.0, (dim, 3)) if with_forcing else None
    return Problem(SpaceDescriptor(eig), alpha, forcing, horizon)


class TestExactFlowExamples:
    def test_scalar_decay(self):
        problem = Problem(SpaceDescriptor(np.array([1.0])), (1.0, 0.0), None, 1.0)
        out = exact_flow(problem, 0.1, 0.0, np.array([1.0]))
        assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-15)

    def test_identity_at_zero_step(self):
        problem = heat_1d(4)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(exact_flow(problem, 0.0, 0.3, x), x)

    def test_modewise_decay(self):
        problem = Problem(laplacian_1d(2), (1.0, 0.0), None, 1.0)
        out = exact_flow(problem, 1.0, 0.0, np.array([1.0, 1.0]))
        assert out == pytest.approx([math.exp(-1.0), math.exp(-4.0)], rel=1e-12)
        assert out == pytest.approx(
            _reference_flow(problem, 1.0, 0.0, np.array([1.0, 1.0])), rel=1e-10
        )

    def test_growth(self):
        problem = scalar_linear(1.0)
        out = exact_flow(problem, 0.25, 0.0, np.array([2.0]))
        assert out[0] == pytest.approx(2.0 * math.exp(0.25), rel=1e-14)

    def test_rejects_leaving_interval(self):
        problem = heat_1d(2, horizon=1.0)
        with pytest.raises(ValueError):
            exact_flow(problem, 0.5, 0.8, np.zeros(2))
        with pytest.raises(ValueError):
            exact_flow(problem, -0.1, 0.2, np.zeros(2))


class TestProblemValidation:
    @pytest.mark.parametrize("alpha", [(math.nan, 0.0), (1.0, math.inf)])
    @pytest.mark.parametrize("build", [
        lambda alpha: Problem(laplacian_1d(3), alpha),
        lambda alpha: heat_1d(3, alpha=alpha),
    ])
    def test_rejects_non_finite_alpha(self, build, alpha):
        with pytest.raises(ValueError, match="alpha coefficients must be finite"):
            build(alpha)


class TestApplyOperator:
    def test_diagonal_action(self):
        problem = Problem(laplacian_1d(2), (1.0, 0.0), None, 1.0)
        assert np.allclose(apply_operator(problem, 0.3, np.array([1.0, 1.0])), [1.0, 4.0])

    def test_time_scaling(self):
        problem = Problem(SpaceDescriptor(np.array([2.0])), (1.0, 1.0), None, 2.0)
        assert apply_operator(problem, 1.0, np.array([3.0]))[0] == pytest.approx(12.0)

    def test_linearity_at_zero(self):
        problem = heat_1d(3)
        assert np.allclose(apply_operator(problem, 0.5, np.zeros(3)), 0.0)

    def test_time_outside_interval(self):
        with pytest.raises(ValueError):
            apply_operator(heat_1d(2), 1.5, np.zeros(2))


class TestGardingConstants:
    def test_heat_model(self):
        assert garding_constants(heat_1d(8)) == (1.0, 0.0, 1.0)

    def test_affine_scaling(self):
        problem = Problem(laplacian_1d(4), (1.0, 0.5), None, 1.0)
        assert garding_constants(problem) == (1.0, 0.0, 1.5)

    def test_constant_scaling(self):
        problem = Problem(laplacian_1d(4), (3.0, 0.0), None, 1.0)
        mu, kappa, beta = garding_constants(problem)
        assert (mu, kappa, beta) == (3.0, 0.0, 3.0)

    def test_growth_problem_has_positive_shift(self):
        mu, kappa, beta = garding_constants(scalar_linear(1.0))
        assert mu > 0.0 and kappa >= mu and beta >= mu
        # the form a(u, u) = -|u|^2 must satisfy a(u,u) >= mu|u|_V^2 - kappa|u|_H^2
        assert -1.0 >= mu - kappa - 1e-15

    def test_property_matches_function(self):
        problem = heat_1d(4, alpha=(2.0, 0.0))
        assert problem.garding == garding_constants(problem)


class TestFlowProperties:
    def test_cocycle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            problem = _random_problem(rng)
            x = rng.standard_normal(problem.space.dimension)
            t = float(rng.uniform(0.0, 0.3 * problem.horizon))
            rest = problem.horizon - t
            h1 = float(rng.uniform(0.0, 0.5 * rest))
            h2 = float(rng.uniform(0.0, 0.5 * rest))
            once = exact_flow(problem, h1 + h2, t, x)
            twice = exact_flow(problem, h2, t + h1, exact_flow(problem, h1, t, x))
            scale = np.linalg.norm(once) + 1.0
            assert np.linalg.norm(once - twice) <= 1e-10 * scale

    def test_dissipative_without_forcing(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            problem = _random_problem(rng, with_forcing=False)
            x = rng.standard_normal(problem.space.dimension)
            h = float(rng.uniform(0.0, problem.horizon))
            out = exact_flow(problem, h, 0.0, x)
            assert np.linalg.norm(out) <= np.linalg.norm(x) * (1 + 1e-12)

    def test_reference_integrator_cross_check(self):
        # the oracle cross-check: closed form vs high-order time stepper
        rng = np.random.default_rng(79)
        for _ in range(100):
            problem = _random_problem(rng)
            x = rng.standard_normal(problem.space.dimension)
            t = float(rng.uniform(0.0, 0.5 * problem.horizon))
            h = float(rng.uniform(0.01, problem.horizon - t))
            ours = exact_flow(problem, h, t, x)
            ref = _reference_flow(problem, h, t, x)
            assert np.linalg.norm(ours - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))

    def test_affine_alpha_with_forcing_cross_check(self):
        # exercises the error-function evaluation path specifically
        rng = np.random.default_rng(80)
        for _ in range(30):
            problem = _random_problem(rng, with_forcing=True, affine=True)
            x = rng.standard_normal(problem.space.dimension)
            t = float(rng.uniform(0.0, 0.4 * problem.horizon))
            h = float(rng.uniform(0.05, problem.horizon - t))
            ours = exact_flow(problem, h, t, x)
            ref = _reference_flow(problem, h, t, x)
            assert np.linalg.norm(ours - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))

    def test_tiny_quadratic_branch_matches_reference(self):
        problem = Problem(
            SpaceDescriptor(np.array([2.0])), (1.0, 1e-12), np.array([[0.4, -0.3, 0.2]]), 1.0
        )
        ours = exact_flow(problem, 0.7, 0.1, np.array([1.0]))
        ref = _reference_flow(problem, 0.7, 0.1, np.array([1.0]))
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_growth_with_forcing_cross_check(self):
        problem = Problem(
            SpaceDescriptor(np.array([1.5])), (-1.0, 0.5), np.array([[1.0, 0.5, -0.25]]), 1.0
        )
        ours = exact_flow(problem, 0.9, 0.05, np.array([0.3]))
        ref = _reference_flow(problem, 0.9, 0.05, np.array([0.3]))
        assert ours == pytest.approx(ref, rel=1e-8)


class TestVectorField:
    def test_forcing_enters(self):
        problem = Problem(
            SpaceDescriptor(np.array([2.0])), (1.0, 0.0), np.array([[1.0, 2.0, 3.0]]), 1.0
        )
        out = vector_field(problem, 1.0, np.array([1.0]))
        assert out[0] == pytest.approx(1.0 + 2.0 + 3.0 - 2.0)


class TestResponseKernels:
    """The scalar kernels behind the forcing response, against quadrature."""

    def test_poly_exp_column_all_regimes(self):
        from scipy.special import gammainc, gammaln

        from randstep.problems import _poly_exp_column

        for z in (-60.0, -5.0, -0.3, 0.0, 0.7, 1.5, 7.0, 15.0, 49.9, 150.0, 5e4):
            table = _poly_exp_column(z, 30)
            for k in (0, 1, 2, 7, 19, 30):
                if z > 0:
                    # int_0^1 s^k e^(-z s) ds = lower_gamma(k+1, z) / z^(k+1)
                    ref = gammainc(k + 1, z) * math.exp(gammaln(k + 1) - (k + 1) * math.log(z))
                else:
                    ref, _ = quad(lambda s: s**k * math.exp(-z * s), 0.0, 1.0,
                                  epsabs=1e-300, epsrel=1e-13, limit=200)
                assert table[k] == pytest.approx(ref, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize(
        "beta,gamma,t,t1",
        [
            # formerly ill-conditioned: quadratic term 10 orders below the linear one
            (11.530159118948031, 1.490887634241386e-09, 0.3660163417367126, 1.1719401007607626),
            (25.0, -3e-7, 0.1, 0.9),
            (-4.0, 1e-5, 0.0, 1.0),
            (8.0, 0.9, 0.2, 1.1),      # just under the series/erf switch
            (8.0, 4.0, 0.2, 1.1),      # just over it
            (2000.0, 0.05, 0.0, 0.5),  # stiff mode, slowly varying scaling
            (-2.0, -6.0, 0.3, 0.8),
        ],
    )
    def test_affine_response_against_quadrature(self, beta, gamma, t, t1):
        from randstep.problems import _response_affine_erf, _response_affine_series

        coeffs = np.array([0.7, -1.3, 0.4])
        series = abs(gamma) * (t1 - t) ** 2 <= 1.0
        ours = (_response_affine_series if series else _response_affine_erf)(
            coeffs, beta, gamma, t, t1
        )

        def integrand(s):
            g = lambda x: beta * x + gamma * x * x
            return math.exp(g(s) - g(t1)) * (coeffs[0] + coeffs[1] * s + coeffs[2] * s * s)

        ref, err = quad(integrand, t, t1, epsabs=1e-14, epsrel=1e-12, limit=200)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-13)


class TestFlowLipschitz:
    def test_dissipative_is_nonexpansive(self):
        assert flow_lipschitz(heat_1d(16), 0.5) == 0.0

    def test_growth_constant(self):
        problem = scalar_linear(1.0)
        h_star = 0.2
        l_phi = flow_lipschitz(problem, h_star)
        assert l_phi == pytest.approx(math.expm1(h_star) / h_star)
        for h in np.linspace(1e-3, h_star, 50):
            assert math.exp(h) <= 1.0 + l_phi * h + 1e-12

    def test_growth_requires_finite_h_star(self):
        with pytest.raises(ValueError):
            flow_lipschitz(scalar_linear(1.0), math.inf)
