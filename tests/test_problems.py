import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from randstep import (
    Problem,
    SpaceDescriptor,
    build_grid,
    exact_flow,
    flow_table,
    heat_1d,
    implicit_euler,
    laplacian_1d,
    scalar_linear,
    step,
)
from randstep import randomisation, sampler
from randstep.problems import _check_steps


def _reference_flow(problem, h, t, x):
    """High-order adaptive reference integrator; the independent oracle."""
    if h == 0.0:
        return np.asarray(x, dtype=float)
    lam = problem.space.eigenvalues

    def field(s, u):
        s = min(s, problem.horizon)
        return problem.forcing_at(s) - lam * problem.alpha_at(s) * u

    sol = solve_ivp(
        field,
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

    def test_refuses_zero_step_as_flow_table_and_step_do(self):
        # an empty step is refused by each entry point with flow_table's message
        problem = heat_1d(4)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        message = r"^step 0 \[0.3, 0.3\] is empty or leaves \[0, 1.0\]$"
        for call in (lambda: exact_flow(problem, 0.0, 0.3, x),
                     lambda: flow_table(problem, [0.0], [0.3]),
                     lambda: step(implicit_euler(), problem, 0.0, 0.3, x)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_is_one_row_of_flow_table_bit_for_bit(self):
        # alpha = 1 - t vanishes at T, so the high modes of the last steps
        # split into substeps; each row of the grid's table is exact_flow
        # over that one step, applied to x
        from randstep.problems import _ORDER_CAP, _series_order

        forcing = np.random.default_rng(81).uniform(-1.0, 1.0, (64, 3))
        problem = Problem(laplacian_1d(64), (1.0, -1.0), forcing, 1.0)
        grid = build_grid(1.0, 16, 1.5)
        points = grid.points[:-1]
        decay, response = flow_table(problem, grid.steps, points)
        lam = problem.space.eigenvalues
        orders = _series_order(lam, -0.5 * lam, points[:, None], (points + grid.steps)[:, None])
        assert np.any(orders > _ORDER_CAP) and np.any(orders <= _ORDER_CAP)
        x = np.random.default_rng(82).standard_normal((3, 64))
        for k, (h, t) in enumerate(zip(grid.steps, points)):
            assert np.array_equal(exact_flow(problem, h, t, x), decay[k] * x + response[k])

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
        # every step, the empty one too, fails as it fails in flow_table
        for h, t in ((0.5, 0.8), (-0.1, 0.2), (-1e-9, 0.0), (0.3, -0.1), (0.2, 1.5),
                     (0.0, -0.1), (0.0, 1.5)):
            with pytest.raises(ValueError, match=r"is empty or leaves \[0, 1.0\]"):
                exact_flow(problem, h, t, np.zeros(2))

    def test_slack_past_the_horizon_is_relative(self):
        # an absolute slack of 1e-12 refused grids that build_grid made at
        # large T (rounding of t_k + h_k passes T by ulps of T) and let a
        # step end a thousand horizons past a tiny T
        rng = np.random.default_rng(2024)
        space = laplacian_1d(1)
        cases = [(4.8544075795506295e+45, n, 1.6494038656249705) for n in (2, 4, 8)]
        cases += [(10 ** rng.uniform(-20, 200), int(rng.integers(1, 65)), rng.uniform(1, 4))
                  for _ in range(20000)]
        for horizon, n, gamma in cases:
            grid = build_grid(horizon, n, gamma)
            _check_steps(Problem(space, horizon=horizon), grid.steps, grid.points[:-1])
        tiny = heat_1d(2, horizon=1e-15)
        with pytest.raises(ValueError, match=r"step 0 \[0.0, 1e-12\] is empty or leaves"):
            exact_flow(tiny, 1e-12, 0.0, np.zeros(2))
        with pytest.raises(ValueError, match=r"step 0 \[0.0, 1e-12\] is empty or leaves"):
            step(implicit_euler(), tiny, 1e-12, 0.0, np.zeros(2))

    @pytest.mark.parametrize("h, t, end", [(math.nan, 0.0, "nan"), (0.1, math.nan, "nan"),
                                           (math.inf, 0.0, "inf"), (0.1, -math.inf, "-inf")])
    def test_rejects_non_finite_steps(self, h, t, end):
        # every comparison with NaN is false, so the step check is negated
        problem = heat_1d(2, forcing=np.ones((2, 3)))
        with pytest.raises(ValueError, match=rf"step 0 \[.*, {end}\] is not finite"):
            exact_flow(problem, h, t, np.zeros(2))
        with pytest.raises(ValueError, match=rf"step 1 \[.*, {end}\] is not finite"):
            flow_table(problem, [0.1, h], [0.0, t])
        if h == 0.1:
            with pytest.raises(ValueError, match=rf"step 0 \[{t}, {t}\] is not finite"):
                exact_flow(problem, 0.0, t, np.zeros(2))

    @pytest.mark.parametrize("h", [0.0, 0.1])
    def test_rejects_state_of_wrong_dimension(self, h):
        with pytest.raises(ValueError, match="coefficient length 3 does not match space dimension 2"):
            exact_flow(heat_1d(2), h, 0.2, np.zeros(3))


class TestProblemValidation:
    @pytest.mark.parametrize("alpha", [(math.nan, 0.0), (1.0, math.inf)])
    @pytest.mark.parametrize("build", [
        lambda alpha: Problem(laplacian_1d(3), alpha),
        lambda alpha: heat_1d(3, alpha=alpha),
    ])
    def test_rejects_non_finite_alpha(self, build, alpha):
        with pytest.raises(ValueError, match="alpha coefficients must be finite"):
            build(alpha)

    def test_rejects_forcing_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"forcing must have shape \(3, 3\), got \(3, 2\)"):
            Problem(laplacian_1d(3), (1.0, 0.0), np.ones((3, 2)))

    def test_heat_model_rejects_a_scaling_that_reaches_zero(self):
        # alpha = 1 - t reaches 0 at T = 1; Problem itself admits it
        with pytest.raises(ValueError, match="strictly positive time scaling"):
            heat_1d(3, alpha=(1.0, -1.0))


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
        # affine scaling with forcing: the series orders taken from both mu and z
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


class TestFlowTableMemory:
    # not timing gates: numpy reports its buffers to tracemalloc
    FORCING = (1.0, 0.5, -0.25)

    @staticmethod
    def _peak(problem, grid):
        flow_table(problem, grid.steps[:2], grid.points[:2])  # imports outside the trace
        tracemalloc.start()
        try:
            decay, response = flow_table(problem, grid.steps, grid.points[:-1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert response.any()
        return peak, randomisation.BLOCK_BYTES + decay.nbytes + response.nbytes

    def test_forcing_response_fits_the_block_budget(self):
        # the response is taken over blocks of whole steps of at most
        # BLOCK_BYTES / 256 flat entries, so its temporaries fit in
        # BLOCK_BYTES beside the (N, J) tables E and f; on this grid the
        # flat evaluation's peak is about 12.8 MB
        dim = 1024
        problem = heat_1d(dim, alpha=(1.0, 1.0), forcing=np.tile(self.FORCING, (dim, 1)))
        peak, budget = self._peak(problem, build_grid(1.0, 64, 2.0))
        assert peak < budget

    def test_substeps_fit_the_block_budget(self):
        # alpha = 1 - t splits the top modes of the late steps into up to
        # about 45 substeps each, 46,523 in all; in groups of whole entries
        # of at most a quarter of a full block's entries their temporaries
        # fit beside the block's (about 11 MB when all were expanded at once)
        dim = 1024
        problem = Problem(laplacian_1d(dim), (1.0, -1.0), np.tile(self.FORCING, (dim, 1)), 1.0)
        peak, budget = self._peak(problem, build_grid(1.0, 32, 2.0))
        assert peak < budget


class TestResponseKernels:
    """The array kernels behind the forcing response, against quadrature."""

    def test_poly_exp_column_all_regimes(self):
        from scipy.special import gammainc, gammaln

        from randstep.problems import _poly_exp_sum

        zs = np.array([-60.0, -5.0, -0.3, 0.0, 0.7, 1.5, 7.0, 15.0, 49.9, 150.0, 5e4])
        for k in (0, 1, 2, 7, 19, 30):
            # a unit weight on f_k picks it out of the sum, for every z in one call
            column = _poly_exp_sum(zs, lambda i, k=k: float(i == k), 30)
            for z, ours in zip(zs, column):
                if z > 0:
                    # int_0^1 s^k e^(-z s) ds = lower_gamma(k+1, z) / z^(k+1)
                    ref = gammainc(k + 1, z) * math.exp(gammaln(k + 1) - (k + 1) * math.log(z))
                else:
                    ref, _ = quad(lambda s: s**k * math.exp(-z * s), 0.0, 1.0,
                                  epsabs=1e-300, epsrel=1e-13, limit=200)
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize(
        "beta,gamma,t,t1",
        [
            # formerly ill-conditioned: quadratic term 10 orders below the linear one
            (11.530159118948031, 1.490887634241386e-09, 0.3660163417367126, 1.1719401007607626),
            (25.0, -3e-7, 0.1, 0.9),
            (-4.0, 1e-5, 0.0, 1.0),
            (8.0, 0.9, 0.2, 1.1),      # |mu| = 0.73: order 17, from mu alone
            (8.0, 4.0, 0.2, 1.1),      # |mu| = 3.24: no order reaches, two substeps
            (2000.0, 0.05, 0.0, 0.5),  # stiff mode, slowly varying scaling: order from z
            (-2.0, -6.0, 0.3, 0.8),    # growth, z < 0: order 22, from mu alone
        ],
    )
    def test_affine_response_against_quadrature(self, beta, gamma, t, t1):
        # one mode with lam = 1, so beta = a0 and gamma = a1 / 2
        coeffs = np.array([0.7, -1.3, 0.4])
        problem = Problem(SpaceDescriptor(np.array([1.0])), (beta, 2.0 * gamma), coeffs[None], t1)
        ours = float(flow_table(problem, np.array([t1 - t]), np.array([t]))[1][0, 0])

        def integrand(s):
            g = lambda x: beta * x + gamma * x * x
            return math.exp(g(s) - g(t1)) * (coeffs[0] + coeffs[1] * s + coeffs[2] * s * s)

        ref, err = quad(integrand, t, t1, epsabs=1e-14, epsrel=1e-12, limit=200)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-13)


def _mp_response(lam, alpha, coeffs, t, t1, points):
    """int_t^t1 exp(-lam int_s^t1 alpha) b(s) ds by mpmath at 40 digits,
    split at `points` as well as at both ends and close to them, where the
    integrand has its boundary layers."""
    with mpmath.workdps(40):
        a0, a1 = (mpmath.mpf(a) for a in alpha)
        t, t1 = mpmath.mpf(t), mpmath.mpf(t1)

        def big_a(s):
            return a0 * s + a1 * s * s / 2

        def integrand(s):
            b = coeffs[0] + coeffs[1] * s + coeffs[2] * s * s
            return mpmath.exp(-lam * (big_a(t1) - big_a(s))) * b

        near_ends = [t + d for d in (1e-4, 1e-3, 1e-2)] + [t1 - d for d in (1e-4, 1e-3, 1e-2)]
        splits = sorted({t, t1, *(mpmath.mpf(p) for p in points), *near_ends})
        return float(mpmath.quad(integrand, [p for p in splits if t <= p <= t1]))


class TestResponseOrders:
    """The per-entry series order: the z bound's guard and the substeps."""

    COEFFS = (0.7, -1.3, 0.4)

    # alpha = -1 + 2t vanishes at 0.5, inside every step here; at large lam
    # z = lam alpha(t1) h is large while the series terms grow again near
    # m = z / 2, which the order from z must not miss (its 4 |mu| <= z guard)
    @pytest.mark.parametrize("t,t1", [(0.4, 0.6), (0.38, 0.6), (0.42, 0.6), (0.45, 0.55)])
    @pytest.mark.parametrize("lam", [200.0, 1000.0, 5000.0, 15000.0])
    def test_scaling_vanishing_inside_the_step(self, lam, t, t1):
        alpha = (-1.0, 2.0)
        problem = Problem(SpaceDescriptor(np.array([lam])), alpha, np.array([self.COEFFS]), 1.0)
        _, response = flow_table(problem, np.array([t1 - t]), np.array([t]))
        ref = _mp_response(lam, alpha, self.COEFFS, t, t1, [0.5])
        assert response[0, 0] == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("top", [1, 2, 3])
    def test_substeps_of_the_top_modes(self, top):
        # alpha = 1 - t vanishes at the end of the last step, so z = 0 there
        # and |mu| of the top modes is about 2000: they are split into substeps
        alpha = (1.0, -1.0)
        dim = 1024
        forcing = np.tile(self.COEFFS, (dim, 1))
        problem = Problem(laplacian_1d(dim), alpha, forcing, 1.0)
        grid = build_grid(1.0, 32, 2.0)
        _, response = flow_table(problem, grid.steps, grid.points[:-1])
        t, t1 = grid.points[-2], grid.points[-1]
        lam = float(problem.space.eigenvalues[dim - top])
        ref = _mp_response(lam, alpha, self.COEFFS, t, t1, [])
        assert response[-1, dim - top] == pytest.approx(ref, rel=1e-9)

    # alpha = 1 - t splits the J = 1024 grid's top modes into substeps;
    # alpha = -1 + 2t vanishes inside the steps around t = 0.5
    @pytest.mark.parametrize("dim,alpha,n", [(1024, (1.0, -1.0), 32), (128, (-1.0, 2.0), 64)],
                             ids=["substeps", "vanishing"])
    def test_step_blocks_equal_one_block(self, monkeypatch, dim, alpha, n):
        # blocks of whole steps, and with them the groups of split entries
        # whose substeps are taken together, change no entry: only the
        # downward recurrence's seed depends on a block or a group (its
        # widest |z|), and the seed error has shrunk past the last bit by
        # the entries read
        problem = Problem(laplacian_1d(dim), alpha, np.tile(self.COEFFS, (dim, 1)), 1.0)
        grid = build_grid(1.0, n, 2.0)
        tables = {}
        for budget in (1, 2**62):  # one step per block; one block
            monkeypatch.setattr(randomisation, "BLOCK_BYTES", budget)
            tables[budget] = flow_table(problem, grid.steps, grid.points[:-1])
        for one, whole in zip(tables[1], tables[2**62]):
            assert np.isfinite(whole).all()
            assert one.tobytes() == whole.tobytes()

    def test_substeps_end_to_end_against_radau(self):
        # oracle-affine's problem with alpha = 1 - t, which vanishes at T, on
        # graded grids: the n = 32 grid splits entries into substeps
        from scipy import sparse

        from randstep.problems import _ORDER_CAP, _series_order

        dim = 128
        forcing = np.tile((1.0, 0.5, -0.25), (dim, 1))
        problem = Problem(laplacian_1d(dim), (1.0, -1.0), forcing, 1.0)
        theta = np.arange(1, dim + 1, dtype=float) ** -4.0
        coarse, fine = build_grid(1.0, 32, 2.0), build_grid(1.0, 256, 2.0)
        lam = problem.space.eigenvalues
        order = _series_order(lam, -0.5 * lam, coarse.points[:-1, None], coarse.points[1:, None])
        assert (order > _ORDER_CAP).any()
        sol = solve_ivp(
            lambda t, u: forcing[:, 0] + forcing[:, 1] * t + forcing[:, 2] * t * t
            - (1.0 - t) * lam * u,
            (0.0, 1.0), theta, method="Radau", jac=lambda t, u: sparse.diags(-(1.0 - t) * lam),
            rtol=1e-12, atol=1e-14, t_eval=coarse.points,
        )
        assert sol.success
        np.testing.assert_allclose(sampler.exact_states(problem, coarse, theta), sol.y.T,
                                   rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(sampler.exact_states(problem, fine, theta)[-1], sol.y[:, -1],
                                   rtol=1e-9, atol=0.0)

    @staticmethod
    def _entries(seed):
        """Random (beta, gamma, t, t1) over both signs and many scales, kept
        where exp(g(s) - g(t1)) stays well inside double range."""
        rng = np.random.default_rng(seed)
        size = 20000
        beta, gamma = (rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3, 4, size)
                       for _ in range(2))
        t = rng.uniform(0.0, 1.0, size)
        t1 = t + 10.0 ** rng.uniform(-3, 0, size)
        h = t1 - t
        keep = ((beta + 2.0 * gamma * t1) * h > -300.0) & (np.abs(gamma * h * h) < 300.0)
        return beta[keep], gamma[keep], t[keep], t1[keep]

    def test_order_from_z_only_under_its_guard(self):
        from randstep.problems import _MU_LIMITS, _series_order

        beta, gamma, t, t1 = self._entries(11)
        h = t1 - t
        mu, z = np.abs(gamma * h * h), (beta + 2.0 * gamma * t1) * h
        order = _series_order(beta, gamma, t, t1)
        from_mu = np.searchsorted(_MU_LIMITS, mu)
        assert (order <= from_mu).all()
        # outside the guard (and at z = 0) the order is the one from mu
        unguarded = 4.0 * mu > z
        assert np.array_equal(order[unguarded], from_mu[unguarded])
        # inside it the z bound shortens some series
        assert (order[~unguarded] < from_mu[~unguarded]).any()

    def test_more_terms_change_nothing(self):
        # with b = 1 the integrand is positive and the integral at least a
        # fixed fraction of the first term, so a tail under 1e-17 of that
        # term is below the sum's rounding
        from randstep.problems import _ORDER_CAP, _series_order, _series_response

        beta, gamma, t, t1 = self._entries(12)
        order = _series_order(beta, gamma, t, t1)
        one, zero = np.ones(beta.size), np.zeros(beta.size)
        for n in range(_ORDER_CAP + 1):
            group = np.flatnonzero(order == n)
            if not group.size:
                continue
            args = (one[group], zero[group], zero[group], beta[group], gamma[group],
                    t[group], t1[group])
            ours, longer = _series_response(*args, n), _series_response(*args, n + 12)
            assert np.isfinite(ours).all()
            np.testing.assert_allclose(ours, longer, rtol=1e-15, atol=0.0)

    def test_substeps_reach_the_cap(self):
        # an entry past the cap is split into ceil(sqrt|mu|) equal substeps;
        # each has |mu| <= 1 and so an order within the cap
        from randstep.problems import _ORDER_CAP, _series_order

        beta, gamma, t, t1 = self._entries(13)
        whole = np.flatnonzero(_series_order(beta, gamma, t, t1) > _ORDER_CAP)
        assert whole.size
        for i in whole:
            h = t1[i] - t[i]
            pieces = math.ceil(math.sqrt(abs(gamma[i]) * h * h))
            edges = t[i] + h * np.arange(pieces + 1) / pieces
            lo, hi = edges[:-1], edges[1:]
            assert (np.abs(gamma[i]) * (hi - lo) ** 2 <= 1.0 + 1e-12).all()
            assert (_series_order(beta[i], gamma[i], lo, hi) <= _ORDER_CAP).all()


class TestFlowTableAgainstQuadrature:
    """Every entry of flow_table's (E, f), against its defining integrals."""

    # quad warns of roundoff where b changes sign; the abs term allows for it
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(1, 128),
        a0=st.floats(-2.0, 2.0),
        a1=st.floats(-3.0, 3.0),
        n=st.integers(1, 4),
        grading=st.floats(1.0, 3.0),
        stiffness=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # one example per regime of the scaling on stiff modes
    @example(dim=40, a0=1.0, a1=2.0, n=1, grading=1.0, stiffness=3.0, seed=1)  # rising alpha
    @example(dim=40, a0=2.0, a1=-1.5, n=2, grading=1.5, stiffness=3.0, seed=2)  # falling alpha
    # 0.5 - 3t vanishes at t = 1/6: alpha vanishing inside a step
    @example(dim=40, a0=0.5, a1=-3.0, n=2, grading=1.0, stiffness=2.0, seed=3)
    @example(dim=40, a0=0.5, a1=-3.0, n=1, grading=1.0, stiffness=2.0, seed=4)
    @example(dim=128, a0=1.0, a1=1.0, n=4, grading=2.0, stiffness=4.0, seed=5)
    def test_entries_match_quadrature(self, dim, a0, a1, n, grading, stiffness, seed):
        if a0 == 0.0 and a1 == 0.0:
            return
        rng = np.random.default_rng(seed)
        lam = np.sort(10.0 ** rng.uniform(-1.0, stiffness, dim))
        low = min(a0, a0 + a1)
        if low < 0.0:
            # growing modes: keep exp(lam int |alpha|) well inside float range
            # (compared, not divided: 40 / top overflows for a subnormal alpha)
            top = lam[-1] * max(abs(a0), abs(a0 + a1))
            if top > 40.0:
                lam *= 40.0 / top
        forcing = rng.uniform(-1.0, 1.0, (dim, 3))
        problem = Problem(SpaceDescriptor(lam), (a0, a1), forcing, 1.0)
        grid = build_grid(1.0, n, grading)
        decay, response = flow_table(problem, grid.steps, grid.points[:-1])

        def big_a(s):
            return a0 * s + 0.5 * a1 * s * s

        for k, (t, t1) in enumerate(zip(grid.points[:-1], grid.points[:-1] + grid.steps)):
            for j in range(dim):
                assert decay[k, j] == pytest.approx(
                    math.exp(-lam[j] * (big_a(t1) - big_a(t))), rel=1e-12
                )

                def integrand(s, j=j, t1=t1):
                    b = forcing[j, 0] + forcing[j, 1] * s + forcing[j, 2] * s * s
                    return math.exp(-lam[j] * (big_a(t1) - big_a(s))) * b

                ref, _ = quad(integrand, t, t1, epsabs=0.0, epsrel=1e-12, limit=200)
                scale, _ = quad(lambda s: abs(integrand(s)), t, t1, epsabs=0.0,
                                epsrel=1e-12, limit=200)
                assert response[k, j] == pytest.approx(ref, rel=1e-9, abs=1e-12 * scale)


class TestFlowLipschitz:
    """The Lipschitz constant read off a grid's flow table."""

    def test_dissipative_is_nonexpansive(self):
        grid = build_grid(1.0, 2)
        decay, _ = flow_table(heat_1d(16), grid.steps, grid.points[:-1])
        assert sampler._lipschitz_constant(decay, grid.steps) == 0.0

    def test_growth_constant(self):
        # u' = u grows by e^h over a step; (e^h - 1) / h increases with h,
        # so the largest step sets L
        problem = scalar_linear(1.0)
        grid = build_grid(1.0, 5, 2.0)
        decay, _ = flow_table(problem, grid.steps, grid.points[:-1])
        l_phi = sampler._lipschitz_constant(decay, grid.steps)
        assert l_phi == pytest.approx(math.expm1(grid.mesh) / grid.mesh)
        assert np.all(np.exp(grid.steps) <= 1.0 + l_phi * grid.steps + 1e-12)

    def test_reads_growth_only_where_the_flow_grows(self):
        # alpha = 1 - 2t changes sign at t = 1/2: the first half of the grid
        # contracts; the last step, where int alpha = -0.109375, grows most,
        # in the top mode (lam = 9)
        problem = Problem(laplacian_1d(3), (1.0, -2.0))
        grid = build_grid(1.0, 8)
        decay, _ = flow_table(problem, grid.steps, grid.points[:-1])
        assert sampler._lipschitz_constant(decay[:4], grid.steps[:4]) == 0.0
        l_phi = sampler._lipschitz_constant(decay, grid.steps)
        assert l_phi == pytest.approx(math.expm1(9.0 * 0.109375) / 0.125)
