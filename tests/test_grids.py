import re

import numpy as np
import pytest

from randstep import TimeGrid, build_grid


class TestBuildGrid:
    def test_uniform(self):
        grid = build_grid(1.0, 4, 1.0)
        assert np.allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.mesh == pytest.approx(0.25)

    def test_graded(self):
        grid = build_grid(1.0, 2, 2.0)
        assert np.allclose(grid.points, [0.0, 0.25, 1.0])
        assert grid.mesh == pytest.approx(0.75)

    def test_single_step(self):
        grid = build_grid(2.0, 1, 1.0)
        assert np.allclose(grid.points, [0.0, 2.0])
        assert grid.mesh == pytest.approx(2.0)

    def test_uniform_steps_equal(self):
        for n in (3, 7, 100):
            grid = build_grid(2.5, n, 1.0)
            assert np.all(np.abs(grid.steps - 2.5 / n) <= 1e-12 * 2.5 / n)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_horizon(self, horizon):
        with pytest.raises(ValueError):
            build_grid(horizon, 4)

    def test_zero_steps(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 0)

    @pytest.mark.parametrize("n", [2.5, "4", float("nan"), True])
    def test_step_count_that_is_not_an_integer_named(self, n):
        # 2.5 built a 3-step grid with steps 0.4, 0.4 and 0.2, and True
        # (bool subclasses int) a one-step grid
        message = f"step count n must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_grid(1.0, n)

    def test_numpy_integer_step_count(self):
        assert build_grid(1.0, np.int64(4)).points.tolist() == build_grid(1.0, 4).points.tolist()

    def test_bad_grading(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 4, 0.5)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_grading_named(self, gamma):
        with pytest.raises(ValueError, match=f"grading exponent gamma must be >= 1 and finite, got {gamma}"):
            build_grid(1.0, 4, gamma)

    @pytest.mark.parametrize("horizon, gamma", [(1.0, 1e308), (1e-323, 1.0)])
    def test_step_that_rounds_to_zero_named(self, horizon, gamma):
        # 0.25^1e308 underflows to 0, and 1e-323 / 4, half the least
        # subnormal, rounds to 0; both inputs are named
        message = f"a step of horizon {horizon} graded by gamma = {gamma} into n = 4 steps"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_grid(horizon, 4, gamma)

    def test_endpoints(self):
        grid = build_grid(3.0, 13, 1.7)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 3.0
        assert grid.steps.sum() == pytest.approx(3.0, rel=1e-12)


class TestTimeGridInvariants:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5, 1.0]))

    @pytest.mark.parametrize("points, match", [
        ([0.0], "grid needs at least two points"),
        ([0.0, float("nan"), 1.0], "grid points must be finite"),
    ])
    def test_rejects_short_or_non_finite(self, points, match):
        with pytest.raises(ValueError, match=match):
            TimeGrid(np.array(points))

    def test_mesh_is_max_step(self):
        grid = TimeGrid(np.array([0.0, 0.1, 0.4, 1.0]))
        assert grid.mesh == pytest.approx(0.6)

