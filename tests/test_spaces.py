import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randstep import SpaceDescriptor, inner_h, laplacian_1d, norm


class TestSpaceDescriptor:
    def test_laplacian_eigenvalues(self):
        space = laplacian_1d(4)
        assert np.allclose(space.eigenvalues, [1.0, 4.0, 9.0, 16.0])
        assert space.dimension == 4

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="eigenvalues must be finite, entry 1"):
            SpaceDescriptor(np.array([1.0, bad]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(np.array([0.0, 1.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(np.array([4.0, 1.0]))


class TestNorm:
    def test_pythagorean(self):
        space = SpaceDescriptor(np.array([1.0, 1.0]))
        assert norm(np.array([3.0, 4.0]), space, "h") == pytest.approx(5.0)

    def test_v_weighting(self):
        space = SpaceDescriptor(np.array([1.0, 4.0]))
        assert norm(np.array([3.0, 4.0]), space, "v") == pytest.approx(math.sqrt(73.0))

    def test_dual_weighting(self):
        space = SpaceDescriptor(np.array([1.0, 4.0]))
        assert norm(np.array([3.0, 4.0]), space, "v_dual") == pytest.approx(math.sqrt(9.0 + 4.0))

    def test_zero_vector(self):
        space = laplacian_1d(3)
        for kind in ("h", "v", "v_dual"):
            assert norm(np.zeros(3), space, kind) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            norm(np.ones(3), laplacian_1d(2), "h")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm(np.ones(2), laplacian_1d(2), "w")

    def test_stacked_input(self):
        space = laplacian_1d(2)
        stacked = norm(np.array([[3.0, 0.0], [0.0, 4.0]]), space, "h")
        assert np.allclose(stacked, [3.0, 4.0])

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**31 - 1))
    def test_norm_ordering(self, dim, seed):
        # with lam_min >= 1: |x|_V' <= |x|_H <= |x|_V
        rng = np.random.default_rng(seed)
        space = SpaceDescriptor(np.sort(rng.uniform(1.0, 50.0, dim)))
        x = rng.standard_normal(dim)
        lo, mid, hi = norm(x, space, "v_dual"), norm(x, space, "h"), norm(x, space, "v")
        assert lo <= mid * (1 + 1e-12)
        assert mid <= hi * (1 + 1e-12)


class TestInnerH:
    def test_orthogonal(self):
        assert inner_h(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_direct(self):
        assert inner_h(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11.0)

    def test_norm_consistency(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6)
        space = SpaceDescriptor(np.ones(6))
        assert inner_h(x, x) == pytest.approx(norm(x, space, "h") ** 2)

    def test_symmetry_bilinearity(self):
        rng = np.random.default_rng(6)
        x, y, z = rng.standard_normal((3, 4))
        assert inner_h(x, y) == pytest.approx(inner_h(y, x))
        assert inner_h(x + 2.0 * z, y) == pytest.approx(inner_h(x, y) + 2.0 * inner_h(z, y))

    def test_mismatch(self):
        with pytest.raises(ValueError):
            inner_h(np.ones(2), np.ones(3))

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_cauchy_schwarz(self, dim, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, dim))
        space = SpaceDescriptor(np.ones(dim))
        lhs = abs(inner_h(x, y))
        rhs = norm(x, space, "h") * norm(y, space, "h")
        assert lhs <= rhs * (1 + 1e-12)
