import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randstep import SpaceDescriptor, laplacian_1d, norm
from randstep.spaces import _h_norm


class TestSpaceDescriptor:
    def test_laplacian_eigenvalues(self):
        space = laplacian_1d(4)
        assert np.allclose(space.eigenvalues, [1.0, 4.0, 9.0, 16.0])
        assert space.dimension == 4

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="eigenvalues must be finite, entry 1"):
            SpaceDescriptor(np.array([1.0, bad]))

    def test_laplacian_dimension_that_is_not_an_integer_named(self):
        # 2.5 gave three modes
        with pytest.raises(ValueError, match="^dimension must be an integer, got 2.5$"):
            laplacian_1d(2.5)
        assert laplacian_1d(np.int64(3)).eigenvalues.tolist() == [1.0, 4.0, 9.0]

    def test_laplacian_bool_dimension_named(self):
        # True gave one mode, since bool subclasses int
        with pytest.raises(ValueError, match="^dimension must be an integer, got True$"):
            laplacian_1d(True)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(np.array([0.0, 1.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(np.array([4.0, 1.0]))


class TestNorm:
    def test_pythagorean(self):
        space = SpaceDescriptor(np.array([1.0, 1.0]))
        assert norm(np.array([3.0, 4.0]), space) == pytest.approx(5.0)

    def test_zero_vector(self):
        assert norm(np.zeros(3), laplacian_1d(3)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            norm(np.ones(3), laplacian_1d(2))

    def test_stacked_input(self):
        space = laplacian_1d(2)
        stacked = norm(np.array([[3.0, 0.0], [0.0, 4.0]]), space)
        assert np.allclose(stacked, [3.0, 4.0])

    def test_refuses_a_scalar_by_shape(self):
        # a 0-d input raised a bare IndexError: tuple index out of range
        with pytest.raises(ValueError,
                           match=r"^coefficients must have a last axis of length 1, got shape \(\)$"):
            norm(1.0, laplacian_1d(1))

    def test_norm_consistency(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6)
        space = SpaceDescriptor(np.ones(6))
        assert float(x @ x) == pytest.approx(norm(x, space) ** 2)

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_cauchy_schwarz(self, dim, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, dim))
        space = SpaceDescriptor(np.ones(dim))
        lhs = abs(float(x @ y))
        rhs = norm(x, space) * norm(y, space)
        assert lhs <= rhs * (1 + 1e-12)


class TestHNorm:
    """The one H-norm reduction: the plain sum of squares, and rescaled
    rows where that overflows or underflows."""

    @pytest.mark.parametrize("shape", [(20_000, 128), (362, 8), (128, 64), (5,), (3, 4, 7)])
    def test_equals_old_expressions_on_finite_data(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-100, 100, shape[:-1] + (1,))
        plain = np.sqrt(np.sum(x * x, axis=-1))
        assert np.array_equal(_h_norm(x), plain)
        assert np.array_equal(_h_norm(x), np.linalg.norm(x, axis=-1))
        if x.ndim == 2:  # strided rows, out and work as the ensemble pass uses them
            wide = np.empty((shape[0], shape[1] + 3))
            wide[:, 1:-2] = x
            out = np.empty((shape[0], 3))
            work = np.empty(shape)
            _h_norm(wide[:, 1:-2], out[:, 1], work)
            assert np.array_equal(out[:, 1], plain)

    def test_only_overflowing_rows_are_rescaled(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 16))
        x[::3] *= 1e200  # rows of about 4e200, squared sums beyond the largest double
        x[1] = [np.inf] + [0.0] * 15
        x[2, 5] = np.nan
        out = _h_norm(x)
        with np.errstate(over="ignore"):
            plain = np.sqrt(np.sum(x * x, axis=-1))
        kept = np.ones(50, bool)
        kept[::3] = False
        assert np.array_equal(out[kept], plain[kept], equal_nan=True)
        assert out[1] == np.inf and np.isnan(out[2])
        assert np.array_equal(plain[::3], np.full(17, np.inf))
        assert out[::3] == pytest.approx(1e200 * _h_norm(x[::3] / 1e200), rel=1e-14)

    def test_overflowing_vector_through_norm(self):
        space = SpaceDescriptor(np.array([1.0, 1.0]))
        assert norm(np.array([3e200, 4e200]), space) == pytest.approx(5e200, rel=1e-15)

    @pytest.mark.parametrize("entry, expected", [(1e-170, 2e-170), (3e-160, 6e-160)])
    def test_underflowing_rows_are_rescaled(self, entry, expected):
        # four equal entries: the sum of squares, 4e-340 or 3.6e-319, flushes
        # to zero or keeps few digits as a subnormal; rescaled, it is exact
        assert _h_norm(np.full((1, 4), entry)).tolist() == [expected]
        assert norm(np.full(4, entry), laplacian_1d(4)) == expected
        x = np.zeros((5, 4))
        x[1] = entry
        x[2] = [np.nan, entry, 0.0, 0.0]
        x[3] = [np.inf, entry, 0.0, 0.0]
        x[4] = [1.0, entry, 0.0, 0.0]
        # an all-zero row stays 0 (no 0 / 0, whose warning the test settings
        # turn into an error); NaN and inf rows are kept as they are
        out = _h_norm(x)
        assert out[0] == 0.0 and out[1] == expected and out[4] == 1.0
        assert np.isnan(out[2]) and out[3] == np.inf

    def test_large_entry_has_finite_norm(self):
        # no inf, and no overflow warning (which the test settings turn
        # into an error)
        assert norm(np.array([1e200, 1.0]), laplacian_1d(2)) == pytest.approx(math.hypot(1e200, 1.0), rel=1e-15)
