"""Unit tests for repro.solvers.projection."""

import numpy as np
import pytest

from repro.solvers.projection import clip_scalar, project_box


class TestProjectBox:
    def test_interior_point_unchanged(self):
        x = np.array([0.5, 0.2])
        np.testing.assert_array_equal(project_box(x, 0.0, 1.0), x)

    def test_clips_both_sides(self):
        result = project_box(np.array([-1.0, 2.0]), 0.0, 1.0)
        np.testing.assert_array_equal(result, [0.0, 1.0])

    def test_broadcasts_vector_bounds(self):
        result = project_box(
            np.array([5.0, 5.0]), np.array([0.0, 6.0]), np.array([1.0, 10.0])
        )
        np.testing.assert_array_equal(result, [1.0, 6.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            project_box(np.array([0.0]), 1.0, 0.0)

    def test_rejects_inverted_array_bounds(self):
        with pytest.raises(ValueError):
            project_box(np.array([0.0, 0.0]), np.array([0.0, 2.0]), 1.0)

    @staticmethod
    def broadcast_bounds(x, lo, hi):
        """The general path: bounds broadcast (stride 0) against ``x``."""
        return np.clip(
            x,
            np.broadcast_to(np.asarray(lo, dtype=float), x.shape),
            np.broadcast_to(np.asarray(hi, dtype=float), x.shape),
        )

    def test_scalar_bounds_match_np_clip_bitwise(self):
        # The float-bound fast path calls np.clip with the scalars and
        # must give the exact bits of the broadcast path: -0.0 keeps its
        # sign (np.maximum would return +0.0) and NaN passes through.
        x = np.array(
            [-0.0, 0.0, -1e-300, 5e-324, 0.3, 1.0, 1.5, np.nan, np.inf,
             -np.inf, -2.0]
        )
        for lo, hi in ((0.0, 1.0), (-0.0, 0.5), (0.0, 0.0), (-1.0, np.inf)):
            fast = project_box(x, lo, hi)
            general = project_box(x, np.asarray(lo), np.asarray(hi))
            assert fast.dtype == np.float64
            assert fast.tobytes() == general.tobytes()
            assert fast.tobytes() == self.broadcast_bounds(x, lo, hi).tobytes()
            np.testing.assert_array_equal(
                np.signbit(fast), np.signbit(np.clip(x, lo, hi))
            )
        assert np.signbit(project_box(np.array([-0.0]), 0.0, 1.0)[0])
        assert np.isnan(project_box(np.array([np.nan]), 0.0, 1.0)[0])

    def test_scalar_bounds_match_on_batches(self):
        x = np.array([[-0.5, 0.25, 2.0], [0.1, -0.0, 0.9]])
        fast = project_box(x, 0.0, np.float64(0.5))
        assert fast.tobytes() == self.broadcast_bounds(x, 0.0, 0.5).tobytes()
        assert np.signbit(fast[1, 1])

    def test_scalar_fast_path_converts_lists(self):
        result = project_box([-1, 0.5, 3], 0.0, 1.0)
        assert result.dtype == np.float64
        np.testing.assert_array_equal(result, [0.0, 0.5, 1.0])

    def test_idempotent(self):
        x = np.array([-3.0, 0.4, 9.0])
        once = project_box(x, 0.0, 1.0)
        np.testing.assert_array_equal(project_box(once, 0.0, 1.0), once)


class TestClipScalar:
    def test_clips(self):
        assert clip_scalar(-1.0, 0.0, 2.0) == 0.0
        assert clip_scalar(3.0, 0.0, 2.0) == 2.0
        assert clip_scalar(1.0, 0.0, 2.0) == 1.0

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            clip_scalar(0.0, 2.0, 1.0)
