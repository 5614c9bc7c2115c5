"""Unit tests for repro.solvers.scalar_opt."""

import math

import pytest

from repro.solvers.scalar_opt import (
    BOUND,
    INTERIOR,
    KINK,
    bisect_interval,
    certified_maximize,
    golden_section_maximize,
    grid_polish_maximize,
)


class TestGoldenSection:
    def test_concave_quadratic(self):
        result = golden_section_maximize(lambda x: -(x - 0.7) ** 2, 0.0, 2.0)
        assert result.x == pytest.approx(0.7, abs=1e-9)
        assert result.value == pytest.approx(0.0, abs=1e-15)

    def test_maximum_at_left_boundary(self):
        result = golden_section_maximize(lambda x: -x, 0.0, 1.0)
        assert result.x == 0.0

    def test_maximum_at_right_boundary(self):
        result = golden_section_maximize(lambda x: x, 0.0, 1.0)
        assert result.x == 1.0

    def test_degenerate_interval(self):
        result = golden_section_maximize(lambda x: x**2, 3.0, 3.0)
        assert result.x == 3.0
        assert result.value == 9.0

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            golden_section_maximize(lambda x: x, 1.0, 0.0)

    def test_revenue_style_objective(self):
        # p * e^{-p}: the canonical single-peaked revenue shape, max at 1.
        result = golden_section_maximize(lambda p: p * math.exp(-p), 0.0, 5.0)
        assert result.x == pytest.approx(1.0, abs=1e-8)


class TestGridPolish:
    def test_finds_global_peak_among_local_ones(self):
        # Two peaks: x = 0.2 (value ~1) and x = 0.8 (value ~1.5).
        def bimodal(x):
            return math.exp(-200 * (x - 0.2) ** 2) + 1.5 * math.exp(
                -200 * (x - 0.8) ** 2
            )

        result = grid_polish_maximize(bimodal, 0.0, 1.0, grid_points=64)
        assert result.x == pytest.approx(0.8, abs=1e-6)

    def test_rejects_too_few_grid_points(self):
        with pytest.raises(ValueError):
            grid_polish_maximize(lambda x: x, 0.0, 1.0, grid_points=2)

    def test_matches_golden_section_on_unimodal(self):
        func = lambda x: -(x - 1.3) ** 2  # noqa: E731
        golden = golden_section_maximize(func, 0.0, 3.0)
        grid = grid_polish_maximize(func, 0.0, 3.0)
        assert grid.x == pytest.approx(golden.x, abs=1e-7)


def smooth(x):
    """``x·e^{−x}``: one interior maximum at 1, one smooth piece."""
    return x * math.exp(-x), (1.0 - x) * math.exp(-x), None


def tent(x):
    """A tent with its peak (a kink) at 0.7: two pieces."""
    if x < 0.7:
        return x, 1.0, "left"
    return 1.4 - x, -1.0, "right"


class TestCertifiedMaximize:
    def test_interior_maximum_is_certified_by_its_slope(self):
        result = certified_maximize(
            smooth, 0.0, 3.0, grid_points=8, xtol=1e-9, tol=1e-12
        )
        assert result.certificate == INTERIOR
        assert abs(result.slope) <= 1e-12
        assert result.x == pytest.approx(1.0, abs=1e-11)
        assert result.grid
        # The secant polish needs a handful of points past the grid.
        assert result.evaluations <= 8 + 8

    @pytest.mark.parametrize(
        "lo, hi, end", [(0.0, 0.5, 0.5), (1.5, 3.0, 1.5)]
    )
    def test_range_end_with_an_outward_slope_is_a_bound(self, lo, hi, end):
        result = certified_maximize(
            smooth, lo, hi, grid_points=5, xtol=1e-9, tol=1e-12
        )
        assert result.certificate == BOUND
        assert result.x == end
        assert result.evaluations == 5

    def test_slope_sign_change_across_pieces_is_a_located_kink(self):
        result = certified_maximize(
            tent, 0.0, 1.0, grid_points=6, xtol=1e-8, tol=1e-9
        )
        assert result.certificate == KINK
        assert result.x == pytest.approx(0.7, abs=1e-8)

    def test_certified_start_is_returned_itself(self):
        result = certified_maximize(
            smooth, 0.0, 3.0, grid_points=8, xtol=1e-9, tol=1e-6,
            start=1.0 + 1e-7,
        )
        assert result.x == 1.0 + 1e-7
        assert result.certificate == INTERIOR
        assert result.grid

    def test_local_search_skips_the_grid(self):
        result = certified_maximize(
            smooth, 0.0, 3.0, grid_points=32, xtol=1e-9, tol=1e-12,
            start=0.95, guess=1.02,
        )
        assert not result.grid
        assert result.certificate == INTERIOR
        assert result.x == pytest.approx(1.0, abs=1e-11)
        assert result.evaluations <= 6

    def test_local_search_that_leaves_its_window_falls_back_to_the_grid(self):
        # From 2.5 the slope is nearly flat: the secant step overshoots
        # far beyond one grid step, so the grid scan runs.
        result = certified_maximize(
            smooth, 0.0, 3.0, grid_points=32, xtol=1e-9, tol=1e-12,
            start=2.5, guess=2.45,
        )
        assert result.grid
        assert result.certificate == INTERIOR
        assert result.x == pytest.approx(1.0, abs=1e-11)

    def test_degenerate_range_is_its_own_bound(self):
        result = certified_maximize(
            smooth, 1.5, 1.5, grid_points=5, xtol=1e-9, tol=1e-12
        )
        assert (result.x, result.certificate, result.evaluations) == (
            1.5, BOUND, 1,
        )


def test_bisect_interval_keeps_the_change_inside():
    lo, hi = bisect_interval(lambda x: x < 0.3, 0.0, 1.0, 1e-6)
    assert hi - lo <= 1e-6
    assert lo < 0.3 <= hi
