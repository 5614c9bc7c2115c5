"""Unit tests for repro.solvers.rootfind."""

import math

import pytest

from repro.exceptions import BracketError
from repro.solvers.rootfind import (
    BracketResult,
    bracket_increasing,
    solve_increasing,
)


class TestBracketIncreasing:
    def test_brackets_simple_linear_root(self):
        bracket = bracket_increasing(lambda x: x - 3.0)
        assert bracket.f_lo <= 0.0 <= bracket.f_hi
        assert bracket.lo <= 3.0 <= bracket.hi

    def test_root_at_left_boundary_returns_degenerate_bracket(self):
        bracket = bracket_increasing(lambda x: x + 1.0, lo=0.0)
        assert bracket.lo == bracket.hi == 0.0

    def test_expands_geometrically_to_reach_distant_roots(self):
        bracket = bracket_increasing(lambda x: x - 1e6, initial_width=1.0)
        assert bracket.hi >= 1e6
        assert bracket.contains_root()

    def test_raises_when_function_never_crosses_zero(self):
        with pytest.raises(BracketError):
            bracket_increasing(lambda x: -1.0, max_expansions=20)

    def test_rejects_invalid_growth(self):
        with pytest.raises(ValueError):
            bracket_increasing(lambda x: x, growth=1.0)

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            bracket_increasing(lambda x: x, initial_width=0.0)

    def test_contains_root_reports_the_sign_change(self):
        bracket = bracket_increasing(lambda x: x - 2.5)
        assert bracket.contains_root()
        assert bracket.f_lo == bracket.lo - 2.5
        assert bracket.f_hi == bracket.hi - 2.5
        assert not BracketResult(lo=0.0, hi=1.0, f_lo=1.0, f_hi=2.0).contains_root()


class TestSolveIncreasing:
    def test_finds_cubic_root(self):
        root = solve_increasing(lambda x: x**3 - 7.0)
        assert root == pytest.approx(7.0 ** (1.0 / 3.0), abs=1e-10)

    def test_root_exactly_at_zero(self):
        assert solve_increasing(lambda x: x) == 0.0

    def test_congestion_style_fixed_point(self):
        # g(phi) = phi - e^{-3 phi}: the utilization equation of a unit
        # system with one class; root satisfies phi = e^{-3 phi}.
        phi = solve_increasing(lambda x: x - math.exp(-3.0 * x))
        assert phi == pytest.approx(math.exp(-3.0 * phi), abs=1e-10)

    def test_steep_function(self):
        root = solve_increasing(lambda x: math.expm1(50.0 * (x - 0.3)))
        assert root == pytest.approx(0.3, abs=1e-9)

    def test_tiny_root_with_large_initial_width(self):
        root = solve_increasing(lambda x: x - 1e-9, initial_width=100.0)
        assert root == pytest.approx(1e-9, abs=1e-12)

    def test_finds_transcendental_root(self):
        # x = cos(x): the Dottie number.
        root = solve_increasing(lambda x: x - math.cos(x))
        assert root == pytest.approx(0.7390851332151607, abs=1e-11)

    def test_root_above_a_nonzero_lower_bound(self):
        root = solve_increasing(lambda x: x - 12.5, lo=10.0)
        assert root == pytest.approx(12.5, abs=1e-10)

    def test_returns_lo_when_already_non_negative(self):
        # Lemma 1's boundary case: a gap already non-negative at lo puts
        # the root at lo, whatever lies below it.
        assert solve_increasing(lambda x: x + 1.0, lo=0.5) == 0.5

    def test_raises_without_sign_change(self):
        with pytest.raises(BracketError):
            solve_increasing(lambda x: -1.0 - math.atan(x), max_expansions=30)
