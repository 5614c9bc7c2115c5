"""Unit tests for repro.solvers.rootfind."""

import math

import pytest

from repro.exceptions import BracketError, ConvergenceError
from repro.solvers import rootfind
from repro.solvers.rootfind import (
    BracketResult,
    bracket_increasing,
    root_in_bracket,
    solve_increasing,
)

#: ``name -> (f, lo, hi, xtol, root as float.hex, evaluations)``: the roots
#: and evaluation counts (endpoints excluded) of ``scipy.optimize.brentq``
#: on these brackets, which ``root_in_bracket`` reproduces bit for bit.
BRENTQ_FROZEN = {
    "cubic": (
        lambda x: x**3 - 7.0, 0.0, 4.0, 1e-12, "0x1.e9b5dba5818ccp+0", 9,
    ),
    "congestion": (
        lambda x: x - 2.0 * math.exp(-3.0 * x), 0.0, 1.0, 1e-12,
        "0x1.e8ed706ed2be1p-2", 8,
    ),
    "steep-exp": (
        lambda x: math.expm1(50.0 * (x - 0.3)), 0.0, 1.0, 1e-12,
        "0x1.3333333333333p-2", 14,
    ),
    "dottie": (
        lambda x: x - math.cos(x), 0.0, 2.0, 1e-12, "0x1.7a695dd83ce2ep-1", 6,
    ),
    "flat-power": (
        lambda x: math.copysign(abs(x - 0.7) ** 0.1, x - 0.7), 0.0, 1.0,
        1e-12, "0x1.6666666666feap-1", 37,
    ),
    "loose-tanh": (
        lambda x: math.tanh(3.0 * (x - 1.234567)), 0.0, 8.0, 1e-6,
        "0x1.3c0c9447361f6p+0", 8,
    ),
}


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

    def test_infinite_value_stops_the_bracket_expansion(self):
        with pytest.raises(BracketError, match="inf"):
            bracket_increasing(lambda x: math.inf if x > 3.0 else -1.0)

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


class TestRootInBracket:
    @pytest.mark.parametrize("name", sorted(BRENTQ_FROZEN))
    def test_reproduces_brentq_bit_for_bit(self, name):
        f, lo, hi, xtol, root_hex, evaluations = BRENTQ_FROZEN[name]
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        root = root_in_bracket(counted, lo, hi, f(lo), f(hi), xtol=xtol)
        assert root.hex() == root_hex
        assert len(calls) == evaluations

    def test_decreasing_function_through_its_negation(self):
        # The scalar best response solves u(s) = 0 for a decreasing u by
        # handing -u to the solver: same root as the increasing mirror.
        def u(x):
            return 2.0 * math.exp(-3.0 * x) - x

        root = root_in_bracket(lambda x: -u(x), 0.0, 1.0, -u(0.0), -u(1.0))
        assert root.hex() == BRENTQ_FROZEN["congestion"][4]

    def test_infinite_value_raises(self):
        def f(x):
            return math.inf if x > 0.75 else x - 0.5

        with pytest.raises(BracketError, match="inf"):
            root_in_bracket(f, 0.0, 0.8, -0.5, f(0.8))
        # An interior probe that lands on an infinite value raises too.
        def g(x):
            return math.inf if 0.4 < x < 0.6 else x - 0.5

        with pytest.raises(BracketError, match="inf"):
            root_in_bracket(g, 0.0, 1.0, -0.5, 0.5)

    def test_step_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(rootfind, "_MAX_ITER", 5)
        f = BRENTQ_FROZEN["flat-power"][0]
        with pytest.raises(ConvergenceError) as excinfo:
            root_in_bracket(f, 0.0, 1.0, f(0.0), f(1.0))
        assert excinfo.value.iterations == 5
        assert excinfo.value.residual > 1e-12
