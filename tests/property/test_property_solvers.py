"""Property-based tests (hypothesis) on the numerical substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.exceptions import BracketError, ReproError
from repro.solvers.projection import project_box
from repro.solvers.rootfind import root_in_bracket, solve_increasing
from repro.solvers.scalar_opt import golden_section_maximize
from repro.solvers.vi import extragradient_box, natural_residual

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestRootfindProperties:
    @given(
        slope=st.floats(0.01, 100.0),
        root=st.floats(0.0, 1e3),
    )
    def test_recovers_linear_roots(self, slope, root):
        found = solve_increasing(lambda x: slope * (x - root))
        assert found == pytest.approx(root, rel=1e-8, abs=1e-9)

    @given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0))
    def test_congestion_equation_family(self, a, b):
        # phi = a * e^{-b phi} always has a unique root; residual must be 0.
        phi = solve_increasing(lambda x: x - a * math.exp(-b * x))
        assert phi == pytest.approx(a * math.exp(-b * phi), abs=1e-9)

    @given(lo=st.floats(-50.0, 50.0), offset=st.floats(1e-3, 1e3))
    def test_root_above_any_lower_bound(self, lo, offset):
        root = lo + offset
        found = solve_increasing(lambda x: math.tanh(x - root), lo=lo)
        assert found == pytest.approx(root, rel=1e-9, abs=1e-9)


#: Strictly increasing families with a root at ``r``; each evaluates the
#: shift ``x − r`` first, so the computed sign is exact near the root.
#: Brackets reach at most 50 from the root and ``k <= 10``, so ``exp``
#: stays finite.
INCREASING = {
    "shifted-exp": lambda r, k: lambda x: math.exp(k * (x - r)) - 1.0,
    "tanh": lambda r, k: lambda x: math.tanh(k * (x - r)),
    "cubic": lambda r, k: lambda x: (x - r) ** 3 + k * (x - r),
}


class TestRootInBracketProperties:
    @given(
        family=st.sampled_from(sorted(INCREASING)),
        root=st.floats(-100.0, 100.0),
        k=st.floats(0.05, 10.0),
        below=st.floats(1e-6, 50.0),
        above=st.floats(1e-6, 50.0),
        xtol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    )
    def test_root_lands_within_xtol(self, family, root, k, below, above, xtol):
        f = INCREASING[family](root, k)
        lo, hi = root - below, root + above
        found = root_in_bracket(f, lo, hi, f(lo), f(hi), xtol=xtol)
        assert lo <= found <= hi
        assert abs(found - root) <= xtol + 8 * 2.0**-52 * abs(root)

    @given(
        family=st.sampled_from(sorted(INCREASING)),
        root=st.floats(-100.0, 100.0),
        k=st.floats(0.05, 10.0),
        width=st.floats(1e-3, 50.0),
    )
    def test_endpoint_roots_come_back_exactly(self, family, root, k, width):
        f = INCREASING[family](root, k)
        assert f(root) == 0.0
        below, above = root - width, root + width
        assert root_in_bracket(f, root, above, f(root), f(above)) == root
        assert root_in_bracket(f, below, root, f(below), f(root)) == root
        assert solve_increasing(f, lo=root) == root

    @given(
        lo=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 10.0),
        level=st.floats(1e-3, 10.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_no_sign_change_raises(self, lo, width, level, sign):
        def f(x):
            return sign * (level + math.atan(x - lo))

        with pytest.raises(BracketError):
            root_in_bracket(f, lo, lo + width, f(lo), f(lo + width))
        if sign < 0.0:
            with pytest.raises(BracketError):
                solve_increasing(f, lo=lo, max_expansions=40)

    @given(
        root=st.floats(0.1, 10.0),
        start=st.floats(0.0, 1.0),
        stop=st.floats(0.0, 1.0),
    )
    def test_nan_raises_a_typed_error_and_is_never_returned(
        self, root, start, stop
    ):
        # NaN on a random piece of the bracket [0, 2·root]; wherever the
        # solver probes it, the answer is a typed error, never a NaN.
        gap = sorted((start * 2.0 * root, stop * 2.0 * root))

        def f(x):
            return math.nan if gap[0] <= x <= gap[1] else x - root

        for solve in (
            lambda: root_in_bracket(f, 0.0, 2.0 * root, -root, root),
            lambda: solve_increasing(f),
        ):
            try:
                found = solve()
            except ReproError:
                continue
            assert not math.isnan(found)
            assert abs(found - root) <= 1e-9

    def test_nan_everywhere_inside_the_bracket_raises(self):
        def f(x):
            return x if x in (-1.0, 1.0) else math.nan

        with pytest.raises(BracketError):
            root_in_bracket(f, -1.0, 1.0, -1.0, 1.0)
        with pytest.raises(BracketError):
            solve_increasing(lambda x: math.nan)


class TestProjectionProperties:
    @given(
        x=npst.arrays(float, st.integers(1, 6), elements=finite),
        lo=st.floats(-100.0, 0.0),
        width=st.floats(0.0, 100.0),
    )
    def test_projection_lands_in_box_and_is_idempotent(self, x, lo, width):
        hi = lo + width
        projected = project_box(x, lo, hi)
        assert np.all(projected >= lo) and np.all(projected <= hi)
        np.testing.assert_array_equal(project_box(projected, lo, hi), projected)

    @given(
        x=npst.arrays(float, 4, elements=finite),
        y=npst.arrays(float, 4, elements=finite),
    )
    def test_projection_is_non_expansive(self, x, y):
        px = project_box(x, -1.0, 1.0)
        py = project_box(y, -1.0, 1.0)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9


class TestGoldenSectionProperties:
    @given(
        peak=st.floats(-5.0, 5.0),
        curvature=st.floats(0.1, 50.0),
        lo=st.floats(-10.0, -6.0),
        hi=st.floats(6.0, 10.0),
    )
    def test_finds_peak_of_any_concave_parabola(self, peak, curvature, lo, hi):
        result = golden_section_maximize(
            lambda x: -curvature * (x - peak) ** 2, lo, hi
        )
        assert result.x == pytest.approx(peak, abs=1e-7)


class TestExtragradientProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        curvature=npst.arrays(float, 3, elements=st.floats(0.2, 3.0)),
        target=npst.arrays(float, 3, elements=st.floats(-3.0, 3.0)),
        lo=st.floats(-2.0, 0.0),
        width=st.floats(0.1, 2.0),
    )
    def test_solves_any_separable_strongly_monotone_vi(
        self, curvature, target, lo, width
    ):
        # F(x) = D (x - t) with D > 0 diagonal: the VI solution on the box
        # is t clipped to it, coordinate by coordinate.
        hi = lo + width
        operator = lambda x: curvature * (x - target)  # noqa: E731
        result = extragradient_box(operator, np.zeros(3), lo, hi, tol=1e-10)
        assert result.converged
        assert natural_residual(operator(result.x), result.x, lo, hi) <= 1e-10
        np.testing.assert_allclose(
            result.x, np.clip(target, lo, hi), atol=1e-8
        )
