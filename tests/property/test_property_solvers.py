"""Property-based tests (hypothesis) on the numerical substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.solvers.projection import project_box
from repro.solvers.rootfind import solve_increasing
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
