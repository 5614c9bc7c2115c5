"""Unit tests for repro.solvers.differentiation."""

import math

import numpy as np
import pytest

from repro.solvers.differentiation import derivative, jacobian


class TestDerivative:
    def test_polynomial(self):
        assert derivative(lambda x: x**3, 2.0) == pytest.approx(12.0, rel=1e-7)

    def test_exponential(self):
        assert derivative(math.exp, 1.0) == pytest.approx(math.e, rel=1e-8)

    def test_at_zero_uses_absolute_step(self):
        assert derivative(math.sin, 0.0) == pytest.approx(1.0, rel=1e-8)

    def test_quadratic_is_exact_up_to_rounding(self):
        # Central differences have no truncation error on a quadratic.
        slope = derivative(lambda x: 3.0 * x**2 - 2.0 * x + 1.0, 0.75)
        assert slope == pytest.approx(2.5, rel=1e-9)

    def test_respects_custom_step(self):
        coarse = derivative(lambda x: x**2, 1.0, rel_step=1e-2)
        assert coarse == pytest.approx(2.0, rel=1e-3)


class TestJacobian:
    def test_linear_map_recovers_matrix(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        jac = jacobian(lambda x: matrix @ x, np.array([0.7, -0.3]))
        np.testing.assert_allclose(jac, matrix, atol=1e-8)

    def test_nonlinear_map(self):
        func = lambda x: np.array([x[0] * x[1], math.sin(x[0])])  # noqa: E731
        jac = jacobian(func, np.array([math.pi / 2, 2.0]))
        expected = np.array([[2.0, math.pi / 2], [0.0, 0.0]])
        np.testing.assert_allclose(jac, expected, atol=1e-7)

    def test_scalar_map_gives_the_gradient_row(self):
        # f(x) = x^T A x / 2 with A symmetric has gradient A x.
        matrix = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 4.0]])
        x = np.array([0.4, -1.2, 0.9])
        jac = jacobian(lambda v: np.array([0.5 * v @ matrix @ v]), x)
        np.testing.assert_allclose(jac, [matrix @ x], rtol=1e-7, atol=1e-8)

    def test_jacobian_of_a_gradient_is_the_hessian(self):
        # The Theorem 6 pattern: differentiate an analytic gradient map.
        hessian = jacobian(
            lambda v: np.array([np.exp(v[0]) + v[1], v[0] + 2.0 * v[1]]),
            np.array([0.0, 1.0]),
        )
        np.testing.assert_allclose(hessian, [[1.0, 1.0], [1.0, 2.0]], rtol=1e-7)
        np.testing.assert_allclose(hessian, hessian.T, rtol=1e-7)

    def test_one_sided_at_lower_bound(self):
        # func only defined for x >= 0; probe must not go negative.
        def func(x):
            if np.any(x < 0.0):
                raise AssertionError("probed outside the domain")
            return np.array([x[0] ** 2 + x[1]])

        # Forward difference at the bound is O(h) accurate, hence the looser
        # tolerance on the x^2 coordinate.
        jac = jacobian(func, np.array([0.0, 1.0]), lo=0.0)
        np.testing.assert_allclose(jac, [[0.0, 1.0]], atol=2e-5)

    def test_one_sided_at_upper_bound(self):
        def func(x):
            if np.any(x > 1.0):
                raise AssertionError("probed outside the domain")
            return np.array([3.0 * x[0]])

        jac = jacobian(func, np.array([1.0]), hi=1.0)
        np.testing.assert_allclose(jac, [[3.0]], rtol=1e-6)

    def test_degenerate_box_yields_zero_column(self):
        jac = jacobian(
            lambda x: np.array([x[0] + x[1]]),
            np.array([0.5, 0.0]),
            lo=np.array([0.0, 0.0]),
            hi=np.array([1.0, 0.0]),
        )
        assert jac[0, 1] == 0.0
        assert jac[0, 0] == pytest.approx(1.0, rel=1e-6)
