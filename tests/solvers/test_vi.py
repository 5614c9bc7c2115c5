"""Unit tests for repro.solvers.vi."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.solvers.vi import extragradient_box, natural_residual


def strongly_monotone(x):
    """F(x) = A(x - x*) with A symmetric positive definite, x* = (1, -2)."""
    matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
    return matrix @ (x - np.array([1.0, -2.0]))


def rotation(x):
    """A monotone but NOT strongly monotone operator (pure rotation)."""
    return np.array([x[1], -x[0]])


class TestNaturalResidual:
    def test_zero_at_interior_solution(self):
        x = np.array([1.0, 0.0])
        fx = np.zeros(2)
        assert natural_residual(fx, x, -10.0, 10.0) == 0.0

    def test_zero_at_boundary_solution(self):
        # At x = lo with F(x) > 0, the VI is satisfied.
        x = np.array([0.0])
        fx = np.array([5.0])
        assert natural_residual(fx, x, 0.0, 1.0) == 0.0

    def test_positive_off_solution(self):
        x = np.array([0.5])
        fx = np.array([1.0])
        assert natural_residual(fx, x, 0.0, 1.0) > 0.0

    def test_empty_vector_is_zero(self):
        assert natural_residual(np.zeros(0), np.zeros(0), 0.0, 1.0) == 0.0


class TestExtragradient:
    def test_interior_solution(self):
        result = extragradient_box(
            strongly_monotone, np.zeros(2), -10.0, 10.0, tol=1e-11
        )
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, -2.0], atol=1e-9)

    def test_handles_monotone_rotation(self):
        # Pure rotation defeats the basic projection method but extragradient
        # converges to the solution x* = 0 of VI(rotation, box).
        result = extragradient_box(
            rotation, np.array([3.0, 4.0]), -10.0, 10.0, tol=1e-9
        )
        assert result.converged
        np.testing.assert_allclose(result.x, [0.0, 0.0], atol=1e-7)

    def test_boundary_solution(self):
        # x* = (1, -2) lies outside [0, 0.5]^2; with a diagonal operator the
        # VI solution is x* clipped to the box.
        def diagonal(x):
            return np.array([2.0, 1.0]) * (x - np.array([1.0, -2.0]))

        result = extragradient_box(diagonal, np.full(2, 0.25), 0.0, 0.5)
        assert result.converged
        np.testing.assert_allclose(result.x, [0.5, 0.0], atol=1e-9)

    def test_infeasible_start_is_projected_and_iterates_stay_in_box(self):
        def guarded(x):
            assert np.all(x >= -1.0) and np.all(x <= 1.0), x
            return strongly_monotone(x)

        result = extragradient_box(guarded, np.array([50.0, -50.0]), -1.0, 1.0)
        assert result.converged
        # x_2 sits at its lower bound (F_2 = 0.875 > 0 there) and x_1
        # solves F_1(x_1, -1) = 2(x_1 - 1) + 0.5 = 0.
        np.testing.assert_allclose(result.x, [0.75, -1.0], atol=1e-9)

    def test_reported_residual_meets_tolerance(self):
        result = extragradient_box(
            strongly_monotone, np.zeros(2), -10.0, 10.0, tol=1e-8
        )
        fx = strongly_monotone(result.x)
        assert result.residual <= 1e-8
        assert natural_residual(fx, result.x, -10.0, 10.0) == result.residual

    def test_raises_on_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            extragradient_box(
                rotation, np.array([5.0, 5.0]), -10.0, 10.0,
                tol=1e-14, max_iter=10,
            )

    def test_unconverged_result_returned_when_not_raising(self):
        result = extragradient_box(
            rotation, np.array([5.0, 5.0]), -10.0, 10.0,
            tol=1e-14, max_iter=10, raise_on_failure=False,
        )
        assert not result.converged
        assert result.iterations == 10
