"""Unit tests for repro.core.equilibrium — the Nash solvers."""

import numpy as np
import pytest

from repro.core.best_response import best_response
from repro.core.equilibrium import (
    solve_equilibrium,
    solve_equilibrium_best_response,
    solve_equilibrium_vi,
)
from repro.core.game import SubsidizationGame
from repro.exceptions import ModelError


class TestBestResponseSolver:
    def test_zero_cap_shortcut(self, two_cp_market):
        result = solve_equilibrium_best_response(
            SubsidizationGame(two_cp_market, 0.0)
        )
        np.testing.assert_array_equal(result.subsidies, [0.0, 0.0])
        assert result.iterations == 0

    def test_fixed_point_of_best_response(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        result = solve_equilibrium_best_response(game, tol=1e-11)
        for i in range(4):
            assert best_response(game, i, result.subsidies) == pytest.approx(
                result.subsidies[i], abs=1e-8
            )

    def test_certified_by_kkt_residual(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        result = solve_equilibrium_best_response(game)
        assert result.kkt_residual < 1e-8

    def test_independent_of_initial_point(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        from_zero = solve_equilibrium_best_response(game)
        from_cap = solve_equilibrium_best_response(game, initial=np.ones(4))
        np.testing.assert_allclose(
            from_zero.subsidies, from_cap.subsidies, atol=1e-8
        )

    def test_damping_validation(self, two_cp_market):
        game = SubsidizationGame(two_cp_market, 1.0)
        with pytest.raises(ValueError):
            solve_equilibrium_best_response(game, damping=0.0)


class TestVISolver:
    def test_agrees_with_best_response(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        br = solve_equilibrium_best_response(game, tol=1e-11)
        vi = solve_equilibrium_vi(game, tol=1e-10)
        np.testing.assert_allclose(vi.subsidies, br.subsidies, atol=1e-7)

    def test_result_is_feasible(self, two_cp_market):
        game = SubsidizationGame(two_cp_market, 0.25)
        result = solve_equilibrium_vi(game, tol=1e-10)
        assert np.all(result.subsidies >= 0.0)
        assert np.all(result.subsidies <= 0.25 + 1e-12)


class TestCertifiedFrontend:
    def test_returns_certified_result(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        result = solve_equilibrium(game)
        assert result.kkt_residual <= 1e-7
        assert result.method in {"best_response", "vi"}

    def test_warm_start_accelerates(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        cold = solve_equilibrium(game)
        warm = solve_equilibrium(game, initial=cold.subsidies)
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.subsidies, cold.subsidies, atol=1e-9)

    def test_state_matches_subsidies(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        result = solve_equilibrium(game)
        np.testing.assert_allclose(
            result.state.throughputs,
            game.state(result.subsidies).throughputs,
            rtol=1e-12,
        )

    def test_nobody_can_deviate_profitably(self, four_cp_market):
        # The economic definition, checked by brute force.
        game = SubsidizationGame(four_cp_market, 0.8)
        result = solve_equilibrium(game)
        s = result.subsidies
        for i in range(4):
            here = game.utility(i, s)
            for si in np.linspace(0.0, 0.8, 81):
                trial = s.copy()
                trial[i] = si
                assert game.utility(i, trial) <= here + 1e-9

    def test_single_cp_market(self):
        from repro.providers import AccessISP, Market, exponential_cp

        market = Market(
            [exponential_cp(3.0, 2.0, value=1.0)],
            AccessISP(price=1.0, capacity=1.0),
        )
        game = SubsidizationGame(market, 1.0)
        result = solve_equilibrium(game)
        # A monopolist CP's subsidy solves u_1(s) = 0 interior.
        assert 0.0 < result.subsidies[0] < 1.0
        assert result.kkt_residual < 1e-9


class TestArgumentValidation:
    """Bad arguments fail fast with ModelError, before any solve runs."""

    @pytest.fixture(autouse=True)
    def _no_solver(self, monkeypatch):
        # Any solve attempt means the check came too late.
        from repro.core import equilibrium

        def forbidden(*args, **kwargs):
            raise AssertionError("a solver ran before validation")

        for name in ("_best_response_solve", "solve_equilibrium_vi"):
            monkeypatch.setattr(equilibrium, name, forbidden)

    @pytest.mark.parametrize(
        "initial", [np.zeros(3), np.zeros(5), np.zeros((1, 4)), [0.1]]
    )
    def test_rejects_initial_of_wrong_shape(self, four_cp_market, initial):
        game = SubsidizationGame(four_cp_market, 1.0)
        with pytest.raises(ModelError, match=r"shape \(4,\)"):
            solve_equilibrium(game, initial=initial)

    def test_rejects_nan_initial(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        with pytest.raises(ModelError, match="NaN"):
            solve_equilibrium(game, initial=[0.1, np.nan, 0.2, 0.3])

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
    def test_rejects_bad_tol(self, four_cp_market, tol):
        game = SubsidizationGame(four_cp_market, 1.0)
        with pytest.raises(ModelError, match="tol"):
            solve_equilibrium(game, tol=tol)

    @pytest.mark.parametrize(
        "certify_tol", [float("nan"), float("inf"), 0.0, -1e-7]
    )
    def test_rejects_bad_certify_tol(self, four_cp_market, certify_tol):
        game = SubsidizationGame(four_cp_market, 1.0)
        with pytest.raises(ModelError, match="certify_tol"):
            solve_equilibrium(game, certify_tol=certify_tol)

    def test_best_response_solver_validates_too(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        with pytest.raises(ModelError):
            solve_equilibrium_best_response(game, initial=np.zeros(2))
        with pytest.raises(ModelError):
            solve_equilibrium_best_response(game, tol=float("nan"))


class TestInfiniteInitialIsClipped:
    def test_infinite_entries_clip_into_the_box(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        result = solve_equilibrium(
            game, initial=[np.inf, -np.inf, 0.5, np.inf]
        )
        reference = solve_equilibrium(game, initial=[1.0, 0.0, 0.5, 1.0])
        assert result.kkt_residual <= 1e-7
        np.testing.assert_array_equal(result.subsidies, reference.subsidies)
