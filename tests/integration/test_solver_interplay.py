"""Integration tests of the numerical substrate against the game layer.

These exercise solver components *on the game's own maps* (rather than toy
functions): plain Jacobi best-response iteration, the extragradient method
on −u, and failure-injection paths of the certified front-end.
"""

import numpy as np
import pytest

from repro.core.best_response import best_response_profile
from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.exceptions import EquilibriumError
from repro.solvers.vi import extragradient_box


class TestSolversOnTheGame:
    def test_jacobi_best_response_iteration_reaches_the_equilibrium(
        self, four_cp_market
    ):
        game = SubsidizationGame(four_cp_market, 1.0)
        profile = np.zeros(4)
        for _ in range(200):
            update = best_response_profile(game, profile)
            step = np.max(np.abs(update - profile))
            profile = update
            if step <= 1e-10:
                break
        assert step <= 1e-10
        reference = solve_equilibrium(game)
        np.testing.assert_allclose(profile, reference.subsidies, atol=1e-7)

    def test_extragradient_solves_the_game_vi(self, two_cp_market):
        game = SubsidizationGame(two_cp_market, 0.8)
        result = extragradient_box(
            game.negated_marginal_utilities,
            np.zeros(2),
            0.0,
            0.8,
            step=0.5,
            tol=1e-9,
        )
        assert result.converged
        reference = solve_equilibrium(game)
        np.testing.assert_allclose(result.x, reference.subsidies, atol=1e-6)


class TestFailureInjection:
    def test_front_end_reports_all_attempts_on_total_failure(
        self, two_cp_market, monkeypatch
    ):
        game = SubsidizationGame(two_cp_market, 1.0)
        # Make every marginal utility NaN: no solver can certify anything.
        monkeypatch.setattr(
            SubsidizationGame,
            "marginal_utilities",
            lambda self, s=None: np.full(self.size, np.nan),
        )
        with pytest.raises(EquilibriumError) as excinfo:
            solve_equilibrium(game)
        message = str(excinfo.value)
        assert "best_response" in message
        assert "vi" in message

    def test_certification_rejects_near_misses(self, four_cp_market):
        # An absurdly tight certification tolerance cannot be met by the
        # default solver tolerances; the front-end must refuse rather than
        # return an uncertified profile.
        game = SubsidizationGame(four_cp_market, 1.0)
        with pytest.raises(EquilibriumError):
            solve_equilibrium(game, tol=1e-6, certify_tol=1e-15)
