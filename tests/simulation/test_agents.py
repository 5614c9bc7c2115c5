"""Unit tests for repro.simulation.agents."""

import numpy as np
import pytest

from repro.core.best_response import best_response
from repro.core.game import SubsidizationGame
from repro.exceptions import ModelError
from repro.simulation.agents import BestResponseStrategy

RNG = np.random.default_rng(0)


class TestBestResponseStrategy:
    def test_full_damping_matches_exact_best_response(self, two_cp_market):
        game = SubsidizationGame(two_cp_market, 1.0)
        profile = np.array([0.1, 0.2])
        strategy = BestResponseStrategy(damping=1.0)
        assert strategy.propose(game, 0, profile, RNG) == pytest.approx(
            best_response(game, 0, profile)
        )

    def test_partial_damping_moves_halfway(self, two_cp_market):
        game = SubsidizationGame(two_cp_market, 1.0)
        profile = np.array([0.1, 0.2])
        target = best_response(game, 0, profile)
        proposal = BestResponseStrategy(damping=0.5).propose(game, 0, profile, RNG)
        assert proposal == pytest.approx(0.1 + 0.5 * (target - 0.1))

    def test_noise_is_reproducible_with_seeded_rng(self, two_cp_market):
        game = SubsidizationGame(two_cp_market, 1.0)
        profile = np.array([0.1, 0.2])
        strategy = BestResponseStrategy(noise=0.05)
        a = strategy.propose(game, 0, profile, np.random.default_rng(42))
        b = strategy.propose(game, 0, profile, np.random.default_rng(42))
        assert a == b

    def test_noisy_proposal_stays_feasible(self, two_cp_market):
        game = SubsidizationGame(two_cp_market, 0.3)
        strategy = BestResponseStrategy(noise=10.0)
        for seed in range(20):
            proposal = strategy.propose(
                game, 0, np.zeros(2), np.random.default_rng(seed)
            )
            assert 0.0 <= proposal <= 0.3

    def test_validation(self):
        with pytest.raises(ModelError):
            BestResponseStrategy(damping=0.0)
        with pytest.raises(ModelError):
            BestResponseStrategy(noise=-1.0)
