"""Batched game evaluation: marginal utilities, KKT residuals, evaluator."""

import numpy as np
import pytest

from repro.core.equilibrium import natural_map_residuals, solve_equilibrium
from repro.core.game import BatchedProfileEvaluator, SubsidizationGame


@pytest.fixture
def game(four_cp_market):
    return SubsidizationGame(four_cp_market, 1.0)


class TestBatchedMarginals:
    def test_matches_scalar_path(self, game):
        rng = np.random.default_rng(5)
        profiles = rng.uniform(0.0, 1.0, size=(16, game.size))
        batched = game.marginal_utilities_batch(profiles)
        for b in range(16):
            np.testing.assert_allclose(
                batched[b],
                game.marginal_utilities(profiles[b]),
                rtol=0,
                atol=1e-12,
            )

    def test_diagnostics_match_scalar_path(self, game):
        rng = np.random.default_rng(9)
        profiles = rng.uniform(0.0, 1.0, size=(6, game.size))
        batch = game.marginal_diagnostics_batch(profiles)
        for b in range(6):
            scalar = game.marginal_diagnostics(profiles[b])
            np.testing.assert_allclose(batch.dm_ds[b], scalar.dm_ds, atol=1e-12)
            np.testing.assert_allclose(
                batch.dphi_ds[b], scalar.dphi_ds, atol=1e-12
            )
            np.testing.assert_allclose(
                batch.dtheta_own_ds[b], scalar.dtheta_own_ds, atol=1e-12
            )

    def test_single_profile_promotes(self, game):
        s = np.full(game.size, 0.3)
        np.testing.assert_allclose(
            game.marginal_utilities_batch(s)[0],
            game.marginal_utilities(s),
            atol=1e-12,
        )


def batch_residuals(game, profiles):
    """Natural-map residuals of a profile batch from one batched ``u``."""
    return natural_map_residuals(
        profiles, game.marginal_utilities_batch(profiles), game.cap
    )


class TestKKTResidualsBatch:
    def test_matches_scalar_residual(self, game):
        from repro.core.equilibrium import _kkt_residual

        rng = np.random.default_rng(2)
        profiles = rng.uniform(0.0, 1.0, size=(10, game.size))
        batched = batch_residuals(game, profiles)
        for b in range(10):
            assert batched[b] == pytest.approx(
                _kkt_residual(game, profiles[b]), abs=1e-12
            )

    def test_zero_at_equilibrium(self, game):
        eq = solve_equilibrium(game)
        residuals = batch_residuals(game, eq.subsidies[None, :])
        assert residuals[0] <= 1e-8

    def test_one_dimensional_input(self, game):
        residuals = batch_residuals(game, np.zeros(game.size))
        assert residuals.shape == (1,)


class TestBatchedProfileEvaluator:
    def test_warm_start_does_not_change_results(self, game):
        rng = np.random.default_rng(13)
        first = rng.uniform(0.0, 1.0, size=(8, game.size))
        second = np.clip(first + rng.normal(0.0, 0.01, first.shape), 0.0, 1.0)
        evaluator = BatchedProfileEvaluator(game)
        evaluator.marginal_utilities(first)
        warm = evaluator.marginal_utilities(second)
        cold = game.marginal_utilities_batch(second)
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12)

    def test_shape_change_resets_warm_start(self, game):
        evaluator = BatchedProfileEvaluator(game)
        evaluator.marginal_utilities(np.zeros((4, game.size)))
        out = evaluator.marginal_utilities(np.zeros((2, game.size)))
        assert out.shape == (2, game.size)
