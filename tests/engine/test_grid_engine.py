"""The parallel grid engine: scheduling, equality, warm starts, caching."""

import numpy as np
import pytest

from repro.analysis.sweeps import policy_grid, price_sweep
from repro.core.equilibrium import DEFAULT_CERTIFY_TOL
from repro.engine import (
    GridEngine,
    SolveCache,
    SolveService,
    get_default_workers,
    set_default_workers,
)
from repro.exceptions import ModelError

PRICES = np.linspace(0.3, 1.2, 4)
CAPS = np.array([0.0, 0.6])


def _grid_payload(grid):
    """Everything observable about a grid, for exact comparisons."""
    return {
        "revenue": grid.quantity(lambda eq: eq.state.revenue),
        "welfare": grid.quantity(lambda eq: eq.state.welfare),
        "throughputs": grid.provider_quantity(lambda eq: eq.state.throughputs),
        "subsidies": grid.provider_quantity(lambda eq: eq.subsidies),
        "utilization": grid.quantity(lambda eq: eq.state.utilization),
    }


class TestParallelEqualsSequential:
    def test_bitwise_equal_grids(self, two_cp_market):
        sequential = GridEngine().solve_grid(
            two_cp_market, PRICES, CAPS, workers=1
        )
        parallel = GridEngine().solve_grid(
            two_cp_market, PRICES, CAPS, workers=2
        )
        seq, par = _grid_payload(sequential), _grid_payload(parallel)
        for name in seq:
            np.testing.assert_array_equal(
                seq[name], par[name], err_msg=f"{name} differs"
            )

    def test_policy_grid_workers_flag(self, two_cp_market):
        sequential = policy_grid(two_cp_market, PRICES, CAPS)
        parallel = policy_grid(two_cp_market, PRICES, CAPS, workers=2)
        np.testing.assert_array_equal(
            _grid_payload(sequential)["subsidies"],
            _grid_payload(parallel)["subsidies"],
        )


class TestWarmStartCorrectness:
    def test_price_sweep_warm_equals_cold_across_caps(self, two_cp_market):
        # Satellite acceptance: warm-started sweeps must land on the same
        # certified equilibria as cold starts, across a cap change.
        for cap in (0.4, 0.9):
            warm = price_sweep(two_cp_market, PRICES, cap=cap, warm_start=True)
            cold = price_sweep(two_cp_market, PRICES, cap=cap, warm_start=False)
            for a, b in zip(warm, cold):
                assert a.kkt_residual <= DEFAULT_CERTIFY_TOL
                assert b.kkt_residual <= DEFAULT_CERTIFY_TOL
                np.testing.assert_allclose(
                    a.subsidies, b.subsidies, atol=DEFAULT_CERTIFY_TOL
                )

    def test_parallel_engine_warm_equals_cold(self, two_cp_market):
        warm = GridEngine().solve_grid(
            two_cp_market, PRICES, CAPS, warm_start=True, workers=2
        )
        cold = GridEngine().solve_grid(
            two_cp_market, PRICES, CAPS, warm_start=False, workers=2
        )
        np.testing.assert_allclose(
            _grid_payload(warm)["subsidies"],
            _grid_payload(cold)["subsidies"],
            atol=DEFAULT_CERTIFY_TOL,
        )

    def test_every_grid_node_is_certified(self, two_cp_market):
        engine = GridEngine()
        grid = engine.solve_grid(two_cp_market, PRICES, CAPS)
        residuals = engine.certify_grid(two_cp_market, grid)
        assert residuals.shape == (CAPS.size, PRICES.size)
        assert np.all(residuals <= DEFAULT_CERTIFY_TOL)


class TestEngineCache:
    def test_cache_hit_returns_same_object(self, two_cp_market):
        engine = GridEngine(cache=SolveCache())
        first = engine.solve_grid(two_cp_market, PRICES, CAPS)
        second = engine.solve_grid(two_cp_market, PRICES, CAPS)
        assert first is second
        assert engine.cache.hits == 1

    def test_content_keying_survives_market_rebuild(self, two_cp_market):
        from repro.providers import Market

        engine = GridEngine(cache=SolveCache())
        first = engine.solve_grid(two_cp_market, PRICES, CAPS)
        rebuilt = Market(two_cp_market.providers, two_cp_market.isp)
        second = engine.solve_grid(rebuilt, PRICES, CAPS)
        assert first is second

    def test_axis_change_misses(self, two_cp_market):
        engine = GridEngine(cache=SolveCache())
        first = engine.solve_grid(two_cp_market, PRICES, CAPS)
        second = engine.solve_grid(two_cp_market, PRICES[:-1], CAPS)
        assert first is not second

    def test_cacheless_engine_recomputes(self, two_cp_market):
        engine = GridEngine()
        assert engine.cache is None
        first = engine.solve_grid(two_cp_market, PRICES, CAPS)
        second = engine.solve_grid(two_cp_market, PRICES, CAPS)
        assert first is not second


class TestConfiguration:
    def test_default_workers_resolution(self, monkeypatch):
        set_default_workers(None)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert get_default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert get_default_workers() == 3
        set_default_workers(2)
        try:
            assert get_default_workers() == 2
        finally:
            set_default_workers(None)

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_malformed_env_rejected(self, monkeypatch, value):
        set_default_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            get_default_workers()
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            SolveService.resolve_workers(None)

    def test_invalid_workers_rejected(self, two_cp_market):
        with pytest.raises(ValueError):
            set_default_workers(0)
        with pytest.raises(ValueError):
            SolveService.resolve_workers(0)
        with pytest.raises(ValueError):
            GridEngine().solve_grid(two_cp_market, PRICES, CAPS, workers=0)

    def test_axis_validation(self, two_cp_market):
        engine = GridEngine()
        with pytest.raises(ModelError):
            engine.solve_grid(two_cp_market, [], CAPS)
        with pytest.raises(ModelError):
            engine.solve_grid(two_cp_market, PRICES, [])
