"""Grid solves on the solve service: scheduling, equality, warm starts,
row memoization and axis validation."""

import numpy as np
import pytest

from repro.core.equilibrium import DEFAULT_CERTIFY_TOL
from repro.engine import (
    EquilibriumGrid,
    SolveCache,
    SolveService,
    SolveStore,
    certify_grid,
    default_service,
    get_default_workers,
    price_sweep,
    set_default_service,
    set_default_workers,
    solve_cap_row,
    solve_grid,
)
from repro.exceptions import ModelError
from repro.experiments.scenarios import section5_market

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


@pytest.fixture
def fresh_default():
    """A memory-only default service for the test, restored afterwards."""
    service = SolveService(cache=SolveCache())
    set_default_service(service)
    yield service
    set_default_service(None)


class TestParallelEqualsSequential:
    def test_bitwise_equal_grids(self, two_cp_market):
        sequential = solve_grid(
            two_cp_market, PRICES, CAPS, service=SolveService(), workers=1
        )
        parallel = solve_grid(
            two_cp_market, PRICES, CAPS, service=SolveService(), workers=2
        )
        seq, par = _grid_payload(sequential), _grid_payload(parallel)
        for name in seq:
            np.testing.assert_array_equal(
                seq[name], par[name], err_msg=f"{name} differs"
            )

    def test_process_default_workers_match_one_worker(self, two_cp_market):
        sequential = solve_grid(
            two_cp_market, PRICES, CAPS, service=SolveService(), workers=1
        )
        set_default_workers(2)
        try:
            parallel = solve_grid(
                two_cp_market, PRICES, CAPS, service=SolveService()
            )
        finally:
            set_default_workers(None)
        np.testing.assert_array_equal(
            _grid_payload(sequential)["subsidies"],
            _grid_payload(parallel)["subsidies"],
        )


class TestWarmStartCorrectness:
    def test_price_sweep_warm_equals_cold_across_caps(self, two_cp_market):
        # Warm-started sweeps must land on the same certified equilibria
        # as cold starts, across a cap change.
        for cap in (0.4, 0.9):
            warm = price_sweep(
                two_cp_market, PRICES, cap=cap, service=SolveService()
            )
            cold = price_sweep(
                two_cp_market,
                PRICES,
                cap=cap,
                service=SolveService(),
                warm_start=False,
            )
            for a, b in zip(warm, cold):
                assert a.kkt_residual <= DEFAULT_CERTIFY_TOL
                assert b.kkt_residual <= DEFAULT_CERTIFY_TOL
                np.testing.assert_allclose(
                    a.subsidies, b.subsidies, atol=DEFAULT_CERTIFY_TOL
                )

    def test_parallel_grid_warm_equals_cold(self, two_cp_market):
        warm = solve_grid(
            two_cp_market, PRICES, CAPS, service=SolveService(), workers=2
        )
        cold = solve_grid(
            two_cp_market,
            PRICES,
            CAPS,
            service=SolveService(),
            warm_start=False,
            workers=2,
        )
        np.testing.assert_allclose(
            _grid_payload(warm)["subsidies"],
            _grid_payload(cold)["subsidies"],
            atol=DEFAULT_CERTIFY_TOL,
        )

    def test_every_grid_node_is_certified(self, two_cp_market):
        grid = solve_grid(two_cp_market, PRICES, CAPS, service=SolveService())
        residuals = certify_grid(two_cp_market, grid)
        assert residuals.shape == (CAPS.size, PRICES.size)
        assert np.all(residuals <= DEFAULT_CERTIFY_TOL)


class TestDirectRowParity:
    """Golden: the service-routed solves == direct warm-chained rows."""

    def test_price_sweep_bitwise_parity_with_direct_row(
        self, two_cp_market, fresh_default
    ):
        prices = np.linspace(0.2, 1.4, 5)
        direct = solve_cap_row(two_cp_market, prices, 0.8, warm_start=True)
        routed = price_sweep(two_cp_market, prices, cap=0.8)
        for a, b in zip(direct, routed):
            assert a.subsidies.tobytes() == b.subsidies.tobytes()
            assert a.state.utilization == b.state.utilization
            assert a.kkt_residual == b.kkt_residual

    def test_solve_grid_bitwise_parity_with_direct_rows(
        self, two_cp_market, fresh_default
    ):
        prices = np.linspace(0.2, 1.4, 4)
        caps = (0.0, 0.4, 0.8)
        grid = solve_grid(two_cp_market, prices, caps)
        for k, cap in enumerate(caps):
            direct = solve_cap_row(two_cp_market, prices, cap, warm_start=True)
            for j, eq in enumerate(direct):
                assert (
                    grid.at(k, j).subsidies.tobytes() == eq.subsidies.tobytes()
                )
                assert grid.at(k, j).state.revenue == eq.state.revenue


class TestPriceSweep:
    def test_one_result_per_price(self, two_cp_market, fresh_default):
        results = price_sweep(two_cp_market, [0.5, 1.0, 1.5], cap=0.5)
        assert len(results) == 3
        for result, p in zip(results, [0.5, 1.0, 1.5]):
            assert result.state.price == pytest.approx(p)

    def test_warm_start_matches_cold_start(self, two_cp_market, fresh_default):
        prices = np.linspace(0.2, 1.4, 7)
        warm = price_sweep(two_cp_market, prices, cap=0.8, warm_start=True)
        cold = price_sweep(two_cp_market, prices, cap=0.8, warm_start=False)
        for a, b in zip(warm, cold):
            np.testing.assert_allclose(a.subsidies, b.subsidies, atol=1e-7)

    def test_zero_cap_equals_plain_solve(self, two_cp_market, fresh_default):
        results = price_sweep(two_cp_market, [0.7], cap=0.0)
        assert results[0].state.revenue == pytest.approx(
            two_cp_market.with_price(0.7).solve().revenue
        )


@pytest.mark.usefixtures("fresh_grid_cache")
class TestSection5PriceSweep:
    """A 19-price sweep of the §5 market on the default service."""

    def test_price_sweep_warm_start(self):
        market = section5_market()
        prices = np.linspace(0.1, 1.9, 19)
        results = price_sweep(market, prices, cap=1.0, warm_start=True)
        assert len(results) == 19

    def test_price_sweep_cold_start(self):
        market = section5_market()
        prices = np.linspace(0.1, 1.9, 19)
        results = price_sweep(market, prices, cap=1.0, warm_start=False)
        assert len(results) == 19


class TestGridAccessors:
    def test_grid_shape_and_accessors(self, two_cp_market, fresh_default):
        grid = solve_grid(two_cp_market, [0.5, 1.0], [0.0, 0.4])
        assert grid.prices.shape == (2,)
        assert grid.caps.shape == (2,)
        assert grid.at(1, 0).state.price == pytest.approx(0.5)

    def test_quantity_matrix(self, two_cp_market, fresh_default):
        grid = solve_grid(two_cp_market, [0.5, 1.0], [0.0, 0.4])
        revenue = grid.quantity(lambda eq: eq.state.revenue)
        assert revenue.shape == (2, 2)
        assert revenue[0, 0] == pytest.approx(grid.at(0, 0).state.revenue)

    def test_provider_quantity_cube(self, two_cp_market, fresh_default):
        grid = solve_grid(two_cp_market, [0.5, 1.0], [0.0, 0.4])
        subsidies = grid.provider_quantity(lambda eq: eq.subsidies)
        assert subsidies.shape == (2, 2, 2)
        # q = 0 row must be all zeros.
        np.testing.assert_array_equal(subsidies[0], 0.0)


class TestRowMemoization:
    """A repeated grid resolves row by row from the service's memory tier."""

    def test_repeat_grid_adds_one_memory_hit_per_row(self, two_cp_market):
        service = SolveService(cache=SolveCache())
        first = solve_grid(two_cp_market, PRICES, CAPS, service=service)
        assert service.counters.computed == CAPS.size
        assert service.counters.memory_hits == 0
        second = solve_grid(two_cp_market, PRICES, CAPS, service=service)
        assert service.counters.computed == CAPS.size
        assert service.counters.memory_hits == CAPS.size
        for name, values in _grid_payload(first).items():
            np.testing.assert_array_equal(
                values, _grid_payload(second)[name], err_msg=name
            )

    def test_content_keying_survives_market_rebuild(self, two_cp_market):
        from repro.providers import Market

        service = SolveService(cache=SolveCache())
        solve_grid(two_cp_market, PRICES, CAPS, service=service)
        rebuilt = Market(two_cp_market.providers, two_cp_market.isp)
        solve_grid(rebuilt, PRICES, CAPS, service=service)
        assert service.counters.computed == CAPS.size
        assert service.counters.memory_hits == CAPS.size

    def test_axis_change_misses(self, two_cp_market):
        service = SolveService(cache=SolveCache())
        solve_grid(two_cp_market, PRICES, CAPS, service=service)
        solve_grid(two_cp_market, PRICES[:-1], CAPS, service=service)
        assert service.counters.computed == 2 * CAPS.size
        assert service.counters.memory_hits == 0

    def test_price_sweep_shares_the_grid_row(self, two_cp_market):
        service = SolveService(cache=SolveCache())
        grid = solve_grid(two_cp_market, PRICES, CAPS, service=service)
        row = price_sweep(two_cp_market, PRICES, cap=CAPS[1], service=service)
        assert service.counters.computed == CAPS.size
        assert service.counters.memory_hits == 1
        assert [eq.subsidies.tobytes() for eq in row] == [
            eq.subsidies.tobytes() for eq in grid.results[1]
        ]

    def test_store_replays_into_a_fresh_memory_tier(
        self, two_cp_market, tmp_path
    ):
        warm = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        first = solve_grid(two_cp_market, PRICES, CAPS, service=warm)
        replay = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        second = solve_grid(two_cp_market, PRICES, CAPS, service=replay)
        assert replay.counters.computed == 0
        assert replay.counters.store_hits == CAPS.size
        np.testing.assert_array_equal(
            _grid_payload(first)["subsidies"],
            _grid_payload(second)["subsidies"],
        )

    def test_cacheless_service_recomputes(self, two_cp_market):
        service = SolveService()
        solve_grid(two_cp_market, PRICES, CAPS, service=service)
        solve_grid(two_cp_market, PRICES, CAPS, service=service)
        assert service.counters.computed == 2 * CAPS.size

    def test_explicit_service_bypasses_the_default(
        self, two_cp_market, fresh_default
    ):
        mine = SolveService(cache=SolveCache())
        solve_grid(two_cp_market, PRICES, CAPS, service=mine)
        assert mine.counters.computed == CAPS.size
        assert fresh_default.counters.as_dict() == {
            "memory_hits": 0, "store_hits": 0, "computed": 0,
        }
        assert fresh_default.stats()["memory"]["entries"] == 0

    def test_none_resolves_the_default_at_call_time(
        self, two_cp_market, fresh_default
    ):
        solve_grid(two_cp_market, PRICES, CAPS)
        assert fresh_default.counters.computed == CAPS.size
        swapped = SolveService(cache=SolveCache())
        set_default_service(swapped)
        assert default_service() is swapped
        solve_grid(two_cp_market, PRICES, CAPS)
        assert swapped.counters.computed == CAPS.size
        assert fresh_default.counters.computed == CAPS.size


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
            solve_grid(
                two_cp_market, PRICES, CAPS, service=SolveService(), workers=0
            )

    def test_axis_validation(self, two_cp_market):
        service = SolveService(cache=SolveCache())
        with pytest.raises(ModelError):
            solve_grid(two_cp_market, [], CAPS, service=service)
        with pytest.raises(ModelError):
            solve_grid(two_cp_market, PRICES, [], service=service)
        with pytest.raises(ModelError):
            solve_grid(two_cp_market, [[0.5, 1.0]], CAPS, service=service)
        with pytest.raises(ModelError):
            price_sweep(two_cp_market, [], service=service)
        with pytest.raises(ModelError):
            price_sweep(two_cp_market, [[0.5, 1.0]], service=service)
        with pytest.raises(ModelError):
            price_sweep(two_cp_market, [[0.5], [1.0, 1.5]], service=service)
        # A rejected axis commits nothing to the service's tiers.
        assert service.counters.as_dict() == {
            "memory_hits": 0, "store_hits": 0, "computed": 0,
        }
        assert len(service.cache) == 0


class TestPublicNames:
    def test_grid_functions_are_exported(self):
        import repro
        import repro.analysis

        assert repro.solve_grid is solve_grid
        assert repro.analysis.EquilibriumGrid is EquilibriumGrid
