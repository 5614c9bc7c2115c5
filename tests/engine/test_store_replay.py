"""A cold §5 grid solve into the persistent store, then a warm replay.

The solve service's central claim: the (21-price × 5-policy) §5 grid,
solved cold, persists every cap row; replayed from a fresh
process-equivalent (empty memory tier, warm store) it performs zero
equilibrium solves and returns the same grid.
"""

import numpy as np

from repro.engine import SolveCache, SolveService, SolveStore, solve_grid
from repro.experiments.scenarios import POLICY_LEVELS, section5_market

PRICES = np.round(np.linspace(0.0, 2.0, 21), 10)
CAPS = np.asarray(POLICY_LEVELS)


def _service(store_dir) -> SolveService:
    return SolveService(cache=SolveCache(), store=SolveStore(store_dir))


def _grid(market, service):
    return solve_grid(market, PRICES, CAPS, service=service)


def test_store_cold_solve_and_persist(tmp_path):
    service = _service(tmp_path)
    grid = _grid(section5_market(), service)
    assert service.counters.computed == len(CAPS)
    assert len(service.store) == len(CAPS)
    assert grid.quantity(lambda eq: eq.kkt_residual).max() <= 1e-7


def test_store_warm_replay(tmp_path):
    market = section5_market()
    _grid(market, _service(tmp_path))
    replay = _service(tmp_path)  # fresh memory tier, warm store
    grid = _grid(market, replay)
    assert replay.counters.computed == 0
    assert replay.counters.store_hits == len(CAPS)
    cold = _grid(market, _service(tmp_path))
    np.testing.assert_array_equal(
        grid.quantity(lambda eq: eq.state.revenue),
        cold.quantity(lambda eq: eq.state.revenue),
    )
