"""Benchmark: cold solve into the persistent store versus warm replay.

The tentpole claim of the solve service, measured: solving the (21-price ×
5-policy) §5 grid cold while persisting every cap row, then replaying the
same grid from a fresh process-equivalent (empty memory tiers, warm store)
with zero equilibrium solves. The replay timing is the cost of a full
figure re-run against ``--cache-dir`` — decode and assembly only.
"""

import numpy as np

from benchmarks.conftest import BENCH_CAPS, BENCH_PRICES, run_once
from repro.engine import SolveCache, SolveService, SolveStore, solve_grid
from repro.experiments.scenarios import section5_market


def _service(store_dir) -> SolveService:
    return SolveService(cache=SolveCache(), store=SolveStore(store_dir))


def _grid(market, service):
    return solve_grid(
        market, BENCH_PRICES, np.asarray(BENCH_CAPS), service=service
    )


def test_bench_store_cold_solve_and_persist(benchmark, tmp_path):
    market = section5_market()
    service = _service(tmp_path)
    grid = run_once(benchmark, lambda: _grid(market, service))
    assert service.counters.computed == len(BENCH_CAPS)
    assert len(service.store) == len(BENCH_CAPS)
    assert grid.quantity(lambda eq: eq.kkt_residual).max() <= 1e-7


def test_bench_store_warm_replay(benchmark, tmp_path):
    market = section5_market()
    _grid(market, _service(tmp_path))
    replay = _service(tmp_path)  # fresh memory tier, warm store
    grid = run_once(benchmark, lambda: _grid(market, replay))
    assert replay.counters.computed == 0
    assert replay.counters.store_hits == len(BENCH_CAPS)
    cold = _grid(market, _service(tmp_path))
    np.testing.assert_array_equal(
        grid.quantity(lambda eq: eq.state.revenue),
        cold.quantity(lambda eq: eq.state.revenue),
    )
