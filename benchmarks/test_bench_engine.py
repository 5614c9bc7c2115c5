"""Benchmark: sequential versus parallel grid solves on the §5 grid.

Both benchmarks solve the same (11-price × 5-policy) §5 equilibrium grid —
55 Nash solves of the 8-CP game through the vectorized Jacobi/Newton path —
once with a single in-process worker and once with the row-parallel process
pool. Their timings land side by side in the benchmark JSON, so the
recorded speedup (or, on single-core machines, the fork overhead) is
visible per run; the parallel result is additionally asserted bitwise-equal
to the sequential one, the core scheduling guarantee of
:func:`~repro.engine.solve_grid`. Each solve runs on its own compute-only
:class:`~repro.engine.SolveService`, so every timing is a cold solve.
"""

import numpy as np

from benchmarks.conftest import BENCH_CAPS, run_once
from repro.engine import SolveService, solve_grid
from repro.experiments.scenarios import section5_market

#: Thinner price axis than the figure benchmarks: the point here is the
#: sequential/parallel comparison, not another full reproduction.
ENGINE_PRICES = np.round(np.linspace(0.0, 2.0, 11), 10)


def _payload(grid):
    return {
        "revenue": grid.quantity(lambda eq: eq.state.revenue),
        "subsidies": grid.provider_quantity(lambda eq: eq.subsidies),
        "utilization": grid.quantity(lambda eq: eq.state.utilization),
    }


def test_bench_engine_sequential(benchmark):
    market = section5_market()
    grid = run_once(
        benchmark,
        lambda: solve_grid(
            market,
            ENGINE_PRICES,
            np.asarray(BENCH_CAPS),
            service=SolveService(),
            workers=1,
        ),
    )
    assert grid.quantity(lambda eq: eq.kkt_residual).max() <= 1e-7


def test_bench_engine_parallel(benchmark):
    market = section5_market()
    grid = run_once(
        benchmark,
        lambda: solve_grid(
            market,
            ENGINE_PRICES,
            np.asarray(BENCH_CAPS),
            service=SolveService(),
            workers=4,
        ),
    )
    # The scheduling guarantee: any worker count returns bitwise-equal grids.
    sequential = solve_grid(
        market,
        ENGINE_PRICES,
        np.asarray(BENCH_CAPS),
        service=SolveService(),
        workers=1,
    )
    seq, par = _payload(sequential), _payload(grid)
    for name in seq:
        np.testing.assert_array_equal(seq[name], par[name])
