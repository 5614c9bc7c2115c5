"""Sequential versus pooled solves of one §5 grid.

Both tests solve the same (11-price × 5-policy) §5 equilibrium grid — 55
Nash solves of the 8-CP game through the vectorized Jacobi/Newton path —
once with a single in-process worker and once on the process pool. The
pooled grid must be bitwise-equal to the sequential one, the scheduling
guarantee of :func:`~repro.engine.solve_grid`. Each solve runs on its own
compute-only :class:`~repro.engine.SolveService`, so every solve is cold.
"""

import numpy as np

from repro.engine import SolveService, solve_grid
from repro.experiments.scenarios import POLICY_LEVELS, section5_market

PRICES = np.round(np.linspace(0.0, 2.0, 11), 10)
CAPS = np.asarray(POLICY_LEVELS)


def _payload(grid):
    return {
        "revenue": grid.quantity(lambda eq: eq.state.revenue),
        "subsidies": grid.provider_quantity(lambda eq: eq.subsidies),
        "utilization": grid.quantity(lambda eq: eq.state.utilization),
    }


def _solve(market, workers):
    return solve_grid(
        market, PRICES, CAPS, service=SolveService(), workers=workers
    )


def test_engine_sequential():
    grid = _solve(section5_market(), 1)
    assert grid.quantity(lambda eq: eq.kkt_residual).max() <= 1e-7


def test_engine_parallel():
    market = section5_market()
    grid = _solve(market, 4)
    # The scheduling guarantee: any worker count returns bitwise-equal grids.
    seq, par = _payload(_solve(market, 1)), _payload(grid)
    for name in seq:
        np.testing.assert_array_equal(seq[name], par[name])
