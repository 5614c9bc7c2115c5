"""Ablations of the library's own design choices on the §5 market.

* best-response iteration vs extragradient VI as the Nash solver;
* sensitivity of the qualitative results to the utilization metric
  (linear vs M/M/1) and to the congestion fixed-point tolerance.
"""

import numpy as np
import pytest

from repro.core.equilibrium import (
    solve_equilibrium,
    solve_equilibrium_best_response,
    solve_equilibrium_vi,
)
from repro.core.game import SubsidizationGame
from repro.experiments.scenarios import section5_market
from repro.network.system import CongestionSystem
from repro.network.utilization import LinearUtilization, MM1Utilization
from repro.providers import AccessISP, Market, exponential_cp


def test_solver_best_response():
    game = SubsidizationGame(section5_market(), 1.0)
    result = solve_equilibrium_best_response(game, tol=1e-10)
    assert result.kkt_residual < 1e-8


def test_solver_extragradient():
    game = SubsidizationGame(section5_market(), 1.0)
    result = solve_equilibrium_vi(game, tol=1e-9)
    reference = solve_equilibrium_best_response(game, tol=1e-10)
    np.testing.assert_allclose(result.subsidies, reference.subsidies, atol=1e-6)


@pytest.mark.parametrize("metric", ["linear", "mm1"])
def test_utilization_metric_ablation(metric):
    """Corollary 1's revenue monotonicity under both utilization metrics."""
    utilization = LinearUtilization() if metric == "linear" else MM1Utilization()
    market = Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 5.0, value=0.5),
            exponential_cp(2.0, 5.0, value=1.0),
            exponential_cp(5.0, 2.0, value=0.5),
        ],
        AccessISP(price=0.8, capacity=2.0, utilization=utilization),
    )
    revenues = []
    previous = None
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        eq = solve_equilibrium(SubsidizationGame(market, q), initial=previous)
        previous = eq.subsidies
        revenues.append(eq.state.revenue)
    assert np.all(np.diff(revenues) >= -1e-9)


@pytest.mark.parametrize("xtol", [1e-8, 1e-12])
def test_fixed_point_tolerance_ablation(xtol):
    """Equilibria are insensitive to the congestion solver tolerance."""
    market = section5_market()
    # Rebuild the market's system with the ablated tolerance.
    market._system = CongestionSystem(  # noqa: SLF001 — ablation harness
        market.isp.utilization, market.isp.capacity, xtol=xtol
    )
    result = solve_equilibrium(SubsidizationGame(market, 1.0)).subsidies
    reference = solve_equilibrium(
        SubsidizationGame(section5_market(), 1.0)
    ).subsidies
    np.testing.assert_allclose(result, reference, atol=1e-5)
