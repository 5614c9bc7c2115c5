"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not figures from the paper — these quantify the library's own engineering
decisions:

* best-response iteration vs extragradient VI as the Nash solver,
* warm-started vs cold-started price sweeps,
* sensitivity of the qualitative results to the utilization metric
  (linear vs M/M/1) and to the congestion fixed-point tolerance.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core.equilibrium import (
    solve_equilibrium_best_response,
    solve_equilibrium_vi,
)
from repro.core.game import SubsidizationGame
from repro.engine import price_sweep
from repro.experiments.scenarios import section5_market
from repro.providers import AccessISP, Market, exponential_cp


def test_bench_solver_best_response(benchmark):
    game = SubsidizationGame(section5_market(), 1.0)
    result = run_once(
        benchmark, lambda: solve_equilibrium_best_response(game, tol=1e-10)
    )
    assert result.kkt_residual < 1e-8


def test_bench_solver_extragradient(benchmark):
    game = SubsidizationGame(section5_market(), 1.0)
    result = run_once(benchmark, lambda: solve_equilibrium_vi(game, tol=1e-9))
    reference = solve_equilibrium_best_response(game, tol=1e-10)
    np.testing.assert_allclose(result.subsidies, reference.subsidies, atol=1e-6)


def test_bench_price_sweep_warm_start(benchmark):
    market = section5_market()
    prices = np.linspace(0.1, 1.9, 19)
    results = run_once(
        benchmark, lambda: price_sweep(market, prices, cap=1.0, warm_start=True)
    )
    assert len(results) == 19


def test_bench_price_sweep_cold_start(benchmark):
    market = section5_market()
    prices = np.linspace(0.1, 1.9, 19)
    results = run_once(
        benchmark, lambda: price_sweep(market, prices, cap=1.0, warm_start=False)
    )
    assert len(results) == 19


@pytest.mark.parametrize("metric", ["linear", "mm1"])
def test_bench_utilization_metric_ablation(benchmark, metric):
    """Corollary 1's revenue monotonicity under both utilization metrics."""
    from repro.network.utilization import LinearUtilization, MM1Utilization

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

    def sweep():
        revenues = []
        previous = None
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            from repro.core.equilibrium import solve_equilibrium

            eq = solve_equilibrium(
                SubsidizationGame(market, q), initial=previous
            )
            previous = eq.subsidies
            revenues.append(eq.state.revenue)
        return revenues

    revenues = run_once(benchmark, sweep)
    assert np.all(np.diff(revenues) >= -1e-9)


@pytest.mark.parametrize("xtol", [1e-8, 1e-12])
def test_bench_fixed_point_tolerance_ablation(benchmark, xtol):
    """Equilibria are insensitive to the congestion solver tolerance."""
    from repro.core.equilibrium import solve_equilibrium
    from repro.network.system import CongestionSystem

    market = section5_market()
    # Rebuild the market's system with the ablated tolerance.
    market._system = CongestionSystem(  # noqa: SLF001 — ablation harness
        market.isp.utilization, market.isp.capacity, xtol=xtol
    )
    result = run_once(
        benchmark,
        lambda: solve_equilibrium(SubsidizationGame(market, 1.0)).subsidies,
    )
    reference = solve_equilibrium(
        SubsidizationGame(section5_market(), 1.0)
    ).subsidies
    np.testing.assert_allclose(result, reference, atol=1e-5)


def test_bench_solver_newton(benchmark):
    """Semismooth Newton vs the other solvers (see the two benches above)."""
    from repro.core.newton import solve_equilibrium_newton

    game = SubsidizationGame(section5_market(), 1.0)
    result = run_once(benchmark, lambda: solve_equilibrium_newton(game))
    reference = solve_equilibrium_best_response(game, tol=1e-10)
    np.testing.assert_allclose(result.subsidies, reference.subsidies, atol=1e-7)
