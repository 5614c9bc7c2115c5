"""Benchmarks for the library's §6 extensions (not paper figures).

* the ISP's static capacity-investment decision across policy regimes,
* the regulator's constrained welfare problem,
* the two-carrier (duopoly) price-competition equilibrium.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.competition import (
    IterationPolicy,
    OligopolyGame,
    solve_oligopoly_competition,
)
from repro.core.investment import investment_incentive
from repro.core.regulation import constrained_welfare_optimal_price
from repro.providers import AccessISP, exponential_cp
from repro.experiments.scenarios import section5_market


def test_bench_investment_incentive(benchmark):
    market = section5_market(price=0.8)
    outcomes = run_once(
        benchmark,
        lambda: investment_incentive(
            market, caps=(0.0, 1.0), unit_cost=0.15, capacity_range=(0.1, 6.0)
        ),
    )
    # The §6 claim: deregulation raises the profit-optimal capacity.
    assert outcomes[1].capacity > outcomes[0].capacity


def test_bench_constrained_regulation(benchmark):
    market = section5_market()
    outcome = run_once(
        benchmark,
        lambda: constrained_welfare_optimal_price(
            market, cap=1.0, min_revenue=0.3, price_range=(0.0, 2.0),
            grid_points=64,
        ),
    )
    assert outcome.revenue >= 0.3 - 1e-6


def test_bench_duopoly_price_competition(benchmark):
    providers = [
        exponential_cp(2.0, 2.0, value=1.0),
        exponential_cp(5.0, 3.0, value=0.6),
    ]
    game = OligopolyGame(
        providers,
        (AccessISP(price=1.0, capacity=0.5), AccessISP(price=1.0, capacity=0.5)),
        switching=2.0,
        cap=0.5,
    )
    result = run_once(
        benchmark,
        lambda: solve_oligopoly_competition(
            game,
            price_range=(0.05, 2.0),
            grid_points=16,
            policy=IterationPolicy(tol=1e-4),
        ),
    )
    p_a, p_b = result.state.prices
    assert p_a == pytest.approx(p_b, abs=1e-2)
