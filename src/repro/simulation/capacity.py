"""ISP capacity planning — the paper's stated future work (§6).

The paper's policy argument is a feedback loop: subsidization raises
utilization and revenue, improved margins fund capacity expansion, expansion
relieves the congestion that hurt congestion-sensitive CPs. This module
closes that loop in the simplest faithful way:

* each period the CPs play the subsidization equilibrium under the current
  capacity (statics nested inside dynamics),
* the ISP converts a fraction ``reinvestment_rate`` of revenue into new
  capacity at ``capacity_cost`` per unit, while existing capacity
  depreciates at rate ``depreciation``,
* optionally, the ISP re-optimizes its price each period.

The resulting trajectory shows whether a policy regime ``q`` funds a growth
path or stagnates — the quantity regulators care about in §6.

One period of the loop is :func:`expansion_step` — a pure function of the
current market. The dynamics subsystem runs the loop as the ``"capacity"``
kind of :func:`~repro.simulation.trajectory.run_trajectory`, one step per
period, as one content-keyed solve-service task. Its per-period
equilibrium runs through :func:`~repro.core.equilibrium.solve_equilibrium`,
whose default sweep is the vectorized batch-evaluation core.

Example — three reinvestment periods on a tiny market (the trajectory
holds the initial period plus one row per period):

>>> from repro.providers import AccessISP, Market, exponential_cp
>>> from repro.simulation import DynamicsSpec, run_trajectory
>>> market = Market([exponential_cp(2.0, 2.0, value=1.0)],
...                 AccessISP(price=1.0, capacity=1.0))
>>> spec = DynamicsSpec(kind="capacity", horizon=3, cap=0.5)
>>> trajectory = run_trajectory(market, spec)
>>> trajectory.horizon, bool(trajectory.capacity_growth() > 0)
(3, True)
"""

from __future__ import annotations

from repro.core.equilibrium import EquilibriumResult, solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.core.revenue import optimal_price
from repro.providers.market import Market

__all__ = ["expansion_step"]


def expansion_step(
    market: Market,
    cap: float,
    *,
    reinvestment_rate: float,
    capacity_cost: float,
    depreciation: float,
    reoptimize_price: bool,
    price_range: tuple[float, float],
) -> tuple[Market, EquilibriumResult, float]:
    """One period of the revenue → investment → capacity loop.

    Solves the period's subsidization equilibrium on ``market`` (after the
    optional price re-optimization) and computes the next period's
    capacity from the investment rule. Returns ``(market_at_solve,
    equilibrium, next_capacity)`` — the market carries the possibly
    re-optimized price the period was actually solved under.
    """
    if reoptimize_price:
        best = optimal_price(market, cap=cap, price_range=price_range)
        market = market.with_price(best.price)
        equilibrium = best.equilibrium
    else:
        equilibrium = solve_equilibrium(SubsidizationGame(market, cap))
    investment = reinvestment_rate * equilibrium.state.revenue / capacity_cost
    next_capacity = (1.0 - depreciation) * market.isp.capacity + investment
    return market, equilibrium, next_capacity
