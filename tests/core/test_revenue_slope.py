"""The revenue slope ``dR/dp`` (Theorem 7 plus the share term).

The compiled equilibrium call reports the slope in its certified row;
the NumPy backend computes it in Python from
``marginal_revenue_decomposition`` and ``equilibrium_sensitivity``. Both
must agree with each other and with central differences of the revenue
along the same move (price up, every demand weight scaled by
``e^{rate·Δp}``).
"""

import math

import numpy as np
import pytest

from repro.backend import use_backend
from repro.backend.dispatch import fused_equilibrium
from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.core.revenue import (
    _demand_scaled,
    marginal_revenue_decomposition,
    revenue_slope,
    share_revenue_derivative,
)
from repro.experiments.scenarios import section5_market
from repro.scenarios import random_market

from tests.backend.test_golden_parity import KERNEL_BACKENDS

#: (market, cap, price, d ln w/dp): the §5 market as a quarter-share
#: carrier of four (σ = 2, so the rate is −σ(1 − w) = −1.5), and mixed
#: random_market draws; prices sit away from the revenue peak so the
#: slope is far from zero.
CASES = [
    ("section5", 0.5, 0.3, -1.5),
    ("section5", 0.5, 0.9, -1.5),
    ("section5", 0.5, 1.5, 0.0),
    ("random-0", 1.0, 0.4, -0.8),
    ("random-3", 1.0, 1.6, -1.2),
    ("random-7", 1.0, 0.7, 0.0),
]


def market_of(name, price):
    if name == "section5":
        market = section5_market()
    else:
        market = random_market(int(name.split("-")[1]), 6).market
    return market.with_price(price)


def revenue_along(market, cap, step, rate):
    """Equilibrium revenue after a price step ``step`` along the move."""
    moved = _demand_scaled(
        market.with_price(market.isp.price + step), math.exp(rate * step)
    )
    return solve_equilibrium(SubsidizationGame(moved, cap)).state.revenue


@pytest.mark.parametrize("name, cap, price, rate", CASES)
def test_python_slope_is_theorem7_plus_the_share_term(name, cap, price, rate):
    market = market_of(name, price)
    with use_backend("numpy"):
        game = SubsidizationGame(market, cap)
        s = solve_equilibrium(game).subsidies
        slope = revenue_slope(game, s, rate)
        want = marginal_revenue_decomposition(game, s).total
        want += rate * share_revenue_derivative(game, s)
        h = 1e-5
        fd = (
            revenue_along(market, cap, h, rate)
            - revenue_along(market, cap, -h, rate)
        ) / (2.0 * h)
    assert slope == pytest.approx(want, rel=1e-12)
    assert slope == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
@pytest.mark.parametrize("name, cap, price, rate", CASES)
def test_kernel_slope_matches_the_python_slope(name, cap, price, rate, backend):
    market = market_of(name, price)
    with use_backend("numpy"):
        game = SubsidizationGame(market, cap)
        s = solve_equilibrium(game).subsidies
        want = revenue_slope(game, s, rate)
    with use_backend(backend) as active:
        plan = market.kernel_plan()
        assert plan is not None
        solved, row, _, _ = fused_equilibrium(
            active, plan, s, cap, 1e-10, 120, rate
        )
        # The slope entry recomputes the row's slope from the profile.
        again = revenue_slope(SubsidizationGame(market, cap), solved, rate)
    assert row[-1] == again
    assert row[-1] == pytest.approx(want, rel=1e-6)


def test_slope_is_only_computed_when_asked():
    market = market_of("section5", 0.9)
    with use_backend("pyloops") as active:
        plan = market.kernel_plan()
        _, row, _, _ = fused_equilibrium(
            active, plan, np.zeros(market.size), 0.5, 1e-10, 120
        )
    assert row.shape == (6 * market.size + 6,)
    assert math.isnan(row[-1])
