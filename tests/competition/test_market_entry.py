"""Carrier entry in the oligopoly price competition (§6 conjecture).

One price competition per carrier count N = 1..4, solved by direct
calls under the scenario's coarse metadata settings.
"""

import pytest

from repro.competition.oligopoly import (
    OligopolyGame,
    competition_settings,
    solve_oligopoly_competition,
)
from repro.engine import SolveService
from repro.providers import AccessISP, Market, exponential_cp
from repro.scenarios import ScenarioSpec, oligopoly


CARRIERS = (1, 2, 3, 4)


def entry_scenario() -> ScenarioSpec:
    """A 1-CP competition scenario with coarse solve settings (fast)."""
    base = ScenarioSpec(
        scenario_id="entry-base",
        title="one CP type",
        market=Market(
            [exponential_cp(2.0, 2.0, value=1.0)],
            AccessISP(price=1.0, capacity=1.0),
        ),
        prices=(0.5, 1.0),
        policy_levels=(0.0,),
    )
    scn = oligopoly(base, 2, cap=0.3, scenario_id="entry-olig")
    metadata = dict(scn.metadata)
    metadata.update(
        {"grid_points": 6, "xtol": 1e-3, "tol": 1e-2, "price_range": [0.05, 2.0]}
    )
    return ScenarioSpec(
        scenario_id=scn.scenario_id,
        title=scn.title,
        market=scn.market,
        prices=scn.prices,
        policy_levels=scn.policy_levels,
        metadata=metadata,
    )


@pytest.fixture(scope="module")
def competitions():
    """``{N: competition result}`` for one to four carriers."""
    scn = entry_scenario()
    settings = competition_settings(scn.metadata)
    service = SolveService()
    return {
        n: solve_oligopoly_competition(
            OligopolyGame.from_scenario(scn, carriers=n, service=service),
            price_range=settings.price_range,
            grid_points=settings.grid_points,
            xtol=settings.xtol,
            policy=settings.policy,
        )
        for n in CARRIERS
    }


@pytest.mark.parametrize("carriers", CARRIERS[1:])
def test_entry_erodes_prices_and_raises_welfare(competitions, carriers):
    before, after = competitions[carriers - 1].state, competitions[carriers].state
    assert after.mean_price < before.mean_price
    assert after.welfare > before.welfare


@pytest.mark.parametrize("carriers", CARRIERS)
def test_market_shares_sum_to_one(competitions, carriers):
    state = competitions[carriers].state
    assert len(state.shares) == carriers
    assert sum(state.shares) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("carriers", CARRIERS)
def test_competition_converges_under_budget(competitions, carriers):
    assert competitions[carriers].iterations < 60
