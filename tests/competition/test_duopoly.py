"""The two-carrier price competition on a symmetric pair of carriers."""

import pytest

from repro.competition import (
    IterationPolicy,
    OligopolyGame,
    solve_oligopoly_competition,
)
from repro.providers import AccessISP, exponential_cp


@pytest.mark.usefixtures("fresh_grid_cache")
def test_duopoly_price_competition():
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
    result = solve_oligopoly_competition(
        game,
        price_range=(0.05, 2.0),
        grid_points=16,
        policy=IterationPolicy(tol=1e-4),
    )
    # Identical carriers settle on (nearly) the same price.
    p_a, p_b = result.state.prices
    assert p_a == pytest.approx(p_b, abs=1e-2)
