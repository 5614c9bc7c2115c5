"""A 4-carrier competition cold, then replayed from a warm store.

Solving the ``oligopoly-4`` price competition on the §5 market cold
persists one entry for the competition and one state per carrier;
replaying the identical competition from a fresh process-equivalent
(empty memory tiers, warm store) performs **zero** equilibrium solves and
lands on the same prices. Without any cache, solving it twice on one game
returns the same bits: a competition is a pure function of its arguments.
"""

import pytest

from repro.backend import use_backend
from repro.competition import (
    IterationPolicy,
    OligopolyGame,
    solve_oligopoly_competition,
)
from repro.engine import SolveCache, SolveService, SolveStore
from repro.scenarios import get_scenario

CARRIERS = 4

#: Coarsened competition settings: these tests track scheduling and
#: store round trips, not equilibrium precision.
SETTINGS = dict(
    initial_prices=(0.7,) * CARRIERS,
    price_range=(0.05, 2.0),
    grid_points=6,
    xtol=1e-3,
    policy=IterationPolicy(tol=1e-2),
)


def _game(service):
    return OligopolyGame.from_scenario(
        get_scenario("oligopoly-4"), service=service
    )


def _run(service):
    return solve_oligopoly_competition(_game(service), **SETTINGS)


def _service(store_dir):
    return SolveService(cache=SolveCache(), store=SolveStore(store_dir))


def test_oligopoly_cold_solve_and_persist(tmp_path):
    service = _service(tmp_path)
    result = _run(service)
    assert result.state.n_carriers == CARRIERS
    assert service.counters.computed > 0
    # One entry for the competition, one state per carrier.
    assert len(service.store) == CARRIERS + 1
    assert sum(result.state.shares) == 1.0


def test_oligopoly_warm_replay(tmp_path):
    cold = _run(_service(tmp_path))  # prime the store
    replay_service = _service(tmp_path)  # fresh memory tiers, warm store
    warm = _run(replay_service)
    assert replay_service.counters.computed == 0
    assert replay_service.counters.store_hits > 0
    assert warm.iterations == cold.iterations
    assert warm.state.prices == cold.state.prices


@pytest.mark.parametrize("name", ["numpy", "compiled"])
def test_repeated_competition_on_one_game_is_bit_identical(name):
    with use_backend(name) as backend:
        if name == "compiled" and not backend.compiled:
            pytest.skip(f"no kernel backend: {backend.fallback_reason}")
        # Compute-only: the second competition is solved again, not read
        # back from a cache tier.
        game = _game(SolveService())
        first, second = (
            solve_oligopoly_competition(game, **SETTINGS) for _ in range(2)
        )
    assert second.iterations == first.iterations
    assert [p.hex() for p in second.state.prices] == [
        p.hex() for p in first.state.prices
    ]
    for got, want in zip(second.state.equilibria, first.state.equilibria):
        assert got.subsidies.tobytes() == want.subsidies.tobytes()
