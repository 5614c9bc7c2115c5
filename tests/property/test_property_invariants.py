"""Property-based tests on cross-module invariants.

Randomized markets from the paper's family; the properties tie together
serialization and the Theorem 3 characterization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterization import thresholds
from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.io import market_from_dict, market_to_dict
from repro.providers import AccessISP, Market, exponential_cp

alphas = st.floats(0.5, 6.0)
betas = st.floats(0.5, 6.0)
values = st.floats(0.0, 1.5)
prices = st.floats(0.1, 2.0)
caps = st.floats(0.05, 2.0)


@st.composite
def markets(draw, min_size=1, max_size=4):
    size = draw(st.integers(min_size, max_size))
    providers = [
        exponential_cp(draw(alphas), draw(betas), value=draw(values))
        for _ in range(size)
    ]
    return Market(providers, AccessISP(price=draw(prices), capacity=1.0))


class TestSerializationProperties:
    @given(market=markets(), s_seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_preserves_solved_states(self, market, s_seed):
        rebuilt = market_from_dict(market_to_dict(market))
        rng = np.random.default_rng(s_seed)
        s = rng.uniform(0.0, 0.5, market.size)
        original = market.solve(s)
        copy = rebuilt.solve(s)
        assert copy.utilization == original.utilization
        np.testing.assert_array_equal(copy.throughputs, original.throughputs)
        np.testing.assert_array_equal(copy.utilities, original.utilities)


class TestTheoremThreeProperty:
    @given(market=markets(max_size=3), cap=caps)
    @settings(max_examples=15, deadline=None)
    def test_threshold_equation_holds_at_every_solved_equilibrium(
        self, market, cap
    ):
        game = SubsidizationGame(market, cap)
        eq = solve_equilibrium(game)
        tau = thresholds(game, eq.subsidies)
        np.testing.assert_allclose(
            eq.subsidies, np.minimum(tau, cap), atol=1e-6
        )
