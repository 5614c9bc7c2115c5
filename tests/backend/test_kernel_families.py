"""Which markets the fused kernels take, and that the two arms agree.

``random_market`` draws every built-in demand family (bare or under one
share weight) and every throughput family on linear utilization, so every
seed has a kernel plan. A nested ``ScaledDemand`` or a user-defined
family has none; those markets keep solving on the lockstep arm. Over the
benchmark campaign's price × cap grid, NumPy and compiled equilibria agree
to 1e-9 and every node is certified.
"""

from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from repro.backend import use_backend
from repro.core.equilibrium import DEFAULT_CERTIFY_TOL, solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.engine import SolveService, certify_grid, solve_grid
from repro.network.demand import DemandFunction, ExponentialDemand, ScaledDemand
from repro.network.throughput import ExponentialThroughput
from repro.providers.content_provider import ContentProvider, exponential_cp
from repro.providers.isp import AccessISP
from repro.providers.market import Market
from repro.scenarios.generators import random_market

#: The ``campaign-random`` benchmark grid (before its seeded jitter).
GRID_PRICES = [0.2, 0.6, 1.0, 1.4, 1.8]
GRID_CAPS = [0.0, 0.5, 1.0, 1.5, 2.0]


@dataclass(frozen=True)
class HalfLogitDemand(DemandFunction):
    """``m(t) = scale/(1 + e^{2t})``: a family the kernels have no tag for."""

    scale: float = 1.0

    def population(self, price):
        return self.scale / (1.0 + np.exp(2.0 * np.asarray(price, dtype=float)))

    def d_population(self, price):
        e = np.exp(2.0 * np.asarray(price, dtype=float))
        return -2.0 * self.scale * e / (1.0 + e) ** 2


def _market_with(demand: DemandFunction) -> Market:
    providers = [
        exponential_cp(1.0, 1.5, value=1.2),
        exponential_cp(2.0, 0.8, value=0.9, demand_scale=0.8),
        ContentProvider(
            demand=demand,
            throughput=ExponentialThroughput(beta=1.2),
            value=1.0,
            name="untagged",
        ),
    ]
    return Market(providers, AccessISP(price=0.8, capacity=1.0))


UNTAGGED = {
    "nested-scaled": lambda: _market_with(
        ScaledDemand(ScaledDemand(ExponentialDemand(alpha=1.5), 0.8), 0.5)
    ),
    "custom-family": lambda: _market_with(HalfLogitDemand(scale=0.9)),
}


def test_every_random_market_has_a_kernel_plan():
    ineligible = [
        seed for seed in range(64)
        if random_market(seed).market.kernel_plan() is None
    ]
    assert ineligible == []


@pytest.mark.parametrize("kind", sorted(UNTAGGED))
def test_untagged_demand_solves_on_lockstep(kind):
    market = UNTAGGED[kind]()
    assert market.kernel_plan() is None
    game = SubsidizationGame(market, cap=0.8)
    with use_backend("numpy"):
        reference = solve_equilibrium(game)
    fused = mock.Mock(side_effect=AssertionError("took a fused kernel"))
    with use_backend("pyloops"), mock.patch(
        "repro.core.game.fused_marginals", fused
    ), mock.patch("repro.core.best_response.fused_best_response", fused):
        result = solve_equilibrium(game)
    assert result.kkt_residual <= DEFAULT_CERTIFY_TOL
    np.testing.assert_allclose(
        result.subsidies, reference.subsidies, rtol=0.0, atol=1e-9
    )


@pytest.mark.parametrize("seed", range(4))
def test_numpy_and_compiled_grids_agree(seed):
    market = random_market(seed, 8).market
    grids = {}
    for name in ("numpy", "compiled"):
        with use_backend(name):
            grid = solve_grid(
                market,
                GRID_PRICES,
                GRID_CAPS,
                service=SolveService(),
                workers=1,
            )
            residuals = certify_grid(market, grid)
        assert np.all(residuals <= DEFAULT_CERTIFY_TOL), name
        grids[name] = grid
    numpy_grid, compiled_grid = grids["numpy"], grids["compiled"]
    np.testing.assert_allclose(
        compiled_grid.provider_quantity(lambda eq: eq.subsidies),
        numpy_grid.provider_quantity(lambda eq: eq.subsidies),
        rtol=0.0,
        atol=1e-9,
    )
    for quantity in (
        lambda eq: eq.state.utilization,
        lambda eq: eq.state.revenue,
        lambda eq: eq.state.welfare,
    ):
        np.testing.assert_allclose(
            compiled_grid.quantity(quantity),
            numpy_grid.quantity(quantity),
            rtol=0.0,
            atol=1e-9,
        )
