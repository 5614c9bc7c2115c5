"""The equilibrium path ``p ↦ s*(p, q)`` along a price sweep (Theorem 6).

The path is piecewise smooth: it kinks where a CP enters or leaves a
bound of ``[0, q]``, the ``N−/N+/Ñ`` partition changes Theorem 6's
derivative formulas exclude. At ``q = 0.45`` on the §5 market CP 5
leaves the cap near ``p = 0.67`` and CP 4 reaches it near ``p = 1.64``;
at ``q = 0.3`` over low prices the partition never changes.
"""

import numpy as np
import pytest

from repro.core.characterization import classify_providers
from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.engine import SolveCache, SolveService, price_sweep
from repro.experiments.scenarios import section5_market

PRICES = np.linspace(0.05, 2.0, 25)
CAP = 0.45


def partitions(market, prices, cap, results):
    return [
        classify_providers(
            SubsidizationGame(market.with_price(float(p)), cap),
            eq.subsidies,
            boundary_tol=1e-7,
        )
        for p, eq in zip(prices, results)
    ]


@pytest.fixture(scope="module")
def kinked_path():
    """The §5 market's warm-started path at ``q = 0.45`` and its
    partitions."""
    market = section5_market()
    results = price_sweep(
        market, PRICES, cap=CAP, service=SolveService(cache=SolveCache())
    )
    return results, partitions(market, PRICES, CAP, results)


def changes(parts) -> list[int]:
    """Indices ``j`` whose partition differs from node ``j + 1``'s."""
    return [j for j in range(len(parts) - 1) if parts[j] != parts[j + 1]]


@pytest.mark.parametrize("index", [0, 12, 24])
def test_path_points_are_equilibria(kinked_path, index):
    results, _ = kinked_path
    game = SubsidizationGame(
        section5_market().with_price(float(PRICES[index])), CAP
    )
    np.testing.assert_allclose(
        results[index].subsidies,
        solve_equilibrium(game).subsidies,
        atol=1e-7,
    )


def test_path_is_continuous(kinked_path):
    results, _ = kinked_path
    subsidies = np.array([eq.subsidies for eq in results])
    jumps = np.max(np.abs(np.diff(subsidies, axis=0)), axis=1)
    assert np.max(jumps) < 0.1  # no equilibrium-branch jumping


def test_two_kinks_move_one_cp_each_across_the_cap(kinked_path):
    _, parts = kinked_path
    kinks = changes(parts)
    assert len(kinks) == 2
    for j, near in zip(kinks, (0.67, 1.64)):
        assert PRICES[j] - 0.05 <= near <= PRICES[j + 1] + 0.05
    capped = [parts[0].capped] + [parts[j + 1].capped for j in kinks]
    assert capped == [(5, 6, 7), (6, 7), (4, 6, 7)]


@pytest.mark.parametrize("kink", [0, 1])
def test_cold_solves_confirm_each_side_of_a_kink(kinked_path, kink):
    _, parts = kinked_path
    j = changes(parts)[kink]
    market = section5_market()
    for index in (j, j + 1):
        game = SubsidizationGame(
            market.with_price(float(PRICES[index])), CAP
        )
        cold = classify_providers(
            game, solve_equilibrium(game).subsidies, boundary_tol=1e-7
        )
        assert cold.capped == parts[index].capped


def test_no_kink_on_a_stable_partition():
    market = section5_market()
    prices = np.linspace(0.1, 1.0, 8)
    results = price_sweep(
        market, prices, cap=0.3, service=SolveService(cache=SolveCache())
    )
    assert changes(partitions(market, prices, 0.3, results)) == []
