"""Cross-solver and cross-family integration tests.

The library's layers admit redundant computation paths (analytic vs finite
difference, best response vs VI, Picard vs Anderson, exponential vs other
families); these tests force the paths to agree.
"""

import numpy as np
import pytest

from repro.core.equilibrium import (
    solve_equilibrium,
    solve_equilibrium_best_response,
    solve_equilibrium_vi,
)
from repro.core.game import SubsidizationGame
from repro.network.demand import LogitDemand, ShiftedPowerDemand
from repro.network.throughput import PowerLawThroughput, RationalThroughput
from repro.network.utilization import MM1Utilization, PowerLawUtilization
from repro.providers import AccessISP, ContentProvider, Market, exponential_cp
from repro.simulation import MarketSimulation


def mixed_family_market(price=1.0) -> Market:
    """CPs drawn from three different functional families."""
    return Market(
        [
            exponential_cp(3.0, 2.0, value=0.9, name="exp"),
            ContentProvider(
                demand=LogitDemand(alpha=4.0, midpoint=0.8, scale=1.2),
                throughput=PowerLawThroughput(beta=3.0),
                value=0.7,
                name="logit-power",
            ),
            ContentProvider(
                demand=ShiftedPowerDemand(alpha=3.0),
                throughput=RationalThroughput(beta=2.0),
                value=0.5,
                name="power-rational",
            ),
        ],
        AccessISP(price=price, capacity=1.0),
    )


class TestMixedFamilies:
    def test_equilibrium_exists_and_certifies(self):
        game = SubsidizationGame(mixed_family_market(), 0.6)
        eq = solve_equilibrium(game)
        assert eq.kkt_residual < 1e-7
        assert np.all(eq.subsidies >= 0.0)
        assert np.all(eq.subsidies <= 0.6 + 1e-12)

    def test_br_and_vi_agree(self):
        game = SubsidizationGame(mixed_family_market(), 0.6)
        br = solve_equilibrium_best_response(game, tol=1e-11)
        vi = solve_equilibrium_vi(game, tol=1e-9)
        np.testing.assert_allclose(br.subsidies, vi.subsidies, atol=1e-6)

    def test_simulation_converges_to_static_equilibrium(self):
        market = mixed_family_market()
        eq = solve_equilibrium(SubsidizationGame(market, 0.6))
        trajectory = MarketSimulation(market, cap=0.6).run(30)
        assert np.abs(trajectory.subsidies[-1] - eq.subsidies).max() < 1e-7

    def test_deregulation_still_raises_revenue(self):
        # The qualitative Corollary 1 story is not an exponential artifact.
        market = mixed_family_market(price=0.8)
        base = solve_equilibrium(SubsidizationGame(market, 0.0)).state.revenue
        dereg = solve_equilibrium(SubsidizationGame(market, 0.6)).state.revenue
        assert dereg > base


class TestAlternativeUtilizations:
    @pytest.mark.parametrize(
        "utilization",
        [PowerLawUtilization(gamma=2.0), MM1Utilization()],
        ids=["power-law", "mm1"],
    )
    def test_equilibrium_across_utilization_metrics(self, utilization):
        market = Market(
            [
                exponential_cp(2.0, 2.0, value=1.0),
                exponential_cp(5.0, 3.0, value=0.6),
            ],
            AccessISP(price=1.0, capacity=2.0, utilization=utilization),
        )
        game = SubsidizationGame(market, 0.5)
        eq = solve_equilibrium(game)
        assert eq.kkt_residual < 1e-7
        # Lemma 3 direction: subsidies raised utilization vs the baseline.
        assert eq.state.utilization >= market.solve().utilization - 1e-12

    def test_mm1_capacity_wall_tempers_subsidies(self):
        # Near the M/M/1 wall additional traffic is brutally expensive, so
        # equilibrium subsidies are smaller than under the linear metric.
        linear_market = Market(
            [exponential_cp(5.0, 2.0, value=1.0)],
            AccessISP(price=0.5, capacity=1.0),
        )
        mm1_market = Market(
            [exponential_cp(5.0, 2.0, value=1.0)],
            AccessISP(price=0.5, capacity=1.0, utilization=MM1Utilization()),
        )
        s_linear = solve_equilibrium(
            SubsidizationGame(linear_market, 0.9)
        ).subsidies[0]
        s_mm1 = solve_equilibrium(SubsidizationGame(mm1_market, 0.9)).subsidies[0]
        assert s_mm1 < s_linear


class TestPublicApi:
    def test_top_level_exports_work_together(self):
        # The README quickstart, as a test.
        import repro

        market = repro.Market(
            [
                repro.exponential_cp(alpha=2, beta=2, value=1.0),
                repro.exponential_cp(alpha=5, beta=5, value=0.5),
            ],
            repro.AccessISP(price=1.0, capacity=1.0),
        )
        game = repro.SubsidizationGame(market, cap=1.0)
        eq = repro.solve_equilibrium(game)
        assert repro.is_equilibrium(game, eq.subsidies)
        assert eq.state.revenue > 0.0
        assert repro.welfare(eq.state.throughputs, market.values) == (
            pytest.approx(eq.state.welfare)
        )

    def test_version_exported(self):
        import repro

        assert repro.__version__ == "1.0.0"
