"""Unit tests for repro.core.revenue — Theorem 7 and ISP pricing."""

import numpy as np
import pytest

from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.core.revenue import (
    marginal_revenue_decomposition,
    marginal_revenue_one_sided,
    optimal_price,
)
from repro.engine import price_sweep


class TestOneSidedMarginalRevenue:
    def test_matches_finite_difference(self, four_cp_market):
        result = marginal_revenue_one_sided(four_cp_market)
        h = 1e-6
        hi = four_cp_market.with_price(1.0 + h).solve().revenue
        lo = four_cp_market.with_price(1.0 - h).solve().revenue
        fd = (hi - lo) / (2.0 * h)
        assert result.total == pytest.approx(fd, rel=1e-5)

    def test_direct_term_is_aggregate_throughput(self, four_cp_market):
        result = marginal_revenue_one_sided(four_cp_market)
        assert result.direct_term == pytest.approx(
            four_cp_market.solve().aggregate_throughput
        )

    def test_upsilon_below_one_under_congestion(self, four_cp_market):
        # Upsilon = 1 + sum eps^lambda_m < 1 because each eps is negative.
        result = marginal_revenue_one_sided(four_cp_market)
        assert 0.0 < result.upsilon < 1.0

    def test_demand_term_non_positive_at_positive_price(self, four_cp_market):
        result = marginal_revenue_one_sided(four_cp_market)
        assert result.demand_term <= 0.0


class TestEquilibriumMarginalRevenue:
    def test_matches_finite_difference_of_equilibrium_revenue(
        self, four_cp_market
    ):
        game = SubsidizationGame(four_cp_market, 1.0)
        eq = solve_equilibrium(game)
        decomposition = marginal_revenue_decomposition(game, eq.subsidies)
        h = 1e-5

        def revenue_at(p):
            return solve_equilibrium(
                game.with_price(p), initial=eq.subsidies
            ).state.revenue

        fd = (revenue_at(1.0 + h) - revenue_at(1.0 - h)) / (2.0 * h)
        assert decomposition.total == pytest.approx(fd, rel=1e-3)

    def test_subsidy_feedback_changes_elasticities(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        eq = solve_equilibrium(game)
        with_feedback = marginal_revenue_decomposition(game, eq.subsidies)
        # Forcing ds/dp = 0 must give a different demand term whenever some
        # CP's subsidy actually responds to the price.
        from repro.core.dynamics import equilibrium_sensitivity

        sens = equilibrium_sensitivity(game, eq.subsidies)
        assert np.any(np.abs(sens.ds_dp) > 1e-6)
        frozen = marginal_revenue_decomposition(
            game,
            eq.subsidies,
            sensitivity=type(sens)(
                ds_dq=sens.ds_dq,
                ds_dp=np.zeros_like(sens.ds_dp),
                partition=sens.partition,
                interior_jacobian=sens.interior_jacobian,
            ),
        )
        assert frozen.demand_term != pytest.approx(
            with_feedback.demand_term, rel=1e-6
        )


class TestRevenueCurve:
    """The revenue curve R(p) under equilibrium response (Figs 4 and 7)."""

    def test_returns_one_result_per_price(self, two_cp_market):
        prices = [0.2, 0.6, 1.0]
        results = price_sweep(two_cp_market, prices, cap=0.5)
        assert len(results) == 3
        for result in results:
            assert result.kkt_residual < 1e-7

    def test_zero_cap_matches_one_sided_solve(self, two_cp_market):
        results = price_sweep(two_cp_market, [0.8], cap=0.0)
        assert results[0].state.revenue == pytest.approx(
            two_cp_market.with_price(0.8).solve().revenue
        )

    def test_deregulated_revenue_dominates_baseline(self, four_cp_market):
        prices = np.linspace(0.2, 1.6, 8)
        base = [
            r.state.revenue for r in price_sweep(four_cp_market, prices, cap=0.0)
        ]
        dereg = [
            r.state.revenue for r in price_sweep(four_cp_market, prices, cap=1.0)
        ]
        assert all(d >= b - 1e-9 for b, d in zip(base, dereg))


class TestOptimalPrice:
    def test_finds_interior_peak(self, four_cp_market):
        best = optimal_price(four_cp_market, cap=0.0, price_range=(0.0, 3.0))
        assert 0.0 < best.price < 3.0
        # No grid price does better.
        for p in np.linspace(0.05, 2.95, 30):
            assert (
                four_cp_market.with_price(float(p)).solve().revenue
                <= best.revenue + 1e-9
            )

    def test_deregulation_weakly_raises_optimal_revenue(self, four_cp_market):
        regulated = optimal_price(four_cp_market, cap=0.0, price_range=(0.0, 3.0))
        deregulated = optimal_price(four_cp_market, cap=1.0, price_range=(0.0, 3.0))
        assert deregulated.revenue >= regulated.revenue - 1e-9
