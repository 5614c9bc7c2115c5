"""Unit tests for repro.core.investment — the static capacity decision."""

import numpy as np
import pytest

from repro.core.investment import (
    investment_incentive,
    optimal_capacity,
    optimal_price_and_capacity,
)
from repro.exceptions import ModelError
from repro.experiments.scenarios import section5_market


class TestOptimalCapacity:
    def test_interior_optimum_beats_neighbors(self, four_cp_market):
        outcome = optimal_capacity(
            four_cp_market, cap=0.5, unit_cost=0.2,
            capacity_range=(0.1, 5.0), grid_points=16,
        )
        assert 0.1 < outcome.capacity < 5.0
        from repro.core.equilibrium import solve_equilibrium
        from repro.core.game import SubsidizationGame

        for mu in (outcome.capacity * 0.8, outcome.capacity * 1.2):
            eq = solve_equilibrium(
                SubsidizationGame(four_cp_market.with_capacity(mu), 0.5)
            )
            assert eq.state.revenue - 0.2 * mu <= outcome.profit + 1e-6

    def test_profit_accounts_for_cost(self, two_cp_market):
        outcome = optimal_capacity(
            two_cp_market, cap=0.0, unit_cost=0.3,
            capacity_range=(0.1, 3.0), grid_points=12,
        )
        assert outcome.profit == pytest.approx(
            outcome.revenue - 0.3 * outcome.capacity, abs=1e-9
        )

    def test_expensive_capacity_means_less_of_it(self, two_cp_market):
        cheap = optimal_capacity(
            two_cp_market, cap=0.5, unit_cost=0.05,
            capacity_range=(0.05, 5.0), grid_points=24,
        )
        dear = optimal_capacity(
            two_cp_market, cap=0.5, unit_cost=0.5,
            capacity_range=(0.05, 5.0), grid_points=24,
        )
        assert dear.capacity < cheap.capacity

    def test_validation(self, two_cp_market):
        with pytest.raises(ModelError):
            optimal_capacity(two_cp_market, cap=0.5, unit_cost=-1.0)
        with pytest.raises(ModelError):
            optimal_capacity(
                two_cp_market, cap=0.5, unit_cost=0.1, capacity_range=(1.0, 1.0)
            )


class TestInvestmentIncentive:
    def test_deregulation_raises_optimal_capacity(self, four_cp_market):
        # The paper's §6 claim in its static form: a relaxed policy makes
        # the profit-optimal capacity (weakly) larger.
        market = four_cp_market.with_price(0.8)
        outcomes = investment_incentive(
            market, caps=(0.0, 0.5, 1.0), unit_cost=0.15,
            capacity_range=(0.1, 6.0),
        )
        capacities = [o.capacity for o in outcomes]
        assert capacities[1] >= capacities[0] - 1e-6
        assert capacities[2] >= capacities[1] - 1e-6
        assert capacities[2] > capacities[0] + 1e-3

    def test_profits_also_rise_with_policy(self, four_cp_market):
        market = four_cp_market.with_price(0.8)
        outcomes = investment_incentive(
            market, caps=(0.0, 1.0), unit_cost=0.15, capacity_range=(0.1, 6.0)
        )
        assert outcomes[1].profit >= outcomes[0].profit - 1e-9

    def test_deregulation_raises_capacity_on_section5_market(self):
        # The same §6 claim on the paper's full eight-type §5 market.
        outcomes = investment_incentive(
            section5_market(price=0.8), caps=(0.0, 1.0), unit_cost=0.15,
            capacity_range=(0.1, 6.0),
        )
        assert outcomes[1].capacity > outcomes[0].capacity


class TestJointOptimization:
    def test_coordinate_ascent_improves_on_capacity_only(self, two_cp_market):
        capacity_only = optimal_capacity(
            two_cp_market, cap=0.5, unit_cost=0.2,
            capacity_range=(0.1, 4.0), grid_points=16,
        )
        joint = optimal_price_and_capacity(
            two_cp_market, cap=0.5, unit_cost=0.2,
            price_range=(0.1, 2.5), capacity_range=(0.1, 4.0),
            grid_points=16,
        )
        assert joint.profit >= capacity_only.profit - 1e-6

    def test_outcome_is_internally_consistent(self, two_cp_market):
        joint = optimal_price_and_capacity(
            two_cp_market, cap=0.5, unit_cost=0.2,
            price_range=(0.1, 2.5), capacity_range=(0.1, 4.0),
            grid_points=12, sweeps=3,
        )
        assert joint.equilibrium.state.price == pytest.approx(joint.price)
        assert joint.equilibrium.state.capacity == pytest.approx(joint.capacity)
        assert joint.revenue == pytest.approx(
            joint.equilibrium.state.revenue, rel=1e-9
        )
