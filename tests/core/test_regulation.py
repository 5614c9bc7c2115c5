"""Unit tests for repro.core.regulation — price caps and viability floors."""

import numpy as np
import pytest

from repro.core.regulation import (
    constrained_welfare_optimal_price,
    price_cap_analysis,
)
from repro.core.revenue import optimal_price
from repro.exceptions import ModelError
from repro.experiments.scenarios import section5_market


class TestConstrainedWelfareOptimum:
    def test_picks_lowest_viable_price(self, four_cp_market):
        # Welfare falls with price, so the optimum sits where the revenue
        # floor binds (on the rising side of the revenue curve).
        floor = 0.15
        outcome = constrained_welfare_optimal_price(
            four_cp_market, cap=0.5, min_revenue=floor, price_range=(0.0, 2.0)
        )
        assert outcome.revenue >= floor - 1e-6
        assert outcome.binding

    def test_welfare_dominates_monopoly_outcome(self, four_cp_market):
        monopoly = optimal_price(four_cp_market, cap=0.5, price_range=(0.0, 2.0))
        regulated = constrained_welfare_optimal_price(
            four_cp_market,
            cap=0.5,
            min_revenue=0.6 * monopoly.revenue,
            price_range=(0.0, 2.0),
        )
        assert regulated.price < monopoly.price
        assert regulated.welfare > monopoly.equilibrium.state.welfare

    def test_tighter_floor_forces_higher_price(self, four_cp_market):
        loose = constrained_welfare_optimal_price(
            four_cp_market, cap=0.5, min_revenue=0.1, price_range=(0.0, 2.0)
        )
        tight = constrained_welfare_optimal_price(
            four_cp_market, cap=0.5, min_revenue=0.25, price_range=(0.0, 2.0)
        )
        assert tight.price >= loose.price
        assert tight.welfare <= loose.welfare + 1e-9

    def test_section5_market_meets_revenue_floor(self):
        outcome = constrained_welfare_optimal_price(
            section5_market(), cap=1.0, min_revenue=0.3,
            price_range=(0.0, 2.0), grid_points=64,
        )
        assert outcome.revenue >= 0.3 - 1e-6

    def test_infeasible_floor_raises(self, four_cp_market):
        with pytest.raises(ModelError):
            constrained_welfare_optimal_price(
                four_cp_market, cap=0.5, min_revenue=100.0, price_range=(0.0, 2.0)
            )

    def test_validates_inputs(self, four_cp_market):
        with pytest.raises(ModelError):
            constrained_welfare_optimal_price(
                four_cp_market, cap=0.5, min_revenue=-1.0
            )
        with pytest.raises(ModelError):
            constrained_welfare_optimal_price(
                four_cp_market, cap=0.5, min_revenue=0.1, price_range=(2.0, 1.0)
            )


class TestPriceCapAnalysis:
    def test_loose_cap_reproduces_monopoly(self, four_cp_market):
        monopoly = optimal_price(four_cp_market, cap=0.5, price_range=(0.0, 2.0))
        outcomes = price_cap_analysis(
            four_cp_market, cap=0.5, price_caps=[10.0], price_range=(0.0, 2.0)
        )
        assert not outcomes[0].binding
        assert outcomes[0].price == pytest.approx(monopoly.price, abs=1e-6)

    def test_binding_cap_moves_price_to_the_cap(self, four_cp_market):
        monopoly = optimal_price(four_cp_market, cap=0.5, price_range=(0.0, 2.0))
        p_bar = 0.5 * monopoly.price
        outcomes = price_cap_analysis(
            four_cp_market, cap=0.5, price_caps=[p_bar], price_range=(0.0, 2.0)
        )
        assert outcomes[0].binding
        # Revenue rises toward its peak, so the constrained ISP prices at
        # the cap itself.
        assert outcomes[0].price == pytest.approx(p_bar, abs=1e-4)

    def test_binding_caps_raise_welfare(self, four_cp_market):
        monopoly = optimal_price(four_cp_market, cap=0.5, price_range=(0.0, 2.0))
        outcomes = price_cap_analysis(
            four_cp_market,
            cap=0.5,
            price_caps=[0.5 * monopoly.price, 10.0],
            price_range=(0.0, 2.0),
        )
        capped, free = outcomes
        assert capped.welfare > free.welfare
        assert capped.revenue <= free.revenue + 1e-9

    def test_rejects_non_positive_caps(self, four_cp_market):
        with pytest.raises(ModelError):
            price_cap_analysis(four_cp_market, cap=0.5, price_caps=[0.0])
