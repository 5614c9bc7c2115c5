"""The capacity-expansion loop: the ``"capacity"`` kind of run_trajectory."""

import numpy as np
import pytest

from repro.engine import SolveCache, SolveService
from repro.exceptions import ModelError
from repro.simulation import DynamicsSpec, run_trajectory


def expand(market, cap, horizon, **rule):
    """Run ``horizon`` reinvestment periods on a private in-memory service."""
    spec = DynamicsSpec(kind="capacity", horizon=horizon, cap=cap, **rule)
    return run_trajectory(
        market, spec, service=SolveService(cache=SolveCache())
    )


class TestCapacityExpansion:
    def test_trajectory_shapes(self, two_cp_market):
        trajectory = expand(two_cp_market, 1.0, 5)
        assert trajectory.horizon == 5
        assert trajectory.capacities.shape == (6,)
        assert trajectory.revenues.shape == (6,)
        assert trajectory.subsidies.shape == (6, 2)

    def test_capacity_grows_with_reinvestment(self, two_cp_market):
        trajectory = expand(two_cp_market, 1.0, 6, reinvestment_rate=0.3)
        assert np.all(np.diff(trajectory.capacities) > 0.0)
        assert trajectory.capacity_growth() > 0.0

    def test_zero_reinvestment_freezes_capacity(self, two_cp_market):
        trajectory = expand(two_cp_market, 1.0, 4, reinvestment_rate=0.0)
        np.testing.assert_allclose(
            trajectory.capacities, trajectory.capacities[0]
        )

    def test_depreciation_can_shrink_capacity(self, two_cp_market):
        trajectory = expand(
            two_cp_market, 0.0, 4, reinvestment_rate=0.0, depreciation=0.1
        )
        assert np.all(np.diff(trajectory.capacities) < 0.0)

    def test_capacity_relieves_congestion(self, two_cp_market):
        trajectory = expand(two_cp_market, 1.0, 8, reinvestment_rate=0.4)
        # Theorem 1: at fixed price, more capacity means lower utilization.
        assert trajectory.utilizations[-1] < trajectory.utilizations[0]

    def test_deregulation_funds_more_capacity(self, four_cp_market):
        # The paper's central investment-incentive claim, end to end.
        regulated = expand(four_cp_market, 0.0, 6, reinvestment_rate=0.3)
        deregulated = expand(four_cp_market, 1.0, 6, reinvestment_rate=0.3)
        assert deregulated.capacities[-1] > regulated.capacities[-1]

    def test_price_reoptimization_runs(self, two_cp_market):
        trajectory = expand(
            two_cp_market,
            0.5,
            2,
            reinvestment_rate=0.2,
            reoptimize_price=True,
            price_range=(0.1, 2.0),
        )
        assert np.all(trajectory.prices >= 0.1)
        assert np.all(trajectory.prices <= 2.0)

    def test_validation(self, two_cp_market):
        with pytest.raises(ModelError):
            expand(two_cp_market, 1.0, -1)
        with pytest.raises(ModelError):
            expand(two_cp_market, 1.0, 1, reinvestment_rate=1.5)
        with pytest.raises(ModelError):
            expand(two_cp_market, 1.0, 1, capacity_cost=0.0)
        with pytest.raises(ModelError):
            expand(two_cp_market, 1.0, 1, depreciation=1.0)
