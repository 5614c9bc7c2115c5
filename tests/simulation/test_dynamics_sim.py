"""Unit tests for repro.simulation.dynamics — off-equilibrium play."""

import numpy as np
import pytest

from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.exceptions import ModelError
from repro.providers import AccessISP, Market, exponential_cp
from repro.simulation.agents import BestResponseStrategy, SubsidyStrategy
from repro.simulation.dynamics import MarketSimulation, SimulationConfig


class Holdout(SubsidyStrategy):
    """A CP that never subsidizes."""

    def propose(self, game, index, profile, rng) -> float:
        return 0.0


def distance(trajectory, equilibrium) -> np.ndarray:
    """Per-period ``‖s(t) − s*‖_∞`` to the equilibrium profile."""
    return np.abs(trajectory.subsidies - equilibrium.subsidies).max(axis=1)


class TestConfig:
    def test_validates_inertia(self):
        with pytest.raises(ModelError):
            SimulationConfig(population_inertia=0.0)
        with pytest.raises(ModelError):
            SimulationConfig(population_inertia=1.5)

    def test_validates_schedule(self):
        with pytest.raises(ModelError):
            SimulationConfig(update="random")


class TestRunMechanics:
    def test_trace_length_and_steps(self, two_cp_market):
        sim = MarketSimulation(two_cp_market, cap=1.0)
        trajectory = sim.run(5)
        assert trajectory.horizon == 5
        np.testing.assert_array_equal(trajectory.steps, np.arange(6))

    def test_zero_steps_returns_initial_condition_only(self, two_cp_market):
        sim = MarketSimulation(two_cp_market, cap=1.0)
        trajectory = sim.run(0, initial_subsidies=[0.2, 0.1])
        assert trajectory.horizon == 0
        np.testing.assert_allclose(trajectory.subsidies[0], [0.2, 0.1])

    def test_rejects_bad_inputs(self, two_cp_market):
        sim = MarketSimulation(two_cp_market, cap=1.0)
        with pytest.raises(ModelError):
            sim.run(-1)
        with pytest.raises(ModelError):
            sim.run(1, initial_subsidies=[0.1])
        with pytest.raises(ModelError):
            sim.run(1, initial_populations=[-1.0, 0.5])

    def test_strategy_count_must_match(self, two_cp_market):
        with pytest.raises(ModelError):
            MarketSimulation(two_cp_market, cap=1.0, strategies=[BestResponseStrategy()])

    def test_record_consistency(self, two_cp_market):
        sim = MarketSimulation(two_cp_market, cap=1.0)
        trajectory = sim.run(3)
        for revenue, welfare, throughputs in zip(
            trajectory.revenues, trajectory.welfares, trajectory.throughputs
        ):
            assert revenue == pytest.approx(1.0 * float(np.sum(throughputs)))
            assert welfare == pytest.approx(
                float(np.dot(two_cp_market.values, throughputs))
            )

    def test_resolve_records_without_the_initial_row(self, two_cp_market):
        # A shock window's first row repeats the previous window's last,
        # so it is skipped and the steps continue from start_step.
        sim = MarketSimulation(two_cp_market, cap=1.0)
        s, m = sim.advance(*sim.initial_state(), 3)
        full = sim.resolve_records(s, m, start_step=10)
        tail = sim.resolve_records(s, m, start_step=10, include_initial=False)
        assert full["steps"].tolist() == [10, 11, 12, 13]
        assert tail["steps"].tolist() == [11, 12, 13]
        for name, column in tail.items():
            assert np.array_equal(column, full[name][1:]), name

    def test_integer_market_parameters_give_float_columns(self):
        market = Market(
            [exponential_cp(2.0, 2.0, value=1.0)],
            AccessISP(price=1, capacity=2),
        )
        trajectory = MarketSimulation(market, cap=1.0).run(2)
        assert trajectory.capacities.dtype == np.float64
        assert trajectory.prices.dtype == np.float64
        assert trajectory.capacities.tolist() == [2.0, 2.0, 2.0]


class TestConvergenceToNash:
    def test_best_response_play_converges(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        equilibrium = solve_equilibrium(game)
        sim = MarketSimulation(four_cp_market, cap=1.0)
        trajectory = sim.run(25)
        assert distance(trajectory, equilibrium)[-1] < 1e-8

    def test_convergence_from_random_start(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        equilibrium = solve_equilibrium(game)
        rng = np.random.default_rng(7)
        sim = MarketSimulation(four_cp_market, cap=1.0)
        trajectory = sim.run(30, initial_subsidies=rng.uniform(0.0, 1.0, 4))
        assert distance(trajectory, equilibrium)[-1] < 1e-7

    def test_population_inertia_slows_but_does_not_break_convergence(
        self, two_cp_market
    ):
        game = SubsidizationGame(two_cp_market, 1.0)
        equilibrium = solve_equilibrium(game)
        sim = MarketSimulation(
            two_cp_market,
            cap=1.0,
            config=SimulationConfig(population_inertia=0.3),
        )
        trajectory = sim.run(60)
        assert distance(trajectory, equilibrium)[-1] < 1e-6
        # Populations lag their demand targets early in the run.
        demand_target = np.array(
            [
                cp.population(1.0 - trajectory.subsidies[1, i])
                for i, cp in enumerate(two_cp_market.providers)
            ]
        )
        assert not np.allclose(trajectory.populations[1], demand_target)

    def test_jacobi_schedule_also_converges_here(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        equilibrium = solve_equilibrium(game)
        sim = MarketSimulation(
            four_cp_market,
            cap=1.0,
            config=SimulationConfig(update="simultaneous"),
        )
        trajectory = sim.run(40)
        assert distance(trajectory, equilibrium)[-1] < 1e-6

    def test_holdout_cp_shifts_the_rest_point(self, four_cp_market):
        # If CP 0 refuses to subsidize, play settles at the best responses
        # to the holdout — not at the Nash equilibrium (where CP 0 would
        # subsidize ~0.38 and the rivals respond to that).
        game = SubsidizationGame(four_cp_market, 1.0)
        nash = solve_equilibrium(game)
        assert nash.subsidies[0] > 0.1
        sim = MarketSimulation(
            four_cp_market,
            cap=1.0,
            strategies=[Holdout()] + [BestResponseStrategy()] * 3,
        )
        trajectory = sim.run(25)
        assert trajectory.subsidies[-1, 0] == 0.0
        # The congestion relief from CP 0's absence shifts the rivals too.
        rival_shift = np.max(
            np.abs(trajectory.subsidies[-1, 1:] - nash.subsidies[1:])
        )
        assert rival_shift > 1e-4


class TestNoiseRobustness:
    def test_noisy_play_stays_near_equilibrium(self, four_cp_market):
        game = SubsidizationGame(four_cp_market, 1.0)
        equilibrium = solve_equilibrium(game)
        sim = MarketSimulation(
            four_cp_market,
            cap=1.0,
            strategies=[BestResponseStrategy(noise=0.01) for _ in range(4)],
            config=SimulationConfig(seed=5),
        )
        trajectory = sim.run(30)
        tail = distance(trajectory, equilibrium)[-10:]
        assert np.max(tail) < 0.1
