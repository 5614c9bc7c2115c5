"""Discrete-time market dynamics (the §6 "off-equilibrium" extension).

Each period:

1. **CP updates** — every CP proposes a next subsidy through its
   :class:`~repro.simulation.agents.SubsidyStrategy`, either sequentially
   (each sees predecessors' fresh choices — Gauss–Seidel style) or
   simultaneously (all see the stale profile — Jacobi style).
2. **User adjustment** — populations move toward their demand level with
   inertia ``ρ``: ``m_i ← (1 − ρ)·m_i + ρ·m_i(p − s_i)``. ``ρ = 1`` is the
   paper's instantaneous-demand assumption; ``ρ < 1`` models subscription
   stickiness the static model abstracts away.
3. **Congestion resolution** — the utilization fixed point is re-solved for
   the lagged populations and the period's throughput, utilities, revenue
   and welfare are recorded.

Static Nash equilibria (with ``ρ = 1``, noiseless best responses) are fixed
points of this dynamic; the test-suite and EXPERIMENTS.md verify they are
attractors from random initial conditions.

The simulator is split into two phases so the dynamics subsystem
(:mod:`repro.simulation.trajectory`) can change the market at a shock
mid-run without changing a single bit:

* :meth:`MarketSimulation.advance` runs the inherently sequential
  strategy/population recursion and returns the raw ``(S, M)`` arrays;
* :meth:`MarketSimulation.resolve_records` resolves every recorded
  period's congestion fixed point in **one**
  :meth:`~repro.network.system.CongestionSystem.solve_population_batch`
  call instead of scalar per-step solves. The batch
  solver's rows follow trajectories independent of batch composition, so
  any windowing of the steps — one call for the whole run, or one per
  shock-free window — produces bitwise-identical records.

Example — two noiseless best-response CPs walked three periods forward
(the trajectory holds the initial condition plus one row per period):

>>> from repro.providers import AccessISP, Market, exponential_cp
>>> from repro.simulation import MarketSimulation
>>> market = Market(
...     [exponential_cp(2.0, 2.0, value=1.0),
...      exponential_cp(5.0, 5.0, value=0.5)],
...     AccessISP(price=1.0, capacity=1.0),
... )
>>> trajectory = MarketSimulation(market, cap=1.0).run(3)
>>> trajectory.horizon, trajectory.steps.tolist()
(3, [0, 1, 2, 3])
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.game import SubsidizationGame
from repro.exceptions import ModelError
from repro.providers.market import Market
from repro.simulation.agents import BestResponseStrategy, SubsidyStrategy
from repro.simulation.trace import DynamicsTrajectory

__all__ = ["SimulationConfig", "MarketSimulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the market simulator.

    Attributes
    ----------
    population_inertia:
        Adjustment speed ``ρ ∈ (0, 1]`` of populations toward demand.
    update:
        ``"sequential"`` (Gauss–Seidel) or ``"simultaneous"`` (Jacobi)
        CP updates within a period.
    seed:
        Seed of the simulator's private random generator (decision noise).

    >>> SimulationConfig().update
    'sequential'
    """

    population_inertia: float = 1.0
    update: str = "sequential"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.population_inertia <= 1.0:
            raise ModelError(
                f"population_inertia must lie in (0, 1], got "
                f"{self.population_inertia}"
            )
        if self.update not in {"sequential", "simultaneous"}:
            raise ModelError(f"unknown update schedule {self.update!r}")


class MarketSimulation:
    """Runs the subsidization market forward in discrete time.

    Parameters
    ----------
    market:
        The market (fixed ISP price and capacity throughout the run).
    cap:
        Policy cap ``q`` bounding every subsidy.
    strategies:
        One strategy per CP; defaults to noiseless full best response for
        everyone (whose fixed points are the static Nash equilibria).
    config:
        Simulation knobs; see :class:`SimulationConfig`.
    """

    def __init__(
        self,
        market: Market,
        cap: float,
        strategies: list[SubsidyStrategy] | None = None,
        config: SimulationConfig | None = None,
    ) -> None:
        self._market = market
        self._game = SubsidizationGame(market, cap)
        if strategies is None:
            strategies = [BestResponseStrategy() for _ in range(market.size)]
        if len(strategies) != market.size:
            raise ModelError(
                f"expected {market.size} strategies, got {len(strategies)}"
            )
        self._strategies = list(strategies)
        self._config = config if config is not None else SimulationConfig()
        self._rng = np.random.default_rng(self._config.seed)

    @property
    def game(self) -> SubsidizationGame:
        """The static game the simulator plays out of equilibrium."""
        return self._game

    def _demand_target(self, subsidies: np.ndarray) -> np.ndarray:
        """Per-CP demand level at the current subsidy profile."""
        price = self._market.isp.price
        return np.array(
            [
                cp.population(price - subsidies[i])
                for i, cp in enumerate(self._market.providers)
            ]
        )

    def initial_state(
        self, initial_subsidies=None, initial_populations=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate and normalize a run's initial ``(s, m)`` state.

        Subsidies default to zeros (and are clipped into ``[0, q]``);
        populations default to the demand level the subsidies induce.
        """
        n = self._market.size
        s = (
            np.zeros(n)
            if initial_subsidies is None
            else np.clip(
                np.asarray(initial_subsidies, dtype=float), 0.0, self._game.cap
            )
        )
        if s.shape != (n,):
            raise ModelError(f"initial subsidies must have shape ({n},)")
        demand_now = self._demand_target(s)
        m = (
            demand_now
            if initial_populations is None
            else np.asarray(initial_populations, dtype=float).copy()
        )
        if m.shape != (n,) or np.any(m < 0.0):
            raise ModelError(
                f"initial populations must be non-negative, shape ({n},)"
            )
        return s, m

    def advance(
        self, subsidies: np.ndarray, populations: np.ndarray, steps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the strategy/population recursion for ``steps`` periods.

        Returns ``(S, M)`` arrays of shape ``(steps + 1, N)`` whose row 0
        is the given initial state. This is the sequential half of the
        simulator — congestion is not resolved here; hand the arrays to
        :meth:`resolve_records` (or split them first: the recursion is a
        pure function of its initial state, so a run split into shock
        windows replays the exact same iterates).
        """
        if steps < 0:
            raise ModelError(f"steps must be non-negative, got {steps}")
        n = self._market.size
        s = np.asarray(subsidies, dtype=float).copy()
        m = np.asarray(populations, dtype=float).copy()
        if s.shape != (n,) or m.shape != (n,):
            raise ModelError(f"state arrays must have shape ({n},)")
        trajectory_s = np.empty((steps + 1, n))
        trajectory_m = np.empty((steps + 1, n))
        trajectory_s[0] = s
        trajectory_m[0] = m
        rho = self._config.population_inertia
        for step in range(1, steps + 1):
            if self._config.update == "sequential":
                for i, strategy in enumerate(self._strategies):
                    s[i] = strategy.propose(self._game, i, s, self._rng)
            else:
                proposals = [
                    strategy.propose(self._game, i, s, self._rng)
                    for i, strategy in enumerate(self._strategies)
                ]
                s = np.array(proposals)
            demand_target = self._demand_target(s)
            m = (1.0 - rho) * m + rho * demand_target
            trajectory_s[step] = s
            trajectory_m[step] = m
        return trajectory_s, trajectory_m

    def resolve_records(
        self,
        subsidies: np.ndarray,
        populations: np.ndarray,
        *,
        start_step: int = 0,
        include_initial: bool = True,
    ) -> dict[str, np.ndarray]:
        """Resolve congestion for every recorded period, batched.

        ``subsidies``/``populations`` are the ``(K + 1, N)`` arrays of
        :meth:`advance`; row ``t`` becomes the record of global step
        ``start_step + t`` (row 0 is skipped when ``include_initial`` is
        false — a shock window's first row duplicates the previous
        window's last). All rows resolve in one
        ``solve_population_batch`` call; the batch rows are independent,
        so the records never depend on how a trajectory was windowed.

        Returns the :class:`~repro.simulation.trace.DynamicsTrajectory`
        columns (``steps``, ``subsidies``, ..., ``capacities``,
        ``prices``), one row per recorded period.
        """
        first = 0 if include_initial else 1
        rows_s = np.array(subsidies, dtype=float)[first:]
        rows_m = np.array(populations, dtype=float)[first:]
        count = rows_s.shape[0]
        batch = self._market.system.solve_population_batch(
            self._market.throughput_table, rows_m
        )
        isp = self._market.isp
        values = self._market.values
        throughputs = batch.throughputs.copy()
        return {
            "steps": np.arange(count, dtype=np.int64) + (start_step + first),
            "subsidies": rows_s,
            "populations": rows_m,
            "utilizations": np.array(batch.utilizations, dtype=float),
            "throughputs": throughputs,
            "utilities": (values - rows_s) * throughputs,
            "revenues": np.array(
                [isp.revenue(float(np.sum(row))) for row in throughputs]
            ),
            "welfares": np.array(
                [float(np.dot(values, row)) for row in throughputs]
            ),
            "capacities": np.full(count, isp.capacity, dtype=float),
            "prices": np.full(count, isp.price, dtype=float),
        }

    def run(
        self,
        steps: int,
        *,
        initial_subsidies=None,
        initial_populations=None,
    ) -> DynamicsTrajectory:
        """Simulate ``steps`` periods and return the full trajectory.

        The trajectory includes the initial condition as step 0, so it
        holds ``steps + 1`` rows; capacity and price stay at the market's.
        Equivalent to :meth:`initial_state` → :meth:`advance` →
        :meth:`resolve_records`.
        """
        s, m = self.initial_state(initial_subsidies, initial_populations)
        trajectory_s, trajectory_m = self.advance(s, m, steps)
        return DynamicsTrajectory(
            kind="subsidies",
            **self.resolve_records(trajectory_s, trajectory_m),
        )
