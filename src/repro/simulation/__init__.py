"""Off-equilibrium market simulation, capacity planning and trajectories.

The paper's framework is a *static* equilibrium model; §6 explicitly lists
two things it cannot capture:

1. **short-term off-equilibrium dynamics** — "players' decisions are not
   rational or optimal". :mod:`repro.simulation.dynamics` runs the market in
   discrete time: CPs adapt subsidies by damped best responses or gradient
   steps (optionally with noise and stale information), while user
   populations adjust toward their demand level with inertia. Static Nash
   equilibria are fixed points of the dynamic; experiments verify they are
   *attractors*.
2. **the ISP's capacity-planning decision** — stated future work.
   :mod:`repro.simulation.capacity` closes the investment loop: the ISP
   reinvests a fraction of revenue into capacity each period, linking the
   "subsidization → utilization → revenue → investment" chain the paper's
   policy argument relies on.

:mod:`repro.simulation.trajectory` makes both first-class workloads: a
declarative :class:`DynamicsSpec` (serialized as the ``repro-dynamics/1``
scenario-metadata block) runs through the shared solve service as one
content-keyed ``dynamics/1`` task per trajectory, so trajectories are
cacheable and poolable exactly like figure grids — and a warm store
replays them with zero equilibrium solves.

Example — declare a trajectory spec and read its canonical block:

>>> from repro.simulation import DynamicsSpec
>>> DynamicsSpec(kind="capacity", horizon=4).to_metadata()["format"]
'repro-dynamics/1'
"""

from repro.simulation.agents import (
    BestResponseStrategy,
    SubsidyStrategy,
)
from repro.simulation.capacity import expansion_step
from repro.simulation.dynamics import MarketSimulation, SimulationConfig
from repro.simulation.trace import DynamicsTrajectory
from repro.simulation.trajectory import (
    DYNAMICS_DEFAULTS,
    DYNAMICS_FORMAT,
    DynamicsSpec,
    Shock,
    dynamics_settings,
    run_trajectory,
    solve_trajectory,
    trajectory_task,
)

__all__ = [
    "BestResponseStrategy",
    "DYNAMICS_DEFAULTS",
    "DYNAMICS_FORMAT",
    "DynamicsSpec",
    "DynamicsTrajectory",
    "MarketSimulation",
    "Shock",
    "SimulationConfig",
    "SubsidyStrategy",
    "dynamics_settings",
    "expansion_step",
    "run_trajectory",
    "solve_trajectory",
    "trajectory_task",
]
