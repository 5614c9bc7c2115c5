"""A 20-period trajectory cold, then replayed from a warm store.

Running the registered ``dynamics-20`` capacity-expansion trajectory cold
persists it as one store entry; replaying the identical
trajectory from a fresh process-equivalent (empty memory tiers, warm
store) performs **zero** equilibrium solves and returns the same columns.
"""

import numpy as np

from repro.engine import SolveCache, SolveService, SolveStore
from repro.scenarios import get_scenario
from repro.simulation import dynamics_settings, run_trajectory

SCENARIO = "dynamics-20"


def _run(service):
    scenario = get_scenario(SCENARIO)
    spec = dynamics_settings(scenario.metadata)
    assert spec.horizon >= 20
    return spec, run_trajectory(scenario.market, spec, service=service)


def _service(store_dir):
    return SolveService(cache=SolveCache(), store=SolveStore(store_dir))


def test_dynamics_cold_solve_and_persist(tmp_path):
    service = _service(tmp_path)
    spec, trajectory = _run(service)
    assert trajectory.horizon == spec.horizon
    assert service.counters.computed == 1
    # The whole trajectory is one store entry.
    assert len(service.store) == 1
    assert bool(trajectory.capacity_growth() > 0)


def test_dynamics_warm_replay(tmp_path):
    _, cold = _run(_service(tmp_path))  # prime the store
    replay_service = _service(tmp_path)  # fresh memory tiers, warm store
    _, warm = _run(replay_service)
    assert replay_service.counters.computed == 0
    assert replay_service.counters.store_hits == 1
    assert np.array_equal(warm.capacities, cold.capacities)
    assert np.array_equal(warm.revenues, cold.revenues)
    assert np.array_equal(warm.welfares, cold.welfares)
