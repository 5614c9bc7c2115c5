"""Generated scenarios at scale through the whole pipeline.

The paper's markets have 8–9 CP types; these push the same pipeline
(scenario → :func:`~repro.engine.solve_grid` → panels → checks) through
64-, 256- and 1024-CP generated markets, and a seeded heterogeneous
market mixing every demand/throughput family. Each uses its registered
scenario's own (deliberately thin) axes and starts from a cold default
service.
"""

import pytest

from repro.experiments.pipeline import run_spec, scenario_experiment
from repro.scenarios import get_scenario

pytestmark = pytest.mark.usefixtures("fresh_grid_cache")


def assert_scenario_checks_pass(scenario_id: str):
    result = run_spec(scenario_experiment(get_scenario(scenario_id)))
    failed = [check.name for check in result.checks if not check.passed]
    assert not failed, f"{result.experiment_id} shape checks failed: {failed}"


def test_scaled_64():
    # 64 CPs, 9 prices x 3 policy levels: 27 Nash equilibria.
    assert_scenario_checks_pass("scaled-64")


def test_scaled_256():
    # 256 CPs, 9 prices x 2 policy levels: the large-game equilibrium path.
    assert_scenario_checks_pass("scaled-256")


def test_scaled_1024():
    # 1024 CPs, regulated price sweep: the congestion fixed-point path.
    assert_scenario_checks_pass("scaled-1024")


def test_random_heterogeneous():
    # 12 CPs drawn over all demand/throughput families, 21 prices x 3 caps.
    assert_scenario_checks_pass("random-12")
