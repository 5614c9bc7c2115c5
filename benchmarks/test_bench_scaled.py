"""Benchmarks: generated scenarios at scale through the engine.

The paper's markets have 8–9 CP types; these benchmarks push the same
pipeline (scenario → :func:`~repro.engine.solve_grid` → panels → checks)
through 64-, 256- and 1024-CP generated markets, establishing the scaling
trajectory of the equilibrium path (full subsidization grids up to 256
CPs) and of the congestion path (regulated price sweep at 1024 CPs), plus
a seeded heterogeneous market mixing every demand/throughput family.

Workloads use each registered scenario's own (deliberately thin) axes, so
``pytest benchmarks/ --benchmark-only`` records comparable numbers as the
engine evolves.
"""

from benchmarks.conftest import assert_all_checks_pass, run_once
from repro.experiments.pipeline import run_spec, scenario_experiment
from repro.scenarios import get_scenario


def run_scenario(scenario_id: str):
    spec = scenario_experiment(get_scenario(scenario_id))
    return run_spec(spec)


def test_bench_scaled_64(benchmark):
    # 64 CPs, 9 prices x 3 policy levels: 27 Nash equilibria.
    result = run_once(benchmark, lambda: run_scenario("scaled-64"))
    assert_all_checks_pass(result)


def test_bench_scaled_256(benchmark):
    # 256 CPs, 9 prices x 2 policy levels: the large-game equilibrium path.
    result = run_once(benchmark, lambda: run_scenario("scaled-256"))
    assert_all_checks_pass(result)


def test_bench_scaled_1024(benchmark):
    # 1024 CPs, regulated price sweep: the congestion fixed-point path.
    result = run_once(benchmark, lambda: run_scenario("scaled-1024"))
    assert_all_checks_pass(result)


def test_bench_random_heterogeneous(benchmark):
    # 12 CPs drawn over all demand/throughput families, 21 prices x 3 caps.
    result = run_once(benchmark, lambda: run_scenario("random-12"))
    assert_all_checks_pass(result)
