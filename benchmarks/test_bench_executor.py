"""Benchmark: executor-layer wins — pool persistence and adaptive refinement.

Two perf claims of the executor layer, measured into one
``BENCH_executor.json`` record:

* **Pool churn vs persistence.** Eight consecutive oligopoly Jacobi
  rounds on one solve service. The churn arm tears the worker pool down
  after every round (the old per-``map``-call pool lifecycle); the
  persistent arm spawns once and reuses it. Same tasks, same results —
  the difference is pure pool spawn/teardown overhead.
* **Coarse-vs-refined grid solves.** Adaptive refinement of the §5
  (price × policy) grid reaching the interior resolution of a uniform
  axis ``2**levels`` times finer, with the node-solve count compared to
  what that uniform grid would pay.

The in-test assertions are lenient (machine-independent); the recorded
numbers are the tracked artifact.
"""

import time

from benchmarks.conftest import _write_bench_record, run_once
import numpy as np

from repro.competition import OligopolyGame
from repro.engine import SolveCache, SolveService
from repro.experiments import (
    POLICY_LEVELS,
    RefineSpec,
    refine_grid,
    section5_market,
)
from repro.providers import AccessISP, exponential_cp

#: Jacobi rounds per arm — the round-structured workload the persistent
#: pool exists for.
ROUNDS = 8

#: Pool width. The pool is sized to the resolved worker count (not the
#: batch), so this is what one spawn costs in either arm.
WORKERS = 8

#: Damped Jacobi settings: cheap sweeps (uncongested carriers, coarse
#: grid, loose polish) keep per-round work small so the measured gap is
#: scheduling overhead, not equilibrium math.
SWEEP = dict(price_range=(0.7, 0.9), grid_points=3, xtol=0.15)
DAMPING = 0.5


def _game(service) -> OligopolyGame:
    return OligopolyGame(
        [exponential_cp(2.0, 2.0, value=1.0)],
        tuple(
            AccessISP(price=1.0, capacity=2.0, name=f"isp-{k}")
            for k in range(4)
        ),
        switching=2.0,
        cap=0.3,
        service=service,
    )


def _jacobi_rounds(service, *, churn: bool) -> tuple[float, ...]:
    """Run ROUNDS damped Jacobi rounds; churn tears the pool down per round."""
    game = _game(service)
    prices = [0.75] * game.n_carriers
    for _ in range(ROUNDS):
        outcomes = game.best_response_prices(
            tuple(prices), workers=WORKERS, **SWEEP
        )
        for k, outcome in enumerate(outcomes):
            prices[k] += DAMPING * (float(outcome["price"]) - prices[k])
        if churn:
            service.close()  # the old per-map pool lifecycle
    return tuple(prices)


def _timed_arm(*, churn: bool):
    service = SolveService()
    start = time.perf_counter()
    prices = _jacobi_rounds(service, churn=churn)
    seconds = time.perf_counter() - start
    stats = service.executor.stats()
    service.close()
    return seconds, prices, stats


def test_bench_executor(benchmark):
    # Persistent arm: one pool spawn amortized over all rounds. Each arm
    # runs twice and keeps its best time — on a shared 1-core box the
    # min is the noise-robust estimate of the arm's true cost.
    persistent = SolveService()
    start = time.perf_counter()
    persistent_prices = run_once(
        benchmark, lambda: _jacobi_rounds(persistent, churn=False)
    )
    persistent_seconds = time.perf_counter() - start
    persistent_stats = persistent.executor.stats()
    persistent.close()
    persistent_seconds = min(
        persistent_seconds, _timed_arm(churn=False)[0]
    )

    # Churn arm: identical rounds, pool respawned every round.
    churn_seconds, churn_prices, churn_stats = _timed_arm(churn=True)
    churn_seconds = min(churn_seconds, _timed_arm(churn=True)[0])

    # Same schedule, same bits — only the pool lifecycle differs.
    assert churn_prices == persistent_prices
    assert persistent_stats["pool_spawns"] == 1
    assert churn_stats["pool_spawns"] == ROUNDS
    speedup = churn_seconds / persistent_seconds
    # Lenient in-test floor (shared machines); the record is the artifact.
    assert speedup > 1.2, (
        f"persistent pool should beat per-round churn, got {speedup:.2f}x"
    )

    # Refinement accounting: the §5 grid, coarse 11-point axis refined
    # three levels (2**3 x finer where flagged) vs the uniform 81-point
    # pointwise grid those levels target.
    market = section5_market()
    caps = np.asarray(POLICY_LEVELS)
    coarse = np.round(np.linspace(0.0, 2.0, 11), 10)
    fine_points = 81
    refine_service = SolveService(cache=SolveCache())
    start = time.perf_counter()
    _, report = refine_grid(
        market, coarse, caps,
        spec=RefineSpec(levels=3, threshold=0.002),
        service=refine_service, workers=2,
    )
    refine_seconds = time.perf_counter() - start
    refine_service.close()
    uniform_nodes = fine_points * caps.size
    assert report.node_solves * 2 <= uniform_nodes

    _write_bench_record(
        {
            "case": "executor",
            "seconds": persistent_seconds,
            "solve_tasks": ROUNDS * 4,
            "cache_hits": 0,
            "jacobi_rounds": ROUNDS,
            "workers": WORKERS,
            "persistent_seconds": persistent_seconds,
            "churn_seconds": churn_seconds,
            "pool_speedup": speedup,
            "refine_seconds": refine_seconds,
            "refine_coarse_points": report.coarse_points,
            "refine_final_points": report.final_points,
            "refine_node_solves": report.node_solves,
            "uniform_fine_points": fine_points,
            "uniform_node_solves": uniform_nodes,
            "refine_solve_ratio": uniform_nodes / report.node_solves,
        }
    )
