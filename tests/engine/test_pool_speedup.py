"""The persistent pool pays off, and adaptive refinement saves solves.

* **Pool churn vs persistence.** Eight consecutive oligopoly Jacobi
  rounds on one solve service. The churn arm tears the worker pool down
  after every round; the persistent arm spawns once and reuses it. Same
  tasks, same results — the timed difference is pool spawn/teardown
  overhead, and the persistent arm must win by more than 1.2x.
* **Coarse-vs-refined grid solves.** Adaptive refinement of the §5
  (price × policy) grid toward the interior resolution of a uniform axis
  ``2**levels`` times finer must solve at most half that grid's nodes.
"""

import time

import numpy as np

from repro.competition import COMPETITION_DEFAULTS, OligopolyGame
from repro.competition.oligopoly import solve_oligopoly_sweep
from repro.engine import SolveCache, SolveService, SolveTask
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
#: scheduling overhead, not equilibrium math. Each search's ``(lo, hi,
#: grid_points, xtol, tol)``.
SWEEP = (0.7, 0.9, 3, 0.15, COMPETITION_DEFAULTS["tol"])
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
    """Run ROUNDS damped Jacobi rounds; churn tears the pool down per round.

    Each round is one keyless batch of full searches, every carrier's
    warm-started from its search of the round before.
    """
    game = _game(service)
    n = game.n_carriers
    prices = [0.75] * n
    warm = [None] * n
    for _ in range(ROUNDS):
        tasks = [
            SolveTask(
                fn=solve_oligopoly_sweep,
                args=(
                    game._providers, game.isps[k], game.switching, game.cap,
                    k, tuple(prices), *SWEEP, warm[k],
                ),
            )
            for k in range(n)
        ]
        outcomes = service.map(tasks, workers=WORKERS)
        for k, outcome in enumerate(outcomes):
            warm[k] = outcome["warm"]
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


def test_persistent_pool_beats_churn_and_refinement_saves_solves():
    # Each arm runs twice and keeps its best time — on a shared machine
    # the min is the noise-robust estimate of the arm's true cost.
    persistent_seconds, persistent_prices, persistent_stats = _timed_arm(
        churn=False
    )
    persistent_seconds = min(persistent_seconds, _timed_arm(churn=False)[0])
    churn_seconds, churn_prices, churn_stats = _timed_arm(churn=True)
    churn_seconds = min(churn_seconds, _timed_arm(churn=True)[0])

    # Same schedule, same bits — only the pool lifecycle differs.
    assert churn_prices == persistent_prices
    assert persistent_stats["pool_spawns"] == 1
    assert churn_stats["pool_spawns"] == ROUNDS
    speedup = churn_seconds / persistent_seconds
    assert speedup > 1.2, (
        f"persistent pool should beat per-round churn, got {speedup:.2f}x"
    )

    # Refinement accounting: the §5 grid, coarse 11-point axis refined
    # three levels (2**3 x finer where flagged) vs the uniform 81-point
    # pointwise grid those levels target.
    caps = np.asarray(POLICY_LEVELS)
    coarse = np.round(np.linspace(0.0, 2.0, 11), 10)
    fine_points = 81
    refine_service = SolveService(cache=SolveCache())
    _, report = refine_grid(
        section5_market(), coarse, caps,
        spec=RefineSpec(levels=3, threshold=0.002),
        service=refine_service, workers=2,
    )
    refine_service.close()
    assert report.node_solves * 2 <= fine_points * caps.size
