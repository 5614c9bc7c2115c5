"""The solve service: task scheduling plus two-tier content-keyed caching.

The engine layer sits between the Nash solvers (:mod:`repro.core`) and the
figure/analysis layers. It owns the *scheduling* of pure solve work —
content-keyed :class:`SolveTask` units (cap rows of (price × policy)
grids, oligopoly competitions, trajectories) resolved by
a :class:`SolveService` on one persistent :class:`PoolExecutor` (inline
at one worker) — and the *memoization* of every keyed result through two
tiers: the in-process :class:`SolveCache` and the persistent,
content-addressed :class:`SolveStore` (one raw ``.bin`` file per entry
under ``$REPRO_CACHE_DIR``). The worker count resolves in one place — per-call
``workers``, else :func:`set_default_workers` / ``$REPRO_WORKERS``,
else 1. Sequential, pooled and cache-fed schedules are bitwise
interchangeable, so ``workers`` and the cache tiers are purely
throughput knobs.
"""

from repro.engine.cache import SolveCache, market_fingerprint
from repro.engine.executors import PoolExecutor
from repro.engine.grid_engine import (
    EquilibriumGrid,
    cap_row_task,
    certify_grid,
    price_sweep,
    solve_cap_row,
    solve_grid,
)
from repro.engine.service import (
    SolveService,
    SolveTask,
    default_service,
    get_default_workers,
    set_default_service,
    set_default_workers,
)
from repro.engine.store import SolveStore, key_digest

__all__ = [
    "EquilibriumGrid",
    "PoolExecutor",
    "SolveCache",
    "SolveService",
    "SolveStore",
    "SolveTask",
    "cap_row_task",
    "certify_grid",
    "default_service",
    "get_default_workers",
    "key_digest",
    "market_fingerprint",
    "price_sweep",
    "set_default_service",
    "set_default_workers",
    "solve_cap_row",
    "solve_grid",
]
