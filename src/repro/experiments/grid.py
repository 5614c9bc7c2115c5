"""Shared (price × policy) equilibrium grid for Figures 7–11.

All five §5 figures read different quantities off the *same* set of
equilibria, so the grid is computed once per (prices, caps) pair by a
process-wide :class:`~repro.engine.GridEngine` bound to the shared
:func:`~repro.engine.service.default_service` — cap rows memoize in memory
and, when a cache directory is configured (``$REPRO_CACHE_DIR`` or the
CLI's ``--cache-dir``), persist across runs, so a re-run of any figure
against a warm store performs zero equilibrium solves. A full 41-price ×
5-policy grid is ~200 equilibrium solves; ``workers`` (or the
``--workers`` CLI flag / the ``REPRO_WORKERS`` environment variable)
spreads the policy rows over a process pool with bitwise-identical
results.

The engine global is reachable only through :func:`engine`;
:func:`reset_engine` rebuilds it (and optionally swaps the backing
service) so tests and the CLI can isolate or redirect cache state.
"""

from __future__ import annotations

import numpy as np

from repro.engine import EquilibriumGrid, GridEngine, SolveCache
from repro.engine.service import SolveService, default_service, set_default_service
from repro.experiments.scenarios import (
    FIGURE_PRICE_GRID,
    POLICY_LEVELS,
    section5_market,
)

__all__ = ["section5_grid", "clear_cache", "engine", "reset_engine"]

_ENGINE: GridEngine | None = None


def engine() -> GridEngine:
    """The shared engine behind every §5 figure (lazily built).

    Bound to the process-wide default solve service, so figure rows share
    cache tiers with oligopoly sweeps, continuation traces and any
    configured persistent store. If the default service has been swapped
    since the engine was built (:func:`~repro.engine.service.
    set_default_service`), the engine is rebuilt against the current one —
    the shared grid cache never outlives the service whose rows fed it.
    """
    global _ENGINE
    if _ENGINE is None or _ENGINE.service is not default_service():
        _ENGINE = GridEngine(cache=SolveCache(), service=default_service())
    return _ENGINE


def reset_engine(*, service: SolveService | None = None) -> GridEngine | None:
    """Rebuild the shared engine with fresh in-memory caches.

    The isolation/reconfiguration hook: passing ``service`` rebinds the
    engine (and every other default-routed solve path) to that service and
    returns the rebuilt engine — the CLI uses this for
    ``--cache-dir``/``--no-cache``, tests use it to run against a private
    store or none at all. With no argument both the engine and the default
    service are dropped and *lazily* rebuilt from the environment on next
    use (``$REPRO_CACHE_DIR`` decides whether a persistent store
    attaches); the deferral means a transient environment at reset time —
    a test's monkeypatched cache dir, say — is never captured into the
    process-wide default.
    """
    global _ENGINE
    set_default_service(service)
    if service is None:
        _ENGINE = None
        return None
    _ENGINE = GridEngine(cache=SolveCache(), service=default_service())
    return _ENGINE


def section5_grid(
    prices=None, caps=None, *, workers: int | None = None
) -> EquilibriumGrid:
    """The §5 equilibrium grid (content-cached per axes)."""
    if prices is None:
        prices = FIGURE_PRICE_GRID
    if caps is None:
        caps = POLICY_LEVELS
    prices = np.asarray(prices, dtype=float)
    caps = np.asarray(caps, dtype=float)
    return engine().solve_grid(section5_market(), prices, caps, workers=workers)


def clear_cache() -> None:
    """Drop the in-memory tiers: cached grid objects and service rows.

    A configured persistent store is deliberately untouched — benchmarks
    use this to measure cold in-process solves, while ``cache clear`` on
    the CLI empties the store itself.
    """
    eng = engine()
    if eng.cache is not None:
        eng.cache.clear()
    eng.service.clear_memory()
