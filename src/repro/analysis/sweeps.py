"""Equilibrium computations over price/policy grids (engine front door).

The §5 figures all live on the same grid: ISP price ``p`` on the x-axis, one
curve per policy level ``q``. The heavy lifting — row scheduling, optional
row-parallelism, warm-start chains, content-keyed caching — lives in
:mod:`repro.engine`; this module keeps the historical analysis-layer entry
points (:func:`price_sweep`, :func:`policy_grid`, :class:`EquilibriumGrid`)
as thin delegations so downstream code and notebooks keep working.

Solves are array-native end to end: each equilibrium runs the vectorized
Jacobi best-response sweep (batched marginal utilities over ``(N, N)`` trial
profiles, warm-started congestion roots), and ``workers > 1`` additionally
spreads cap rows over a process pool with bitwise-identical results.
"""

from __future__ import annotations

from repro.engine.grid_engine import EquilibriumGrid, GridEngine
from repro.engine.service import default_service
from repro.providers.market import Market

__all__ = ["price_sweep", "EquilibriumGrid", "policy_grid"]


def price_sweep(
    market: Market,
    prices,
    *,
    cap: float = 0.0,
    warm_start: bool = True,
):
    """Equilibria along a price axis under a fixed policy cap.

    With ``cap = 0`` this is the one-sided model of §3.2 (the "solve" is
    then just the congestion fixed point at zero subsidies). Runs as one
    cap-row task on the shared solve service, so repeated sweeps — and
    figure grids sharing the row — resolve from cache (persistently so
    when a store is configured).
    """
    return GridEngine(service=default_service()).price_sweep(
        market, prices, cap=cap, warm_start=warm_start
    )


def policy_grid(
    market: Market,
    prices,
    caps,
    *,
    warm_start: bool = True,
    workers: int | None = None,
) -> EquilibriumGrid:
    """Solve the full (policy × price) equilibrium grid behind Figures 7–11.

    ``workers`` spreads policy rows over a process pool (see
    :class:`repro.engine.GridEngine`); any schedule — pooled, sequential,
    or fed from the shared service's cache tiers — returns bitwise-equal
    results, so both knobs are pure performance choices.
    """
    return GridEngine(service=default_service()).solve_grid(
        market, prices, caps, warm_start=warm_start, workers=workers
    )
