"""Equilibrium path continuation along the ISP price axis.

The equilibrium map ``p ↦ s*(p, q)`` is piecewise smooth: it is
differentiable wherever the ``N−/N+/Ñ`` partition of Theorem 6 is locally
constant, and *kinks* where a CP enters or leaves a bound (the
strict-complementarity edge cases the theorem excludes). This module traces
the path with warm-started solves and locates those partition-change
breakpoints to high precision by bisection — useful both for plotting
(Figure 8's kinks) and for knowing where Theorem 6's derivative formulas
are valid.

Engine routing
--------------
The on-grid portion of a trace is exactly one warm-chained *cap row* — the
same unit :func:`~repro.engine.solve_grid` schedules — so it runs as the
shared :func:`~repro.engine.grid_engine.cap_row_task`: a trace along a
figure's price axis resolves from the very rows the figure already solved
(and vice versa). Each breakpoint refinement is its own content-keyed task
(:func:`refine_breakpoint`), so against a warm persistent store a repeated
trace performs zero equilibrium solves. Warm-start chains are preserved
exactly; routing changes where solves run, never their results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.characterization import ProviderPartition, classify_providers
from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.engine.grid_engine import cap_row_task
from repro.engine.service import SolveService, SolveTask, default_service
from repro.engine.cache import market_fingerprint
from repro.exceptions import ModelError
from repro.providers.market import Market
from repro.solvers.scalar_opt import bisect_interval

__all__ = [
    "Breakpoint",
    "EquilibriumPath",
    "refine_breakpoint",
    "trace_equilibrium_path",
]


@dataclass(frozen=True)
class Breakpoint:
    """A price where the equilibrium's bound-partition changes.

    Attributes
    ----------
    price:
        Location of the change, bracketed to ``price_tol``.
    before, after:
        The partitions on each side.
    """

    price: float
    before: ProviderPartition
    after: ProviderPartition


@dataclass(frozen=True)
class EquilibriumPath:
    """A traced equilibrium path ``p ↦ s*(p, q)``.

    Attributes
    ----------
    prices:
        Grid the path was traced on.
    subsidies:
        Matrix ``[price, cp]`` of equilibrium subsidies.
    partitions:
        Per-grid-point partitions.
    breakpoints:
        Refined partition-change locations between grid nodes.
    cap:
        The policy level of the trace.
    """

    prices: np.ndarray
    subsidies: np.ndarray
    partitions: tuple[ProviderPartition, ...]
    breakpoints: tuple[Breakpoint, ...]
    cap: float

    def smooth_segments(self) -> list[tuple[float, float]]:
        """Price intervals on which Theorem 6's formulas apply.

        Returns the open segments between consecutive breakpoints (and the
        path's ends), on each of which the partition — and hence the
        differentiable branch of ``s*(p)`` — is constant.
        """
        edges = (
            [float(self.prices[0])]
            + [bp.price for bp in self.breakpoints]
            + [float(self.prices[-1])]
        )
        return [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)]


def _partition_key(partition: ProviderPartition) -> tuple:
    return (partition.zero, partition.capped, partition.interior)


def _partition_from_key(key) -> ProviderPartition:
    zero, capped, interior = key
    return ProviderPartition(
        tuple(int(i) for i in zero),
        tuple(int(i) for i in capped),
        tuple(int(i) for i in interior),
    )


def refine_breakpoint(
    market: Market,
    lo: float,
    hi: float,
    cap: float,
    warm: np.ndarray,
    part_lo_key: tuple,
    part_hi_key: tuple,
    price_tol: float,
    boundary_tol: float,
) -> dict:
    """Bisect one partition-change interval down to ``price_tol``.

    A pure function of the interval's endpoints, the warm profile the
    chain reached the interval with, and the flanking partitions — the
    unit of refinement work the trace routes through the solve service.
    Returns the breakpoint price and the partition on its far side, as a
    JSON-ready payload (the ``"json"`` codec round-trips floats exactly).
    """
    chain = {
        "warm": np.asarray(warm, dtype=float),
        "after": tuple(tuple(int(i) for i in part) for part in part_hi_key),
    }
    part_lo_key = tuple(tuple(int(i) for i in part) for part in part_lo_key)

    def on_lo_side(mid: float) -> bool:
        game = SubsidizationGame(market.with_price(float(mid)), cap)
        eq = solve_equilibrium(game, initial=chain["warm"])
        key = _partition_key(
            classify_providers(game, eq.subsidies, boundary_tol=boundary_tol)
        )
        chain["warm"] = eq.subsidies
        if key == part_lo_key:
            return True
        chain["after"] = key
        return False

    lo, hi = bisect_interval(on_lo_side, lo, hi, price_tol)
    return {"price": 0.5 * (lo + hi), "after": chain["after"]}


def trace_equilibrium_path(
    market: Market,
    prices,
    cap: float,
    *,
    price_tol: float = 1e-6,
    boundary_tol: float = 1e-7,
    service: SolveService | None = None,
) -> EquilibriumPath:
    """Trace ``s*(p, q)`` over a price grid and refine its kinks.

    Parameters
    ----------
    market:
        The market (its own price is ignored; the grid provides prices).
    prices:
        Increasing price grid.
    cap:
        Policy level ``q``.
    price_tol:
        Bisection tolerance for breakpoint locations.
    boundary_tol:
        Bound-closeness tolerance for the partition classification.
    service:
        Solve service resolving the row and refinement tasks; ``None``
        uses the shared default (store-backed when configured).
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 1 or prices.size < 2:
        raise ModelError("prices must be a 1-D grid with at least two points")
    if np.any(np.diff(prices) <= 0.0):
        raise ModelError("prices must be strictly increasing")
    svc = service if service is not None else default_service()

    # The on-grid sweep is one warm-chained cap row — solve_grid's unit
    # of work, shared key included.
    row = svc.run(cap_row_task(market, prices, cap, warm_start=True))
    subsidies = [eq.subsidies.copy() for eq in row]
    partitions = [
        classify_providers(
            SubsidizationGame(market.with_price(float(p)), cap),
            row[j].subsidies,
            boundary_tol=boundary_tol,
        )
        for j, p in enumerate(prices)
    ]

    fingerprint = market_fingerprint(market)
    breakpoints = []
    for k in range(prices.size - 1):
        if _partition_key(partitions[k]) == _partition_key(partitions[k + 1]):
            continue
        lo, hi = float(prices[k]), float(prices[k + 1])
        part_lo_key = _partition_key(partitions[k])
        part_hi_key = _partition_key(partitions[k + 1])
        warm = subsidies[k].copy()
        refined = svc.run(
            SolveTask(
                fn=refine_breakpoint,
                args=(
                    market,
                    lo,
                    hi,
                    float(cap),
                    warm,
                    part_lo_key,
                    part_hi_key,
                    float(price_tol),
                    float(boundary_tol),
                ),
                key=(
                    "continuation-bp/1",
                    fingerprint,
                    lo,
                    hi,
                    float(cap),
                    float(price_tol),
                    float(boundary_tol),
                    part_lo_key,
                    part_hi_key,
                    warm.tobytes(),
                ),
                codec="json",
            )
        )
        breakpoints.append(
            Breakpoint(
                price=float(refined["price"]),
                before=partitions[k],
                after=_partition_from_key(refined["after"]),
            )
        )

    return EquilibriumPath(
        prices=prices,
        subsidies=np.array(subsidies),
        partitions=tuple(partitions),
        breakpoints=tuple(breakpoints),
        cap=cap,
    )
