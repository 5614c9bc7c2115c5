"""(price × policy) grid solves, straight on the solve service.

Every §5 figure lives on the same grid: ISP price ``p`` on the x-axis, one
curve per policy cap ``q``. The rows of that grid are *independent* solve
chains — warm starts flow along the price axis within a row, never across
rows — which makes cap rows the natural unit of work. :func:`solve_grid`
expresses each row as a content-keyed
:class:`~repro.engine.service.SolveTask` (:func:`cap_row_task`) and hands
the batch to a :class:`~repro.engine.service.SolveService` — the
process-wide default unless one is passed — which schedules uncached rows
across its worker pool and memoizes results through its memory/disk
tiers, so a repeated grid resolves row by row from the service's memory
tier. Because each row's computation is a pure function of ``(market,
prices, cap)``, every schedule — sequential, pooled, or cache-fed —
returns bit-for-bit the same equilibria.

The same ``"cap-row/1"`` tasks are issued by :func:`price_sweep`, so a
price sweep along a figure's price axis resolves entirely from the rows
the figure already solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.equilibrium import (
    EquilibriumResult,
    natural_map_residuals,
    solve_equilibrium,
)
from repro.core.game import SubsidizationGame
from repro.engine.cache import market_fingerprint
from repro.engine.service import SolveService, SolveTask, default_service
from repro.exceptions import ModelError
from repro.providers.market import Market

__all__ = [
    "EquilibriumGrid",
    "cap_row_task",
    "certify_grid",
    "price_sweep",
    "solve_cap_row",
    "solve_grid",
]


@dataclass(frozen=True)
class EquilibriumGrid:
    """All equilibria of a (price × policy) grid.

    Attributes
    ----------
    prices:
        The price axis.
    caps:
        The policy levels.
    results:
        ``results[k][j]`` is the equilibrium at ``caps[k]``, ``prices[j]``.
    """

    prices: np.ndarray
    caps: np.ndarray
    results: tuple[tuple[EquilibriumResult, ...], ...]

    def at(self, cap_index: int, price_index: int) -> EquilibriumResult:
        """The equilibrium at grid node ``(caps[cap_index], prices[price_index])``."""
        return self.results[cap_index][price_index]

    def quantity(self, extractor) -> np.ndarray:
        """Matrix ``[cap, price]`` of a scalar pulled from each equilibrium.

        ``extractor`` maps an :class:`EquilibriumResult` to a float, e.g.
        ``lambda eq: eq.state.revenue``.
        """
        return np.array(
            [[float(extractor(eq)) for eq in row] for row in self.results]
        )

    def provider_quantity(self, extractor) -> np.ndarray:
        """Array ``[cap, price, cp]`` of per-CP vectors from each equilibrium.

        ``extractor`` maps an :class:`EquilibriumResult` to a 1-D array,
        e.g. ``lambda eq: eq.state.throughputs``.
        """
        return np.array(
            [[np.asarray(extractor(eq), dtype=float) for eq in row]
             for row in self.results]
        )

    def subsidy_matrix(self, cap_index: int) -> np.ndarray:
        """Equilibrium profiles of one cap row as a ``(J, N)`` matrix."""
        return np.stack(
            [eq.subsidies for eq in self.results[cap_index]], axis=0
        )


def solve_cap_row(
    market: Market,
    prices: np.ndarray,
    cap: float,
    *,
    warm_start: bool = True,
) -> tuple[EquilibriumResult, ...]:
    """Solve one policy row: equilibria along the price axis.

    Warm starts chain along the row (each solve starts from the previous
    price's equilibrium); the chain never crosses rows, so rows can run on
    any schedule without changing results. This module-level function is
    the unit of work shipped to pool workers.
    """
    results: list[EquilibriumResult] = []
    initial = None
    for p in np.asarray(prices, dtype=float):
        game = SubsidizationGame(market.with_price(float(p)), float(cap))
        result = solve_equilibrium(game, initial=initial)
        results.append(result)
        if warm_start:
            initial = result.subsidies
    return tuple(results)


def cap_row_task(
    market: Market,
    prices: np.ndarray,
    cap: float,
    *,
    warm_start: bool = True,
) -> SolveTask:
    """The content-keyed solve task for one policy row.

    The single definition of the cap-row key — grids, price sweeps and
    refinement all build their row tasks here, which is what lets them
    share cache and store entries.
    """
    prices = np.ascontiguousarray(np.asarray(prices, dtype=float))
    return SolveTask(
        fn=solve_cap_row,
        args=(market, prices, float(cap)),
        kwargs=(("warm_start", bool(warm_start)),),
        key=(
            "cap-row/1",
            market_fingerprint(market),
            prices.tobytes(),
            float(cap),
            bool(warm_start),
        ),
        codec="grid-row",
    )


def _axis(values, name: str) -> np.ndarray:
    """``values`` as a float axis; :class:`ModelError` unless non-empty 1-D."""
    try:
        axis = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        axis = None
    if axis is None or axis.ndim != 1 or axis.size == 0:
        raise ModelError(f"{name} must be a non-empty 1-D array")
    return axis


def price_sweep(
    market: Market,
    prices,
    *,
    cap: float = 0.0,
    service: SolveService | None = None,
    warm_start: bool = True,
) -> list[EquilibriumResult]:
    """Equilibria along a price axis under a fixed policy cap.

    With ``cap = 0`` this is the one-sided model of §3.2. The sweep is one
    cap-row task on ``service`` (``None``: the process-wide
    :func:`~repro.engine.service.default_service`), so repeated sweeps —
    and grids sharing the row — resolve from its cache tiers.
    """
    service = service if service is not None else default_service()
    task = cap_row_task(
        market, _axis(prices, "prices"), cap, warm_start=warm_start
    )
    return list(service.run(task))


def solve_grid(
    market: Market,
    prices,
    caps,
    *,
    service: SolveService | None = None,
    warm_start: bool = True,
    workers: int | None = None,
) -> EquilibriumGrid:
    """Solve (or fetch) the full (policy × price) equilibrium grid.

    One cap-row task per policy level, resolved by ``service`` (``None``:
    the process-wide :func:`~repro.engine.service.default_service`);
    rows already in its memory tier or store are not recomputed.
    ``workers`` spreads the uncached rows over the service's worker pool
    (``None``: the process default, see :meth:`SolveService.resolve_workers
    <repro.engine.service.SolveService.resolve_workers>`); every schedule
    returns bitwise-identical grids.
    """
    prices = _axis(prices, "prices")
    caps = _axis(caps, "caps")
    service = service if service is not None else default_service()
    tasks = [
        cap_row_task(market, prices, float(q), warm_start=warm_start)
        for q in caps
    ]
    rows = tuple(service.map(tasks, workers=workers))
    return EquilibriumGrid(prices=prices, caps=caps, results=rows)


def certify_grid(market: Market, grid: EquilibriumGrid) -> np.ndarray:
    """Re-certify every grid equilibrium, one batched check per price.

    Returns the ``[cap, price]`` matrix of natural-map KKT residuals
    ``‖s − Π_{[0,q]}(s + u(s))‖_∞`` computed through the vectorized
    marginal-utility path — an independent (array-native) audit of the
    scalarly certified solves. Marginal utilities do not depend on the
    cap, so all cap rows of one price column share a single batched
    evaluation; only the box projection is per-row.
    """
    residuals = np.empty((grid.caps.size, grid.prices.size))
    cap_bounds = grid.caps[:, None]
    for j, p in enumerate(grid.prices):
        game = SubsidizationGame(
            market.with_price(float(p)), float(np.max(grid.caps))
        )
        profiles = np.stack(
            [grid.results[k][j].subsidies for k in range(grid.caps.size)]
        )
        u = game.marginal_utilities_batch(profiles)
        residuals[:, j] = natural_map_residuals(profiles, u, cap_bounds)
    return residuals
