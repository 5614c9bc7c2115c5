"""The parallel (price × policy) grid engine, built on the solve service.

Every §5 figure lives on the same grid: ISP price ``p`` on the x-axis, one
curve per policy cap ``q``. The rows of that grid are *independent* solve
chains — warm starts flow along the price axis within a row, never across
rows — which makes cap rows the natural unit of work. :class:`GridEngine`
expresses each row as a content-keyed
:class:`~repro.engine.service.SolveTask` and hands the batch to a
:class:`~repro.engine.service.SolveService`, which schedules uncached rows
across a ``concurrent.futures`` worker pool and memoizes results through
its memory/disk tiers. Because each row's computation is a pure function
of ``(market, prices, cap)``, every schedule — sequential, pooled, or
cache-fed — returns bit-for-bit the same equilibria.

The same ``"cap-row"`` tasks are issued by the continuation tracer and the
analysis sweeps, so e.g. a path trace along a figure's price axis resolves
entirely from the rows the figure already solved.
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
from repro.engine.cache import SolveCache, grid_key, market_fingerprint
from repro.engine.service import SolveService, SolveTask
from repro.exceptions import ModelError
from repro.providers.market import Market

__all__ = [
    "EquilibriumGrid",
    "GridEngine",
    "cap_row_task",
    "solve_cap_row",
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
    continuation traces all build their row tasks here, which is what lets
    them share cache and store entries.
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


class GridEngine:
    """Schedules, parallelizes and caches (price × policy) grid solves.

    Row-parallelism is chosen per call (``solve_grid(..., workers=)``);
    parallel and sequential schedules return bitwise-identical grids.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.engine.cache.SolveCache` memoizing whole
        solved *grid objects* (hits return the previously assembled grid,
        identity included).
    service:
        The :class:`~repro.engine.service.SolveService` resolving the
        engine's row tasks. ``None`` builds a private bare service
        (compute-only, no cache tiers) so ad-hoc engines keep their
        historical cold-solve semantics; pass
        :func:`repro.engine.service.default_service` to share rows with
        the rest of the process and any configured persistent store.
    """

    def __init__(
        self,
        *,
        cache: SolveCache | None = None,
        service: SolveService | None = None,
    ) -> None:
        self._cache = cache
        self._service = service if service is not None else SolveService()

    @property
    def cache(self) -> SolveCache | None:
        """The engine's grid-object cache (``None`` when disabled)."""
        return self._cache

    @property
    def service(self) -> SolveService:
        """The solve service resolving this engine's row tasks."""
        return self._service

    def price_sweep(
        self,
        market: Market,
        prices,
        *,
        cap: float = 0.0,
        warm_start: bool = True,
    ) -> list[EquilibriumResult]:
        """Equilibria along a price axis under a fixed policy cap.

        A single cap-row task routed through the service, so repeated
        sweeps (and grids sharing the row) resolve from cache.
        """
        prices = np.asarray(prices, dtype=float)
        return list(
            self._service.run(
                cap_row_task(market, prices, cap, warm_start=warm_start)
            )
        )

    def solve_grid(
        self,
        market: Market,
        prices,
        caps,
        *,
        warm_start: bool = True,
        workers: int | None = None,
    ) -> EquilibriumGrid:
        """Solve (or fetch) the full (policy × price) equilibrium grid.

        ``workers`` spreads the cap rows over the service's worker pool
        (``None``: the process default, see
        :meth:`SolveService.resolve_workers
        <repro.engine.service.SolveService.resolve_workers>`).
        """
        prices = np.asarray(prices, dtype=float)
        caps = np.asarray(caps, dtype=float)
        if prices.ndim != 1 or prices.size == 0:
            raise ModelError("prices must be a non-empty 1-D array")
        if caps.ndim != 1 or caps.size == 0:
            raise ModelError("caps must be a non-empty 1-D array")
        key = None
        if self._cache is not None:
            key = grid_key(market, prices, caps, warm_start=warm_start)
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        tasks = [
            cap_row_task(market, prices, float(q), warm_start=warm_start)
            for q in caps
        ]
        rows = tuple(self._service.map(tasks, workers=workers))
        grid = EquilibriumGrid(prices=prices, caps=caps, results=rows)
        if self._cache is not None and key is not None:
            self._cache.put(key, grid)
        return grid

    def certify_grid(self, market: Market, grid: EquilibriumGrid) -> np.ndarray:
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
