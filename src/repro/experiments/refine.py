"""Adaptive grid refinement for price/policy sweeps.

A uniform fine grid spends most of its equilibrium solves where the
economics is flat: revenue and welfare are smooth in the ISP price except
near the partition-change kinks (Theorem 6's ``N−/N+/Ñ`` boundaries) and
the revenue peak. :func:`refine_grid` starts from a coarse price axis,
solves it, and then repeatedly *bisects only the interesting intervals* —
those where the normalized welfare/revenue curvature exceeds a threshold,
or where the equilibrium's bound partition changes across the interval.
After ``levels`` rounds the flagged regions reach the
resolution of a uniform grid ``2**levels`` times finer, at a fraction of
the solves.

Bitwise reproducibility
-----------------------
Warm starts chain *along* a cap row and change result bits, so a refined
axis mixing chained coarse rows with cold midpoint columns could never
match a uniform fine grid bitwise. Refinement therefore solves every node
*pointwise* (single-price cap-row tasks, ``warm_start=False``) — the same
content-keyed tasks :func:`uniform_pointwise_grid` issues for a uniform
axis. Consequences:

* a refined cell is bitwise-equal to the uniform pointwise grid's value
  at the same ``(price, cap)`` coordinate (they are the *same* task key);
* refined results are content-keyed through the same store as everything
  else, so a warm replay of a refined sweep still reports ``computed == 0``.

Inserted midpoints are rounded to 10 decimals, matching the house
convention for figure axes (``np.round(np.linspace(...), 10)``), so
refined nodes land exactly on the corresponding uniform fine axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.characterization import ProviderPartition, classify_providers
from repro.core.game import SubsidizationGame
from repro.engine.grid_engine import EquilibriumGrid, cap_row_task
from repro.engine.service import SolveService, default_service
from repro.exceptions import ModelError
from repro.providers.market import Market

__all__ = [
    "REFINE_DEFAULTS",
    "RefineSpec",
    "RefinementReport",
    "refine_grid",
    "uniform_pointwise_grid",
]

#: Quantities whose curvature can flag an interval for refinement.
_REFINE_QUANTITIES = {
    "revenue": lambda eq: eq.state.revenue,
    "welfare": lambda eq: eq.state.welfare,
    "aggregate_throughput": lambda eq: eq.state.aggregate_throughput,
    "utilization": lambda eq: eq.state.utilization,
}

#: The refinement parameter defaults, in one place: the spec constructor
#: and the CLI flags both resolve through them.
REFINE_DEFAULTS = {
    "levels": 2,
    "threshold": 0.002,
    "quantities": ("welfare", "revenue"),
    "breakpoints": True,
    "boundary_tol": 1e-7,
}

#: Inserted midpoints round to this many decimals — the house axis
#: convention (``np.round(np.linspace(...), 10)``) — so refined nodes
#: land exactly on the equivalent uniform fine axis.
_AXIS_DECIMALS = 10


@dataclass(frozen=True)
class RefineSpec:
    """Adaptive-refinement parameters for a ``price``/``grid`` sweep.

    Attributes
    ----------
    levels:
        Bisection rounds. Flagged regions end up at the resolution of a
        uniform axis ``2**levels`` times finer than the coarse one.
    threshold:
        Normalized curvature trigger: an interval is flagged when the
        estimated midpoint interpolation error of any watched quantity,
        relative to that quantity's range over the grid, exceeds this.
    quantities:
        Scalar quantities watched for curvature
        (any of ``revenue``, ``welfare``, ``aggregate_throughput``,
        ``utilization``).
    breakpoints:
        Also flag intervals across which any cap row's equilibrium bound
        partition changes (Theorem 6's ``N−/N+/Ñ`` classification), so
        Theorem 6 breakpoints refine even where curvature looks flat.
    boundary_tol:
        Bound-closeness tolerance of the partition classification.
    """

    levels: int = REFINE_DEFAULTS["levels"]
    threshold: float = REFINE_DEFAULTS["threshold"]
    quantities: tuple[str, ...] = REFINE_DEFAULTS["quantities"]
    breakpoints: bool = REFINE_DEFAULTS["breakpoints"]
    boundary_tol: float = REFINE_DEFAULTS["boundary_tol"]

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ModelError(f"levels must be at least 1, got {self.levels}")
        if not self.threshold > 0.0:
            raise ModelError(
                f"threshold must be positive, got {self.threshold}"
            )
        object.__setattr__(self, "quantities", tuple(self.quantities))
        unknown = [q for q in self.quantities if q not in _REFINE_QUANTITIES]
        if unknown:
            raise ModelError(
                f"unknown refinement quantities {unknown}; choose from "
                f"{sorted(_REFINE_QUANTITIES)}"
            )
        if not self.quantities and not self.breakpoints:
            raise ModelError(
                "refinement needs at least one trigger: a watched quantity "
                "or breakpoints=True"
            )
        if not self.boundary_tol > 0.0:
            raise ModelError(
                f"boundary_tol must be positive, got {self.boundary_tol}"
            )


@dataclass(frozen=True)
class RefinementReport:
    """Accounting of one :func:`refine_grid` run.

    Attributes
    ----------
    coarse_points:
        Price-axis size of the coarse pass.
    final_points:
        Price-axis size of the refined grid.
    levels_run:
        Bisection rounds actually executed (refinement stops early once
        nothing is flagged).
    inserted_per_level:
        Midpoints inserted by each executed round.
    node_solves:
        Equilibrium nodes issued as solve tasks (``points × caps``) — the
        number a uniform grid of the same coverage would pay, and the
        figure to compare against ``uniform points × caps``. Warm cache
        tiers can resolve any of them without computing.
    """

    coarse_points: int
    final_points: int
    levels_run: int
    inserted_per_level: tuple[int, ...]
    node_solves: int

    def as_dict(self) -> dict:
        return {
            "coarse_points": self.coarse_points,
            "final_points": self.final_points,
            "levels_run": self.levels_run,
            "inserted_per_level": list(self.inserted_per_level),
            "node_solves": self.node_solves,
        }


def _point_task(market: Market, price: float, cap: float):
    """The single-node solve task: a one-price cap row, cold-started.

    ``warm_start=False`` with one price means no warm chain at all, so
    the node's bits do not depend on which axis it was solved for —
    the property that makes refined and uniform grids interchangeable.
    """
    return cap_row_task(
        market, np.array([price]), float(cap), warm_start=False
    )


def _solve_columns(
    market: Market,
    prices: list[float],
    caps: np.ndarray,
    columns: dict,
    service: SolveService,
    workers: int | None,
) -> int:
    """Solve every (price, cap) node of the new columns; fill ``columns``."""
    tasks = [_point_task(market, p, q) for p in prices for q in caps]
    rows = service.map(tasks, workers=workers)
    for i, p in enumerate(prices):
        columns[p] = [
            rows[i * caps.size + k][0] for k in range(caps.size)
        ]
    return len(tasks)


def _curvature_flags(
    axis: np.ndarray, values: np.ndarray, threshold: float
) -> np.ndarray:
    """Boolean flags per interval from one quantity's ``[cap, price]`` matrix.

    Estimates each interval's midpoint interpolation error from the
    second divided differences at its endpoints (``|f''| w² / 8``),
    normalized by the quantity's range over the whole matrix, and flags
    intervals whose worst cap row exceeds ``threshold``.
    """
    n = axis.size
    flags = np.zeros(n - 1, dtype=bool)
    scale = float(np.max(values) - np.min(values))
    if not scale > 0.0:
        return flags
    h = np.diff(axis)  # interval widths, length n-1
    for row in values:
        slopes = np.diff(row) / h
        # Second divided difference at each interior node.
        d2 = 2.0 * np.diff(slopes) / (h[:-1] + h[1:])
        mag = np.abs(d2)
        # Each interval borrows the worst estimate among its endpoints'
        # interior nodes (boundary intervals have only one).
        near = np.zeros(n - 1)
        near[:-1] = mag
        near[1:] = np.maximum(near[1:], mag)
        err = near * h * h / 8.0
        flags |= err / scale > threshold
    return flags


def _partition_flags(
    market: Market,
    axis: np.ndarray,
    columns: dict,
    caps: np.ndarray,
    boundary_tol: float,
    partition_cache: dict,
) -> np.ndarray:
    """Flag intervals across which any cap row's bound partition changes.

    Classifies already-solved nodes (Theorem 6's ``N−/N+/Ñ`` partition)
    — no extra equilibrium solves.
    """

    def partition_at(p: float, k: int) -> ProviderPartition:
        node = (p, k)
        if node not in partition_cache:
            game = SubsidizationGame(
                market.with_price(float(p)), float(caps[k])
            )
            partition_cache[node] = classify_providers(
                game, columns[p][k].subsidies, boundary_tol=boundary_tol
            )
        return partition_cache[node]

    flags = np.zeros(axis.size - 1, dtype=bool)
    for j in range(axis.size - 1):
        lo, hi = float(axis[j]), float(axis[j + 1])
        for k in range(caps.size):
            if partition_at(lo, k) != partition_at(hi, k):
                flags[j] = True
                break
    return flags


def _assemble(
    axis: np.ndarray, caps: np.ndarray, columns: dict
) -> EquilibriumGrid:
    rows = tuple(
        tuple(columns[float(p)][k] for p in axis) for k in range(caps.size)
    )
    return EquilibriumGrid(prices=axis, caps=caps, results=rows)


def _validate_axes(prices, caps) -> tuple[np.ndarray, np.ndarray]:
    prices = np.unique(np.asarray(prices, dtype=float))
    caps = np.asarray(caps, dtype=float)
    if prices.ndim != 1 or prices.size < 2:
        raise ModelError(
            "refinement needs a 1-D price axis with at least two points"
        )
    if caps.ndim != 1 or caps.size == 0:
        raise ModelError("caps must be a non-empty 1-D array")
    return prices, caps


def uniform_pointwise_grid(
    market: Market,
    prices,
    caps,
    *,
    service: SolveService | None = None,
    workers: int | None = None,
) -> EquilibriumGrid:
    """Solve a uniform grid with the refinement's pointwise node tasks.

    The reference :func:`refine_grid` is measured against: same task keys
    (so the two share cache/store entries node for node), no warm-start
    chains, every node solved. ``refined.at(...)`` is bitwise-equal to
    this grid's value wherever their axes coincide.
    """
    prices, caps = _validate_axes(prices, caps)
    svc = service if service is not None else default_service()
    columns: dict = {}
    _solve_columns(market, [float(p) for p in prices], caps, columns, svc, workers)
    return _assemble(prices, caps, columns)


def refine_grid(
    market: Market,
    prices,
    caps,
    *,
    spec: RefineSpec | None = None,
    service: SolveService | None = None,
    workers: int | None = None,
) -> tuple[EquilibriumGrid, RefinementReport]:
    """Adaptively refine a (price × policy) grid from a coarse price axis.

    Runs the coarse pass, then up to ``spec.levels`` bisection rounds:
    each round flags the price intervals whose watched-quantity curvature
    or partition change (see :class:`RefineSpec`) warrants a closer look,
    inserts their midpoints as new grid columns, and solves only those.
    All nodes are pointwise tasks on ``service`` (default: the shared
    service), so results are content-keyed through the same store as any
    other sweep and a warm replay computes nothing.

    Returns the refined grid — a rectangular :class:`EquilibriumGrid`
    over the union axis, directly usable by panels/CSV writers — and a
    :class:`RefinementReport` of the solve accounting.
    """
    spec = spec if spec is not None else RefineSpec()
    prices, caps = _validate_axes(prices, caps)
    svc = service if service is not None else default_service()

    axis = [float(p) for p in prices]
    columns: dict = {}
    partition_cache: dict = {}
    node_solves = _solve_columns(market, axis, caps, columns, svc, workers)
    coarse_points = len(axis)

    inserted_per_level: list[int] = []
    levels_run = 0
    for _ in range(spec.levels):
        levels_run += 1
        axis_arr = np.asarray(axis)
        flags = np.zeros(axis_arr.size - 1, dtype=bool)
        if spec.quantities:
            for name in spec.quantities:
                extract = _REFINE_QUANTITIES[name]
                values = np.array(
                    [
                        [float(extract(columns[p][k])) for p in axis]
                        for k in range(caps.size)
                    ]
                )
                flags |= _curvature_flags(axis_arr, values, spec.threshold)
        if spec.breakpoints:
            flags |= _partition_flags(
                market, axis_arr, columns, caps,
                spec.boundary_tol, partition_cache,
            )
        midpoints = [
            float(np.round(0.5 * (axis[j] + axis[j + 1]), _AXIS_DECIMALS))
            for j in np.flatnonzero(flags)
        ]
        midpoints = [p for p in midpoints if p not in columns]
        if not midpoints:
            levels_run -= 1
            break
        node_solves += _solve_columns(
            market, midpoints, caps, columns, svc, workers
        )
        inserted_per_level.append(len(midpoints))
        axis = sorted(axis + midpoints)

    grid = _assemble(np.asarray(axis), caps, columns)
    report = RefinementReport(
        coarse_points=coarse_points,
        final_points=len(axis),
        levels_run=levels_run,
        inserted_per_level=tuple(inserted_per_level),
        node_solves=node_solves,
    )
    return grid, report
