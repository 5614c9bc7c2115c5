"""The sweep-kind tables: what the pipeline and the campaign driver decide
per kind.

:data:`SWEEP_KINDS` holds the sweeps an experiment
(:class:`~repro.experiments.pipeline.ExperimentSpec`) runs, each a
:class:`SweepKind` that owns its solve and its figure layout:

``"price"``
    Zero-subsidy price sweep (§3): a single-row grid at cap ``q = 0``,
    bitwise-identical to direct ``market.solve()`` calls.
``"grid"``
    Full (price × policy) equilibrium grid (§5).

:data:`ROW_KINDS` holds the kinds a campaign row
(:class:`~repro.campaigns.CampaignRow`) runs, each a :class:`RowKind`
that owns its solve, its warehouse metric columns and the function
computing them. ``price`` and ``grid`` rows share the figure sweeps'
solves; the other two return their solver's own result:

``"dynamics"``
    The market trajectory the scenario's ``repro-dynamics/1`` metadata
    declares (§6 time dynamics).
``"market_structure"``
    The scenario's N-carrier oligopoly price competition under its
    metadata settings (§6 carrier-count conjecture).

Every kind solves on the :class:`~repro.engine.SolveService` it is
handed, so any configured persistent store makes every kind resumable.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.analysis.series import FigureData, Series
from repro.competition.oligopoly import (
    OligopolyCompetitionResult,
    OligopolyGame,
    competition_settings,
    solve_oligopoly_competition,
)
from repro.core.equilibrium import EquilibriumResult
from repro.engine import EquilibriumGrid, SolveService, solve_grid
from repro.exceptions import ModelError
from repro.experiments.refine import refine_grid
from repro.simulation.trajectory import (
    DynamicsTrajectory,
    dynamics_settings,
    run_trajectory,
)

if TYPE_CHECKING:  # pragma: no cover — annotations only
    from repro.experiments.pipeline import PanelSpec
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "SCALAR_QUANTITIES",
    "PROVIDER_QUANTITIES",
    "CAMPAIGN_METRICS",
    "SWEEP_METRICS",
    "CAMPAIGN_SWEEPS",
    "SweepKind",
    "SWEEP_KINDS",
    "RowKind",
    "ROW_KINDS",
    "SweepView",
]

#: Scalar quantities a panel or check can read off each equilibrium.
SCALAR_QUANTITIES: Mapping[str, Callable[[EquilibriumResult], float]] = {
    "revenue": lambda eq: eq.state.revenue,
    "welfare": lambda eq: eq.state.welfare,
    "aggregate_throughput": lambda eq: eq.state.aggregate_throughput,
    "utilization": lambda eq: eq.state.utilization,
    "kkt_residual": lambda eq: eq.kkt_residual,
}

#: Per-CP vector quantities a panel or check can read off each equilibrium.
PROVIDER_QUANTITIES: Mapping[str, Callable[[EquilibriumResult], np.ndarray]] = {
    "subsidies": lambda eq: eq.subsidies,
    "populations": lambda eq: eq.state.populations,
    "throughputs": lambda eq: eq.state.throughputs,
    "utilities": lambda eq: eq.state.utilities,
    "rates": lambda eq: eq.state.rates,
    "effective_prices": lambda eq: eq.state.effective_prices,
}

#: Every metric a campaign row can emit, in column order, with the
#: one-line meaning the CLI and docs surface.
CAMPAIGN_METRICS: Mapping[str, str] = MappingProxyType(
    {
        "welfare": "welfare W (at p*, final period, or equilibrium)",
        "revenue": "ISP revenue R (at p* or final period)",
        "utilization": "access utilization u at the revenue-optimal node",
        "aggregate_throughput": (
            "aggregate throughput at the revenue-optimal node"
        ),
        "price_star": "revenue-maximizing price p*",
        "cap_star": "policy level q at the revenue-optimal node",
        "welfare_max": "maximum welfare over the solved grid",
        "welfare_mean": "mean welfare over the solved grid",
        "kkt_max": "worst KKT residual over the solved grid",
        "welfare_min": "minimum welfare over the trajectory",
        "adoption_final": "total subscribed population at the horizon",
        "capacity_final": "access capacity at the horizon",
        "survived": (
            "1.0 if the trajectory stayed finite with positive adoption"
        ),
        "industry_revenue": "total carrier revenue at the price equilibrium",
        "mean_price": "mean equilibrium carrier price",
        "mean_utilization": "mean carrier utilization at equilibrium",
        "hhi": "Herfindahl concentration of equilibrium shares",
        "carriers": "carrier count N of the oligopoly row",
    }
)


class SweepView:
    """Solved (price × policy) sweep with cached quantity extraction.

    Scalar quantities come out as ``[cap, price]`` matrices, provider
    quantities as ``[cap, price, cp]`` arrays. Price-sweep experiments have
    a single cap row; :meth:`line` / :meth:`provider_line` read it directly.
    """

    def __init__(self, scenario: ScenarioSpec, grid: EquilibriumGrid) -> None:
        self.scenario = scenario
        self.grid = grid
        self.prices = grid.prices
        self.caps = grid.caps
        self.market = scenario.market
        self._cache: dict[tuple[str, str], np.ndarray] = {}

    def _extract(self, what: str, table: Mapping, read, quantity: str):
        if (what, quantity) not in self._cache:
            if quantity not in table:
                raise ModelError(
                    f"unknown {what} quantity {quantity!r}; choose from "
                    f"{sorted(table)}"
                )
            self._cache[what, quantity] = read(table[quantity])
        return self._cache[what, quantity]

    def scalar(self, quantity: str) -> np.ndarray:
        """``[cap, price]`` matrix of a scalar quantity."""
        return self._extract(
            "scalar", SCALAR_QUANTITIES, self.grid.quantity, quantity
        )

    def provider(self, quantity: str) -> np.ndarray:
        """``[cap, price, cp]`` array of a per-CP quantity."""
        return self._extract(
            "provider",
            PROVIDER_QUANTITIES,
            self.grid.provider_quantity,
            quantity,
        )

    def line(self, quantity: str) -> np.ndarray:
        """``[price]`` vector of a scalar quantity's first cap row."""
        return self.scalar(quantity)[0]

    def provider_line(self, quantity: str) -> np.ndarray:
        """``[price, cp]`` matrix of a per-CP quantity's first cap row."""
        return self.provider(quantity)[0]

    def at(self, cap_index: int, price_index: int) -> EquilibriumResult:
        """The raw equilibrium at one grid node."""
        return self.grid.at(cap_index, price_index)


# ----------------------------------------------------------------------
# solves: (scenario, service, **options) -> solved result
# ----------------------------------------------------------------------
def _solve_grid(
    scn: ScenarioSpec,
    service: SolveService,
    *,
    workers: int | None = None,
    prices=None,
    caps=None,
    refine=None,
) -> SweepView:
    """Solve the (price × policy) grid; ``prices``/``caps`` override the
    scenario's axes and ``refine`` switches to adaptive refinement."""
    price_axis = np.asarray(
        scn.prices if prices is None else prices, dtype=float
    )
    cap_axis = np.asarray(
        scn.policy_levels if caps is None else caps, dtype=float
    )
    if refine is not None:
        # Adaptive path: coarse pass + curvature/breakpoint-driven
        # bisection, pointwise tasks on the same service (same store,
        # same resumability; see repro.experiments.refine).
        solved, _ = refine_grid(
            scn.market,
            price_axis,
            cap_axis,
            spec=refine,
            service=service,
            workers=workers,
        )
    else:
        solved = solve_grid(
            scn.market, price_axis, cap_axis, service=service, workers=workers
        )
    return SweepView(scn, solved)


def _solve_price(
    scn: ScenarioSpec, service: SolveService, **options: Any
) -> SweepView:
    """The grid solve on the single cap row ``q = 0``."""
    options["caps"] = (0.0,)
    return _solve_grid(scn, service, **options)


def _solve_dynamics(
    scn: ScenarioSpec, service: SolveService, **_: Any
) -> DynamicsTrajectory:
    """Run the trajectory the scenario's metadata declares.

    Malformed metadata (a scenario file is user input) raises
    :class:`~repro.exceptions.ModelError` before any solve runs; plain
    scenarios run under the defaults.
    """
    return run_trajectory(
        scn.market, dynamics_settings(scn.metadata), service=service
    )


def _solve_market_structure(
    scn: ScenarioSpec, service: SolveService, **_: Any
) -> OligopolyCompetitionResult:
    """Solve the scenario's carrier price competition.

    Competition parameters come from the scenario's metadata, so
    malformed metadata raises :class:`~repro.exceptions.ModelError`
    before any solve runs.
    """
    settings = competition_settings(scn.metadata)
    return solve_oligopoly_competition(
        OligopolyGame.from_scenario(scn, service=service),
        price_range=settings.price_range,
        grid_points=settings.grid_points,
        xtol=settings.xtol,
        policy=settings.policy,
    )


# ----------------------------------------------------------------------
# row metrics: solved result -> {metric: value}
# ----------------------------------------------------------------------
def _grid_metrics(view: SweepView) -> dict[str, float]:
    """The revenue-optimal node of the grid plus grid-level aggregates."""
    revenue = view.scalar("revenue")
    welfare = view.scalar("welfare")
    kkt = view.scalar("kkt_residual")
    k, j = np.unravel_index(int(np.argmax(revenue)), revenue.shape)
    star = view.at(int(k), int(j))
    return {
        "welfare": float(welfare[k, j]),
        "revenue": float(revenue[k, j]),
        "utilization": float(star.state.utilization),
        "aggregate_throughput": float(star.state.aggregate_throughput),
        "price_star": float(view.prices[j]),
        "cap_star": float(view.caps[k]),
        "welfare_max": float(np.max(welfare)),
        "welfare_mean": float(np.mean(welfare)),
        "kkt_max": float(np.max(kkt)),
    }


def _dynamics_metrics(trajectory: DynamicsTrajectory) -> dict[str, float]:
    """End-of-horizon outcomes plus a survival flag."""
    welfares = np.asarray(trajectory.welfares, dtype=float)
    revenues = np.asarray(trajectory.revenues, dtype=float)
    adoption = trajectory.adoption()
    finite = bool(
        np.all(np.isfinite(welfares))
        and np.all(np.isfinite(revenues))
        and np.all(np.isfinite(adoption))
    )
    return {
        "welfare": float(welfares[-1]),
        "welfare_min": float(np.min(welfares)),
        "revenue": float(revenues[-1]),
        "adoption_final": float(adoption[-1]),
        "capacity_final": float(trajectory.capacities[-1]),
        "survived": 1.0 if finite and adoption[-1] > 0.0 else 0.0,
    }


def _structure_metrics(
    result: OligopolyCompetitionResult,
) -> dict[str, float]:
    """The oligopoly equilibrium and its concentration."""
    state = result.state
    shares = np.asarray(state.shares, dtype=float)
    return {
        "welfare": float(state.welfare),
        "industry_revenue": float(state.total_revenue),
        "mean_price": float(state.mean_price),
        "mean_utilization": float(state.mean_utilization),
        "hhi": float(np.sum(shares**2)),
        "carriers": float(shares.size),
    }


# ----------------------------------------------------------------------
# layouts: (panel, view) -> [(figure_id, title, series)]
# ----------------------------------------------------------------------
def _cap_series(view: SweepView, matrix: np.ndarray) -> tuple[Series, ...]:
    return tuple(
        Series(f"q={view.caps[k]:g}", matrix[k]) for k in range(view.caps.size)
    )


def _line_layout(panel: PanelSpec, view: SweepView) -> list[tuple]:
    """One figure on the ``q = 0`` row; per-CP panels get a series per CP."""
    if panel.per_provider:
        values = view.provider_line(panel.quantity)  # [price, cp]
        series = tuple(
            Series(name, values[:, i])
            for i, name in enumerate(view.market.provider_names())
        )
    else:
        name = panel.series_name or panel.quantity
        series = (Series(name, view.line(panel.quantity)),)
    return [(panel.figure_id, panel.title, series)]


def _grid_layout(panel: PanelSpec, view: SweepView) -> list[tuple]:
    """A ``q=<cap>`` series per policy level; per-CP panels get a figure
    per CP (the paper's 2×4 layouts)."""
    if not panel.per_provider:
        matrix = view.scalar(panel.quantity)  # [cap, price]
        return [(panel.figure_id, panel.title, _cap_series(view, matrix))]
    values = view.provider(panel.quantity)  # [cap, price, cp]
    return [
        (
            f"{panel.figure_id}-{name}",
            panel.title.format(name=name),
            _cap_series(view, values[:, :, i]),
        )
        for i, name in enumerate(view.market.provider_names())
    ]


@dataclass(frozen=True)
class SweepKind:
    """A sweep an experiment runs: how it solves and lays out its panels.

    Attributes
    ----------
    name:
        The kind's key in :data:`SWEEP_KINDS` (``ExperimentSpec.sweep``).
    solve:
        ``solve(scenario, service, *, workers, prices, caps, refine) ->
        SweepView`` on the :class:`~repro.engine.SolveService`
        ``service``: worker count, price/cap axis overrides and an
        optional adaptive-refinement spec.
    layout:
        ``layout(panel, view)``: one ``(figure_id, title, series)`` tuple
        per figure the panel derives, every one against the price axis.
    """

    name: str
    solve: Callable[..., SweepView]
    layout: Callable[..., list[tuple]]

    def figures(self, panel: PanelSpec, view: SweepView) -> list[FigureData]:
        """The figures one panel derives from a solved view."""
        return [
            FigureData(
                figure_id=figure_id,
                title=title,
                x_label="p",
                y_label=panel.y_label,
                x=view.prices,
                series=series,
                notes=panel.notes,
            )
            for figure_id, title, series in self.layout(panel, view)
        ]


#: The experiment sweeps, in the order the docs list them.
SWEEP_KINDS: Mapping[str, SweepKind] = MappingProxyType(
    {
        kind.name: kind
        for kind in (
            SweepKind("price", _solve_price, _line_layout),
            SweepKind("grid", _solve_grid, _grid_layout),
        )
    }
)


@dataclass(frozen=True)
class RowKind:
    """A campaign row kind: how it solves and what it lands.

    Attributes
    ----------
    name:
        The kind's key in :data:`ROW_KINDS` (``CampaignSpec.sweep``).
    solve:
        ``solve(scenario, service, *, workers=None)``: solves one row's
        scenario on the :class:`~repro.engine.SolveService` ``service``.
    metrics:
        The warehouse metric columns of the kind's rows, in column order.
    row_metrics:
        ``row_metrics(solved) -> {metric: value}`` for those columns.
    """

    name: str
    solve: Callable[..., Any]
    metrics: tuple[str, ...]
    row_metrics: Callable[[Any], dict[str, float]]


_GRID_METRICS = (
    "welfare", "revenue", "utilization", "aggregate_throughput", "price_star",
    "cap_star", "welfare_max", "welfare_mean", "kkt_max",
)

#: The campaign row kinds, in the order the CLI lists them.
ROW_KINDS: Mapping[str, RowKind] = MappingProxyType(
    {
        kind.name: kind
        for kind in (
            RowKind("price", _solve_price, _GRID_METRICS, _grid_metrics),
            RowKind("grid", _solve_grid, _GRID_METRICS, _grid_metrics),
            RowKind(
                "dynamics",
                _solve_dynamics,
                (
                    "welfare", "welfare_min", "revenue", "adoption_final",
                    "capacity_final", "survived",
                ),
                _dynamics_metrics,
            ),
            RowKind(
                "market_structure",
                _solve_market_structure,
                (
                    "welfare", "industry_revenue", "mean_price",
                    "mean_utilization", "hhi", "carriers",
                ),
                _structure_metrics,
            ),
        )
    }
)

#: Warehouse columns per row kind.
SWEEP_METRICS: Mapping[str, tuple[str, ...]] = MappingProxyType(
    {name: kind.metrics for name, kind in ROW_KINDS.items()}
)

#: The sweep kinds a campaign row can run, in CLI order.
CAMPAIGN_SWEEPS: tuple[str, ...] = tuple(ROW_KINDS)
