"""The sweep-kind table: one entry per axis the paper reads its results over.

An experiment (:class:`~repro.experiments.pipeline.ExperimentSpec`) and a
campaign row (:class:`~repro.campaigns.CampaignRow`) both name a *sweep
kind*. :data:`SWEEP_KINDS` maps each name to a :class:`SweepKind` that
owns everything decided per kind: the panel quantities it accepts, its
x-axis label, how it solves, how its panels become figures and, for the
kinds a campaign row can run, its warehouse metric columns and the
function computing them. The pipeline and the campaign driver read this
table instead of branching on the name, and they share one solve per
kind.

``"price"``
    Zero-subsidy price sweep (§3): a single-row grid at cap ``q = 0``,
    bitwise-identical to direct ``market.solve()`` calls.
``"grid"``
    Full (price × policy) equilibrium grid (§5).
``"dynamics"``
    The market trajectory the scenario's ``repro-dynamics/1`` metadata
    declares (§6 time dynamics), against the period ``t``.
``"market_structure"``
    N-carrier oligopoly price competition under the scenario's metadata
    settings (§6 carrier-count conjecture), against ``N``.
``"campaign"``
    A mass scenario campaign (:mod:`repro.campaigns`) run or resumed
    against the warehouse next to the solve store, against the row index.

Every kind solves on the :class:`~repro.engine.SolveService` it is
handed, so any configured persistent store makes every kind resumable.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Mapping,
    NamedTuple,
)

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
    from repro.campaigns.spec import CampaignSpec
    from repro.experiments.pipeline import PanelSpec
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "SCALAR_QUANTITIES",
    "PROVIDER_QUANTITIES",
    "MARKET_STRUCTURE_QUANTITIES",
    "DYNAMICS_QUANTITIES",
    "METRICS",
    "CAMPAIGN_METRICS",
    "CAMPAIGN_QUANTITIES",
    "SWEEP_METRICS",
    "CAMPAIGN_SWEEPS",
    "Metric",
    "SweepKind",
    "SWEEP_KINDS",
    "SweepView",
    "AxisView",
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

#: Industry-level quantities a ``market_structure`` panel or check can read
#: off each carrier count's solved price competition.
MARKET_STRUCTURE_QUANTITIES: Mapping[
    str, Callable[[OligopolyCompetitionResult], float]
] = {
    "industry_revenue": lambda r: r.state.total_revenue,
    "industry_welfare": lambda r: r.state.welfare,
    "mean_price": lambda r: r.state.mean_price,
    "mean_utilization": lambda r: r.state.mean_utilization,
    "price_dispersion": lambda r: (
        max(r.state.prices) - min(r.state.prices)
    ),
    "competition_sweeps": lambda r: float(r.iterations),
    "equilibrium_solves": lambda r: float(r.total_solves),
}

#: Trajectory quantities a ``dynamics`` panel or check can read off the
#: solved trajectory — one value per period, aligned with the step axis.
DYNAMICS_QUANTITIES: Mapping[str, Callable[[DynamicsTrajectory], np.ndarray]] = {
    "adoption": lambda tr: tr.adoption(),
    "utilization": lambda tr: tr.utilizations,
    "industry_revenue": lambda tr: tr.revenues,
    "welfare": lambda tr: tr.welfares,
    "aggregate_throughput": lambda tr: tr.aggregate_throughputs(),
    "capacity": lambda tr: tr.capacities,
    "price": lambda tr: tr.prices,
    "mean_subsidy": lambda tr: tr.subsidies.mean(axis=1),
}


class Metric(NamedTuple):
    """One warehouse metric: its meaning and its campaign panel labels."""

    meaning: str
    title: str
    y_label: str


#: Every metric a campaign row can emit, in column order: name, meaning,
#: campaign panel title and y-axis label.
METRICS: Mapping[str, Metric] = MappingProxyType(
    {
        name: Metric(meaning, title, y_label)
        for name, meaning, title, y_label in (
            ("welfare", "welfare W (at p*, final period, or equilibrium)",
             "System welfare W", "W"),
            ("revenue", "ISP revenue R (at p* or final period)",
             "ISP revenue R", "R"),
            ("utilization", "access utilization u at the revenue-optimal node",
             "System utilization φ", "φ"),
            ("aggregate_throughput",
             "aggregate throughput at the revenue-optimal node",
             "Aggregate throughput θ", "θ"),
            ("price_star", "revenue-maximizing price p*",
             "Revenue-optimal price p*", "p*"),
            ("cap_star", "policy level q at the revenue-optimal node",
             "Revenue-optimal policy q", "q"),
            ("welfare_max", "maximum welfare over the solved grid",
             "Grid-max welfare", "W"),
            ("welfare_mean", "mean welfare over the solved grid",
             "Grid-mean welfare", "W"),
            ("kkt_max", "worst KKT residual over the solved grid",
             "Worst KKT residual", "KKT"),
            ("welfare_min", "minimum welfare over the trajectory",
             "Trajectory-min welfare", "W"),
            ("adoption_final", "total subscribed population at the horizon",
             "Final adoption Σm", "Σm"),
            ("capacity_final", "access capacity at the horizon",
             "Final capacity µ", "µ"),
            ("survived",
             "1.0 if the trajectory stayed finite with positive adoption",
             "Survival flag", "survived"),
            ("industry_revenue",
             "total carrier revenue at the price equilibrium",
             "Industry revenue ΣR", "ΣR"),
            ("mean_price", "mean equilibrium carrier price",
             "Mean carrier price", "p"),
            ("mean_utilization", "mean carrier utilization at equilibrium",
             "Mean link utilization φ", "φ"),
            ("hhi", "Herfindahl concentration of equilibrium shares",
             "Herfindahl concentration", "HHI"),
            ("carriers", "carrier count N of the oligopoly row",
             "Carrier count N", "N"),
        )
    }
)

#: Metric name → one-line meaning, as the CLI and docs surface it.
CAMPAIGN_METRICS: Mapping[str, str] = MappingProxyType(
    {name: metric.meaning for name, metric in METRICS.items()}
)

#: The quantities a ``campaign`` panel can read: every warehouse metric
#: (a campaign narrows them to its row kind's columns).
CAMPAIGN_QUANTITIES: Mapping[str, str] = CAMPAIGN_METRICS


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


class AxisView:
    """Solved one-axis sweep with cached quantity extraction.

    The ``dynamics``, ``market_structure`` and ``campaign`` kinds solve to
    one value per point of a single axis — period ``t``, carrier count
    ``N`` or campaign row — so :meth:`scalar` returns ``[point]`` vectors
    aligned with :attr:`x`. The kind's raw solve output stays reachable
    for checks as attributes: ``dynamics`` and ``trajectory``;
    ``results`` (one competition result per carrier count); or
    ``campaign``, ``report`` and ``records`` (the warehouse rows).
    """

    def __init__(
        self,
        kind: str,
        x,
        quantities: Collection[str],
        read: Callable[[str], Any],
        *,
        scenario: ScenarioSpec | None = None,
        **raw: Any,
    ) -> None:
        self.kind = kind
        self.x = np.asarray(x, dtype=float)
        self.scenario = scenario
        self.market = None if scenario is None else scenario.market
        self._quantities = quantities
        self._read = read
        self._cache: dict[str, np.ndarray] = {}
        vars(self).update(raw)

    def scalar(self, quantity: str) -> np.ndarray:
        """``[point]`` vector of one of the kind's quantities."""
        if quantity not in self._cache:
            if quantity not in self._quantities:
                raise ModelError(
                    f"unknown {self.kind} quantity {quantity!r}; choose "
                    f"from {sorted(self._quantities)}"
                )
            self._cache[quantity] = np.asarray(
                self._read(quantity), dtype=float
            )
        return self._cache[quantity]


# ----------------------------------------------------------------------
# solves: (source, service, **options) -> view
# ----------------------------------------------------------------------
def _solve_grid(
    scn: ScenarioSpec,
    service: SolveService,
    *,
    workers: int | None = None,
    prices=None,
    caps=None,
    refine=None,
    **_: Any,
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
) -> AxisView:
    """Run the trajectory the scenario's metadata declares.

    Malformed metadata (a scenario file is user input) raises
    :class:`~repro.exceptions.ModelError` before any solve runs; plain
    scenarios run under the defaults.
    """
    dspec = dynamics_settings(scn.metadata)
    trajectory = run_trajectory(scn.market, dspec, service=service)
    return AxisView(
        "dynamics",
        trajectory.steps,
        DYNAMICS_QUANTITIES,
        lambda q: DYNAMICS_QUANTITIES[q](trajectory),
        scenario=scn,
        dynamics=dspec,
        trajectory=trajectory,
    )


def _solve_market_structure(
    scn: ScenarioSpec,
    service: SolveService,
    *,
    carrier_counts=(None,),
    **_: Any,
) -> AxisView:
    """Solve one price competition per carrier count.

    ``None`` (the default axis) is the scenario's own carrier count.
    Competition parameters come from the scenario's metadata, so
    malformed metadata raises :class:`~repro.exceptions.ModelError`
    before any solve runs. Each count's game is built fresh, so its
    warm-start chain is self-contained and a warm store replays it.
    """
    settings = competition_settings(scn.metadata)
    results = tuple(
        solve_oligopoly_competition(
            OligopolyGame.from_scenario(scn, carriers=n, service=service),
            price_range=settings.price_range,
            grid_points=settings.grid_points,
            xtol=settings.xtol,
            policy=settings.policy,
        )
        for n in carrier_counts
    )
    return AxisView(
        "market_structure",
        [len(result.state.shares) for result in results],
        MARKET_STRUCTURE_QUANTITIES,
        lambda q: [MARKET_STRUCTURE_QUANTITIES[q](r) for r in results],
        scenario=scn,
        results=results,
    )


def _solve_campaign(
    cspec: CampaignSpec,
    service: SolveService,
    *,
    workers: int | None = None,
    **_: Any,
) -> AxisView:
    """Run (or resume) a campaign and load its warehouse rows.

    The warehouse sits next to the service's persistent store, so a
    re-run skips completed rows and a warm full replay solves nothing.
    """
    # The driver imports this module: load it on first use.
    from repro.campaigns.driver import run_campaign, warehouse_for_service

    warehouse = warehouse_for_service(service)
    try:
        report = run_campaign(
            cspec, service=service, warehouse=warehouse, workers=workers
        )
        records = tuple(warehouse.rows(report.campaign))
    finally:
        warehouse.close()
    return AxisView(
        "campaign",
        [record["index"] for record in records],
        SWEEP_KINDS[cspec.sweep].metrics,
        lambda q: [record["metrics"][q] for record in records],
        campaign=cspec,
        report=report,
        records=records,
    )


# ----------------------------------------------------------------------
# row metrics: view -> {metric: value}
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


def _dynamics_metrics(view: AxisView) -> dict[str, float]:
    """End-of-horizon outcomes plus a survival flag."""
    trajectory = view.trajectory
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


def _structure_metrics(view: AxisView) -> dict[str, float]:
    """The oligopoly equilibrium and its concentration."""
    state = view.results[0].state
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
# layouts: (panel, view) -> [(figure_id, title, x, series)]
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
    return [(panel.figure_id, panel.title, view.prices, series)]


def _grid_layout(panel: PanelSpec, view: SweepView) -> list[tuple]:
    """A ``q=<cap>`` series per policy level; per-CP panels get a figure
    per CP (the paper's 2×4 layouts)."""
    if not panel.per_provider:
        matrix = view.scalar(panel.quantity)  # [cap, price]
        series = _cap_series(view, matrix)
        return [(panel.figure_id, panel.title, view.prices, series)]
    values = view.provider(panel.quantity)  # [cap, price, cp]
    return [
        (
            f"{panel.figure_id}-{name}",
            panel.title.format(name=name),
            view.prices,
            _cap_series(view, values[:, :, i]),
        )
        for i, name in enumerate(view.market.provider_names())
    ]


def _axis_layout(panel: PanelSpec, view: AxisView) -> list[tuple]:
    """One single-series figure over the view's axis."""
    series = Series(
        panel.series_name or panel.quantity, view.scalar(panel.quantity)
    )
    return [(panel.figure_id, panel.title, view.x, (series,))]


@dataclass(frozen=True)
class SweepKind:
    """Everything the pipeline and the campaign driver decide per kind.

    Attributes
    ----------
    name:
        The kind's key in :data:`SWEEP_KINDS` (``ExperimentSpec.sweep``,
        ``CampaignSpec.sweep``).
    x_label:
        The x-axis label of the kind's figures.
    quantities:
        The panel quantities the kind accepts.
    solve:
        ``solve(source, service, **options) -> view``: solves a scenario
        (a :class:`~repro.campaigns.CampaignSpec` for ``campaign``) on
        the :class:`~repro.engine.SolveService` ``service``. Options a
        kind does not use are ignored: ``workers``, ``prices``/``caps``
        axis overrides, ``refine``, ``carrier_counts``.
    layout:
        ``layout(panel, view)``: one ``(figure_id, title, x, series)``
        tuple per figure the panel derives.
    options:
        The optional :class:`~repro.experiments.pipeline.ExperimentSpec`
        fields the kind takes (``refine``, ``carrier_counts``,
        ``campaign``); a kind that takes a campaign takes no scenario.
    metrics:
        The warehouse metric columns of a campaign row of this kind, in
        column order (empty: campaigns cannot run the kind).
    row_metrics:
        ``row_metrics(view) -> {metric: value}`` for those columns.
    """

    name: str
    x_label: str
    quantities: Mapping[str, Any]
    solve: Callable[..., Any]
    layout: Callable[..., list[tuple]]
    options: frozenset[str] = frozenset()
    metrics: tuple[str, ...] = ()
    row_metrics: Callable[[Any], dict[str, float]] | None = None

    def figures(self, panel: PanelSpec, view) -> list[FigureData]:
        """The figures one panel derives from a solved view."""
        return [
            FigureData(
                figure_id=figure_id,
                title=title,
                x_label=self.x_label,
                y_label=panel.y_label,
                x=x,
                series=series,
                notes=panel.notes,
            )
            for figure_id, title, x, series in self.layout(panel, view)
        ]


_GRID_QUANTITIES: Mapping[str, Any] = MappingProxyType(
    {**SCALAR_QUANTITIES, **PROVIDER_QUANTITIES}
)

_GRID_METRICS = (
    "welfare", "revenue", "utilization", "aggregate_throughput", "price_star",
    "cap_star", "welfare_max", "welfare_mean", "kkt_max",
)

#: The sweep kinds, in the order the CLI lists them.
SWEEP_KINDS: Mapping[str, SweepKind] = MappingProxyType(
    {
        kind.name: kind
        for kind in (
            SweepKind(
                "price", "p", _GRID_QUANTITIES, _solve_price, _line_layout,
                options=frozenset({"refine"}),
                metrics=_GRID_METRICS,
                row_metrics=_grid_metrics,
            ),
            SweepKind(
                "grid", "p", _GRID_QUANTITIES, _solve_grid, _grid_layout,
                options=frozenset({"refine"}),
                metrics=_GRID_METRICS,
                row_metrics=_grid_metrics,
            ),
            SweepKind(
                "dynamics", "t", DYNAMICS_QUANTITIES, _solve_dynamics,
                _axis_layout,
                metrics=(
                    "welfare", "welfare_min", "revenue", "adoption_final",
                    "capacity_final", "survived",
                ),
                row_metrics=_dynamics_metrics,
            ),
            SweepKind(
                "market_structure", "N", MARKET_STRUCTURE_QUANTITIES,
                _solve_market_structure, _axis_layout,
                options=frozenset({"carrier_counts"}),
                metrics=(
                    "welfare", "industry_revenue", "mean_price",
                    "mean_utilization", "hhi", "carriers",
                ),
                row_metrics=_structure_metrics,
            ),
            SweepKind(
                "campaign", "row", CAMPAIGN_QUANTITIES, _solve_campaign,
                _axis_layout,
                options=frozenset({"campaign"}),
            ),
        )
    }
)

#: Warehouse columns per row kind: the kinds a campaign row can run.
SWEEP_METRICS: Mapping[str, tuple[str, ...]] = MappingProxyType(
    {name: kind.metrics for name, kind in SWEEP_KINDS.items() if kind.metrics}
)

#: The sweep kinds a campaign row can run, in CLI order.
CAMPAIGN_SWEEPS: tuple[str, ...] = tuple(SWEEP_METRICS)
