"""The spec-driven experiment pipeline: one runner for every figure.

Before this module, each figure script re-implemented the same
build → sweep → extract-series → shape-check structure by hand. Now an
experiment is *data*: an :class:`ExperimentSpec` names a scenario (inline
or by registry id), a sweep kind, the panels to derive (named quantity
extractors) and the shape checks to evaluate; :func:`run_spec` executes any
spec on one :class:`~repro.engine.SolveService` (the process-wide default
unless one is passed), so the paper figures, generated stress markets and
user-supplied scenario files all travel the same code path and share its
cache tiers.

Sweep kinds
-----------
``price``, ``grid``, ``dynamics``, ``market_structure`` and ``campaign``
are entries of :data:`repro.experiments.kinds.SWEEP_KINDS`. Each entry
owns what is decided per kind — accepted panel quantities, x-axis label,
solve, figure layout and, for row kinds, warehouse metrics — so this
module validates, solves and lays out every spec by reading the table.

Panels
------
A :class:`PanelSpec` names a quantity of its sweep kind: on ``price`` and
``grid`` sweeps one of :data:`SCALAR_QUANTITIES` (``revenue``,
``welfare``, ...) or :data:`PROVIDER_QUANTITIES` (``subsidies``,
``throughputs``, ...). Scalar panels become one figure (one series per
policy level on grid sweeps); provider panels become one figure per CP on
grid sweeps (the paper's 2×4 layouts) or one multi-series figure on price
sweeps (Figure 5's 3×3). Panels of the one-axis kinds become one
single-series figure against the carrier count, period or row index.

Checks
------
A :class:`CheckSpec` pairs a name with a predicate over the solved view
(:class:`SweepView` for price/grid sweeps, :class:`AxisView` otherwise);
predicates return a verdict or a ``(verdict, detail)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from repro.exceptions import ModelError
from repro.engine import SolveService, default_service
from repro.experiments.base import ExperimentResult, ShapeCheck
from repro.experiments.kinds import (
    CAMPAIGN_QUANTITIES,
    DYNAMICS_QUANTITIES,
    MARKET_STRUCTURE_QUANTITIES,
    METRICS,
    PROVIDER_QUANTITIES,
    SCALAR_QUANTITIES,
    SWEEP_KINDS,
    SWEEP_METRICS,
    AxisView,
    SweepView,
)
from repro.experiments.refine import RefineSpec
# Submodule imports (not the package root): repro.scenarios.paper closes a
# cycle back through repro.experiments, so the package __init__ may be
# partially initialized while this module loads.
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.trajectory import dynamics_settings

if TYPE_CHECKING:  # pragma: no cover — annotations only, see above
    from repro.campaigns.spec import CampaignSpec

__all__ = [
    "SCALAR_QUANTITIES",
    "PROVIDER_QUANTITIES",
    "MARKET_STRUCTURE_QUANTITIES",
    "DYNAMICS_QUANTITIES",
    "CAMPAIGN_QUANTITIES",
    "PanelSpec",
    "CheckSpec",
    "check",
    "SweepView",
    "AxisView",
    "ExperimentSpec",
    "run_spec",
    "scenario_experiment",
    "market_structure_experiment",
    "dynamics_experiment",
    "campaign_experiment",
]

#: A solved sweep as panels and checks see it.
View = Union[SweepView, AxisView]


@dataclass(frozen=True)
class PanelSpec:
    """One derived figure (or per-CP figure family) of an experiment.

    Attributes
    ----------
    figure_id:
        Output id; provider panels on grid sweeps append ``-<cp name>``.
    title:
        Figure title. For provider panels on grid sweeps this is a
        template: ``{name}`` interpolates the CP name.
    quantity:
        A quantity of the experiment's sweep kind (its
        :attr:`~repro.experiments.kinds.SweepKind.quantities`).
    y_label:
        y-axis label.
    series_name:
        Series name for scalar panels on price sweeps (defaults to the
        quantity name). Grid-sweep series are always named ``q=<cap>``.
    notes:
        Free-form provenance carried into the figure.
    """

    figure_id: str
    title: str
    quantity: str
    y_label: str
    series_name: str | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if not any(
            self.quantity in kind.quantities for kind in SWEEP_KINDS.values()
        ):
            known = "; ".join(
                f"{name} quantities: {sorted(kind.quantities)}"
                for name, kind in SWEEP_KINDS.items()
            )
            raise ModelError(f"unknown quantity {self.quantity!r}; {known}")

    @property
    def per_provider(self) -> bool:
        """Whether the panel derives a per-CP vector quantity."""
        return self.quantity in PROVIDER_QUANTITIES


@dataclass(frozen=True)
class CheckSpec:
    """A named qualitative claim evaluated against the solved sweep."""

    name: str
    predicate: Callable[[View], Union[bool, tuple[bool, str]]]

    def evaluate(self, view: View) -> ShapeCheck:
        """Run the predicate and wrap the verdict as a :class:`ShapeCheck`."""
        outcome = self.predicate(view)
        if isinstance(outcome, tuple):
            passed, detail = outcome
            return ShapeCheck(name=self.name, passed=bool(passed), detail=detail)
        return ShapeCheck(name=self.name, passed=bool(outcome))


def check(
    name: str, predicate: Callable[[View], Union[bool, tuple[bool, str]]]
) -> CheckSpec:
    """Shorthand constructor for a :class:`CheckSpec`."""
    return CheckSpec(name=name, predicate=predicate)


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete experiment declaration.

    Attributes
    ----------
    experiment_id:
        Registry/CLI handle and CSV prefix, e.g. ``"fig7"``.
    title:
        Human-readable description.
    scenario:
        Inline :class:`ScenarioSpec` or the registry id of one (``None``
        only for ``campaign`` sweeps, which carry a campaign instead).
    sweep:
        A key of :data:`~repro.experiments.kinds.SWEEP_KINDS`: ``"price"``
        (zero-subsidy, §3 style), ``"grid"`` (§5 style), ``"dynamics"`` (a
        market trajectory vs. the period ``t``), ``"market_structure"``
        (N-carrier oligopoly vs. carrier count) or ``"campaign"``
        (warehouse metrics vs. the campaign row index).
    panels:
        Figures to derive from the solved sweep.
    checks:
        Qualitative claims to evaluate.
    carrier_counts:
        The carrier-count axis of a ``market_structure`` sweep (required
        there, forbidden elsewhere).
    refine:
        Optional :class:`~repro.experiments.refine.RefineSpec`: solve
        ``price``/``grid`` sweeps by adaptive refinement from the coarse
        price axis instead of uniformly (forbidden on other sweep kinds).
    campaign:
        The :class:`~repro.campaigns.CampaignSpec` of a ``campaign``
        sweep (required there, forbidden elsewhere).
    """

    experiment_id: str
    title: str
    scenario: Union[ScenarioSpec, str, None]
    sweep: str
    panels: tuple[PanelSpec, ...]
    checks: tuple[CheckSpec, ...] = ()
    carrier_counts: tuple[int, ...] = ()
    refine: RefineSpec | None = None
    campaign: CampaignSpec | None = None

    def __post_init__(self) -> None:
        kind = SWEEP_KINDS.get(self.sweep)
        if kind is None:
            raise ModelError(
                f"sweep must be one of {tuple(SWEEP_KINDS)}, "
                f"got {self.sweep!r}"
            )
        if not self.panels:
            raise ModelError("an experiment needs at least one panel")
        for option in ("refine", "carrier_counts", "campaign"):
            if getattr(self, option) and option not in kind.options:
                takers = " and ".join(
                    repr(name)
                    for name, other in SWEEP_KINDS.items()
                    if option in other.options
                )
                raise ModelError(
                    f"{option} only applies to {takers} sweeps, "
                    f"not {self.sweep!r}"
                )
        allowed = kind.quantities
        if "campaign" in kind.options:
            if self.campaign is None:
                raise ModelError(
                    f"a {self.sweep!r} experiment needs a CampaignSpec in "
                    f"the 'campaign' field"
                )
            if self.scenario is not None:
                raise ModelError(
                    f"a {self.sweep!r} experiment derives its scenarios from "
                    f"the campaign; leave 'scenario' as None"
                )
            allowed = SWEEP_METRICS[self.campaign.sweep]
        elif self.scenario is None:
            raise ModelError(f"a {self.sweep!r} experiment needs a scenario")
        if "carrier_counts" in kind.options:
            counts = tuple(int(n) for n in self.carrier_counts)
            if not counts:
                raise ModelError(
                    f"a {self.sweep!r} experiment needs carrier_counts"
                )
            if any(n < 1 for n in counts):
                raise ModelError(
                    f"carrier_counts must be at least 1, got {counts}"
                )
            if any(b <= a for a, b in zip(counts, counts[1:])):
                raise ModelError(
                    f"carrier_counts must be strictly increasing, "
                    f"got {counts}"
                )
            object.__setattr__(self, "carrier_counts", counts)
        for panel in self.panels:
            if panel.quantity not in allowed:
                raise ModelError(
                    f"{self.sweep!r} sweeps cannot use quantity "
                    f"{panel.quantity!r}; choose from {sorted(allowed)}"
                )

    def resolve_scenario(self) -> ScenarioSpec:
        """The scenario object, looked up in the registry when given by id."""
        if self.scenario is None:
            raise ModelError(
                f"experiment {self.experiment_id!r} has no scenario "
                f"(campaign sweeps derive scenarios from the campaign)"
            )
        if isinstance(self.scenario, ScenarioSpec):
            return self.scenario
        return get_scenario(self.scenario)


def run_spec(
    spec: ExperimentSpec,
    *,
    prices=None,
    caps=None,
    scenario: ScenarioSpec | None = None,
    service: SolveService | None = None,
    workers: int | None = None,
) -> ExperimentResult:
    """Execute an experiment spec end to end.

    The spec's sweep kind (:data:`~repro.experiments.kinds.SWEEP_KINDS`)
    solves it on ``service``, then lays out each panel. ``service``
    defaults to the process-wide
    :func:`~repro.engine.service.default_service`, so specs reading
    different quantities off the same scenario share its cached rows (the
    second spec's grid resolves from the memory tier), and with a
    persistent store configured (``$REPRO_CACHE_DIR`` / ``--cache-dir``)
    a re-run of any spec against warm rows or segments performs zero
    equilibrium solves.

    ``prices``/``caps`` override the scenario's axes on ``price``/``grid``
    sweeps (figure tests run on coarse grids; ``price`` sweeps always use
    the single cap ``q = 0``); ``scenario`` substitutes the market
    entirely (the CLI's ``--scenario file.json``). ``market_structure``
    sweeps swap the grid axes for ``spec.carrier_counts`` and ``dynamics``
    sweeps for the trajectory's periods, both declared by the scenario's
    metadata. ``campaign`` sweeps ignore every override but ``workers``:
    the campaign expands into its own scenarios and its rows run (or
    resume) against the warehouse next to the configured store.
    """
    kind = SWEEP_KINDS[spec.sweep]
    if spec.campaign is not None:
        source = spec.campaign
    else:
        source = scenario if scenario is not None else spec.resolve_scenario()
    view = kind.solve(
        source,
        service if service is not None else default_service(),
        workers=workers,
        prices=prices,
        caps=caps,
        refine=spec.refine,
        carrier_counts=spec.carrier_counts,
    )
    return ExperimentResult(
        experiment_id=spec.experiment_id,
        title=spec.title,
        figures=tuple(
            figure
            for panel in spec.panels
            for figure in kind.figures(panel, view)
        ),
        checks=tuple(c.evaluate(view) for c in spec.checks),
    )


def scenario_experiment(scn: ScenarioSpec) -> ExperimentSpec:
    """A generic experiment for an arbitrary scenario (the CLI's ``run``).

    Derives the ISP/welfare panels every market supports plus generic
    model-level checks: certification of every equilibrium, cap feasibility,
    non-negative utilities, and — when the regulated baseline ``q = 0`` is
    on the policy axis — Theorem 2's aggregate-throughput monotonicity.
    """
    sid = scn.scenario_id
    panels = tuple(
        PanelSpec(
            figure_id=f"{sid}-{quantity}",
            title=f"{label} vs price p ({sid})",
            quantity=quantity,
            y_label=ylabel,
        )
        for quantity, label, ylabel in (
            ("revenue", "ISP revenue R", "R"),
            ("welfare", "System welfare W", "W"),
            ("aggregate_throughput", "Aggregate throughput θ", "θ"),
            ("utilization", "System utilization φ", "φ"),
        )
    )
    checks = [
        check(
            "every equilibrium is certified (KKT residual ≤ 1e-6)",
            lambda v: (
                bool(np.max(v.scalar("kkt_residual")) <= 1e-6),
                f"max residual {float(np.max(v.scalar('kkt_residual'))):.2e}",
            ),
        ),
        check(
            "subsidies stay within the policy cap",
            lambda v: bool(
                np.all(v.provider("subsidies") >= -1e-12)
                and np.all(
                    v.provider("subsidies")
                    <= v.caps[:, None, None] + 1e-8
                )
            ),
        ),
        check(
            "equilibrium utilities are non-negative",
            lambda v: bool(np.all(v.provider("utilities") >= -1e-9)),
        ),
    ]
    if float(np.min(scn.policy_array())) == 0.0:

        def theorem2(view):
            # Locate the q=0 row on the *solved* grid: run_spec may have
            # overridden the caps axis the spec was built from.
            base = int(np.argmin(view.caps))
            if float(view.caps[base]) != 0.0:
                return True, "no q=0 row on the solved grid"
            return bool(
                np.all(
                    np.diff(view.scalar("aggregate_throughput")[base]) <= 1e-7
                )
            )

        checks.append(
            check(
                "aggregate throughput decreases with price under q=0 (Thm 2)",
                theorem2,
            )
        )
    return ExperimentSpec(
        experiment_id=sid,
        title=f"Scenario sweep: {scn.title}",
        scenario=scn,
        sweep="grid",
        panels=panels,
        checks=tuple(checks),
    )


def market_structure_experiment(
    scn: ScenarioSpec, carrier_counts: Sequence[int] = (1, 2, 3, 4)
) -> ExperimentSpec:
    """A generic market-structure experiment for an arbitrary scenario.

    Derives the industry panels every oligopoly supports — revenue,
    welfare, mean price and mean utilization versus the carrier count —
    plus structural checks: entry must erode prices (the Bertrand-flavored
    monotonicity the logit rule implies for symmetric carriers) and market
    shares must sum to one at every ``N``.
    """
    sid = scn.scenario_id
    panels = tuple(
        PanelSpec(
            figure_id=f"{sid}-{quantity}",
            title=f"{label} vs carrier count N ({sid})",
            quantity=quantity,
            y_label=ylabel,
        )
        for quantity, label, ylabel in (
            ("industry_revenue", "Industry revenue ΣR", "ΣR"),
            ("industry_welfare", "System welfare W", "W"),
            ("mean_price", "Mean carrier price", "p"),
            ("mean_utilization", "Mean link utilization φ", "φ"),
        )
    )
    checks = (
        check(
            "mean price does not rise with entry",
            lambda v: (
                bool(np.all(np.diff(v.scalar("mean_price")) <= 1e-6)),
                f"prices {np.round(v.scalar('mean_price'), 4).tolist()}",
            ),
        ),
        check(
            "market shares sum to one at every N",
            lambda v: bool(
                all(
                    abs(sum(r.state.shares) - 1.0) <= 1e-9
                    for r in v.results
                )
            ),
        ),
    )
    return ExperimentSpec(
        experiment_id=f"{sid}-structure",
        title=f"Market structure sweep: {scn.title}",
        scenario=scn,
        sweep="market_structure",
        panels=panels,
        checks=checks,
        carrier_counts=tuple(int(n) for n in carrier_counts),
    )


def dynamics_experiment(scn: ScenarioSpec) -> ExperimentSpec:
    """A generic trajectory experiment for an arbitrary scenario.

    Derives the time-series panels every trajectory supports — adoption,
    utilization, industry revenue, welfare and capacity versus the period
    ``t`` — plus structural checks: the trajectory must cover its declared
    horizon, every recorded quantity must be finite, and on an unshocked,
    depreciation-free ``"capacity"`` trajectory the reinvestment loop must
    never shrink the link.
    """
    sid = scn.scenario_id
    dspec = dynamics_settings(scn.metadata)
    panels = tuple(
        PanelSpec(
            figure_id=f"{sid}-{quantity}",
            title=f"{label} vs period t ({sid})",
            quantity=quantity,
            y_label=ylabel,
        )
        for quantity, label, ylabel in (
            ("adoption", "Total subscribed population Σm", "Σm"),
            ("utilization", "System utilization φ", "φ"),
            ("industry_revenue", "ISP revenue R", "R"),
            ("welfare", "System welfare W", "W"),
            ("capacity", "Access capacity µ", "µ"),
        )
    )
    checks = [
        check(
            "trajectory covers the declared horizon",
            lambda v: (
                v.trajectory.horizon == v.dynamics.horizon,
                f"{v.trajectory.horizon} of {v.dynamics.horizon} period(s)",
            ),
        ),
        check(
            "every recorded quantity is finite",
            lambda v: bool(
                all(
                    np.all(np.isfinite(v.scalar(q)))
                    for q in DYNAMICS_QUANTITIES
                )
            ),
        ),
        check(
            "utilization stays non-negative",
            lambda v: bool(np.all(v.scalar("utilization") >= 0.0)),
        ),
    ]
    if (
        dspec.kind == "capacity"
        and not dspec.shocks
        and dspec.depreciation == 0.0
    ):
        checks.append(
            check(
                "reinvestment never shrinks capacity (no shocks, no decay)",
                lambda v: bool(np.all(np.diff(v.scalar("capacity")) >= -1e-12)),
            )
        )
    return ExperimentSpec(
        experiment_id=f"{sid}-dynamics",
        title=f"Trajectory sweep: {scn.title}",
        scenario=scn,
        sweep="dynamics",
        panels=panels,
        checks=tuple(checks),
    )


def campaign_experiment(cspec: CampaignSpec) -> ExperimentSpec:
    """A generic experiment for an arbitrary campaign (the CLI's ``run``).

    Derives one panel per warehouse metric of the campaign's sweep kind —
    welfare, revenue and friends against the row index — plus structural
    checks: the warehouse must hold every expanded row (resume closed the
    gap), and the welfare column must be finite across the campaign.
    """
    cid = cspec.campaign_id
    panels = tuple(
        PanelSpec(
            figure_id=f"{cid}-{quantity}",
            title=f"{METRICS[quantity].title} across rows ({cid})",
            quantity=quantity,
            y_label=METRICS[quantity].y_label,
        )
        for quantity in SWEEP_METRICS[cspec.sweep]
    )
    checks = (
        check(
            "warehouse holds every expanded row",
            lambda v: (
                len(v.records) == v.report.rows_total,
                f"{len(v.records)} of {v.report.rows_total} row(s)",
            ),
        ),
        check(
            "welfare is finite across the campaign",
            lambda v: bool(np.all(np.isfinite(v.scalar("welfare")))),
        ),
    )
    return ExperimentSpec(
        experiment_id=f"{cid}-campaign",
        title=f"Campaign: {cspec.title}",
        scenario=None,
        sweep="campaign",
        panels=panels,
        checks=checks,
        campaign=cspec,
    )
