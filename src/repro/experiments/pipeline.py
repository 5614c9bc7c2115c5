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
``price`` (zero-subsidy, §3) and ``grid`` (price × policy, §5) are the
entries of :data:`repro.experiments.kinds.SWEEP_KINDS`. Each entry owns
its solve and its figure layout, so this module validates, solves and
lays out every spec by reading the table.

Panels
------
A :class:`PanelSpec` names one of :data:`SCALAR_QUANTITIES`
(``revenue``, ``welfare``, ...) or :data:`PROVIDER_QUANTITIES`
(``subsidies``, ``throughputs``, ...). Scalar panels become one figure
(one series per policy level on grid sweeps); provider panels become one
figure per CP on grid sweeps (the paper's 2×4 layouts) or one
multi-series figure on price sweeps (Figure 5's 3×3).

Checks
------
A :class:`CheckSpec` pairs a name with a predicate over the solved
:class:`SweepView`; predicates return a verdict or a ``(verdict,
detail)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.exceptions import ModelError
from repro.engine import SolveService, default_service
from repro.experiments.base import ExperimentResult, ShapeCheck
from repro.experiments.kinds import (
    PROVIDER_QUANTITIES,
    SCALAR_QUANTITIES,
    SWEEP_KINDS,
    SweepView,
)
from repro.experiments.refine import RefineSpec
# Submodule imports (not the package root): repro.scenarios.paper closes a
# cycle back through repro.experiments, so the package __init__ may be
# partially initialized while this module loads.
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "SCALAR_QUANTITIES",
    "PROVIDER_QUANTITIES",
    "PanelSpec",
    "CheckSpec",
    "check",
    "SweepView",
    "ExperimentSpec",
    "run_spec",
    "scenario_experiment",
]


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
        A key of :data:`SCALAR_QUANTITIES` or :data:`PROVIDER_QUANTITIES`.
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
        if (
            self.quantity not in SCALAR_QUANTITIES
            and self.quantity not in PROVIDER_QUANTITIES
        ):
            raise ModelError(
                f"unknown quantity {self.quantity!r}; choose from "
                f"{sorted(SCALAR_QUANTITIES)} or {sorted(PROVIDER_QUANTITIES)}"
            )

    @property
    def per_provider(self) -> bool:
        """Whether the panel derives a per-CP vector quantity."""
        return self.quantity in PROVIDER_QUANTITIES


@dataclass(frozen=True)
class CheckSpec:
    """A named qualitative claim evaluated against the solved sweep."""

    name: str
    predicate: Callable[[SweepView], Union[bool, tuple[bool, str]]]

    def evaluate(self, view: SweepView) -> ShapeCheck:
        """Run the predicate and wrap the verdict as a :class:`ShapeCheck`."""
        outcome = self.predicate(view)
        if isinstance(outcome, tuple):
            passed, detail = outcome
            return ShapeCheck(name=self.name, passed=bool(passed), detail=detail)
        return ShapeCheck(name=self.name, passed=bool(outcome))


def check(
    name: str, predicate: Callable[[SweepView], Union[bool, tuple[bool, str]]]
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
        Inline :class:`ScenarioSpec` or the registry id of one.
    sweep:
        A key of :data:`~repro.experiments.kinds.SWEEP_KINDS`: ``"price"``
        (zero-subsidy, §3 style) or ``"grid"`` (§5 style).
    panels:
        Figures to derive from the solved sweep.
    checks:
        Qualitative claims to evaluate.
    refine:
        Optional :class:`~repro.experiments.refine.RefineSpec`: solve the
        sweep by adaptive refinement from the coarse price axis instead
        of uniformly.
    """

    experiment_id: str
    title: str
    scenario: Union[ScenarioSpec, str]
    sweep: str
    panels: tuple[PanelSpec, ...]
    checks: tuple[CheckSpec, ...] = ()
    refine: RefineSpec | None = None

    def __post_init__(self) -> None:
        if self.sweep not in SWEEP_KINDS:
            raise ModelError(
                f"sweep must be one of {tuple(SWEEP_KINDS)}, "
                f"got {self.sweep!r}"
            )
        if not self.panels:
            raise ModelError("an experiment needs at least one panel")

    def resolve_scenario(self) -> ScenarioSpec:
        """The scenario object, looked up in the registry when given by id."""
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
    a re-run of any spec against warm rows performs zero equilibrium
    solves.

    ``prices``/``caps`` override the scenario's axes (figure tests run on
    coarse grids; ``price`` sweeps always use the single cap ``q = 0``);
    ``scenario`` substitutes the market entirely (the CLI's ``--scenario
    file.json``).
    """
    kind = SWEEP_KINDS[spec.sweep]
    view = kind.solve(
        scenario if scenario is not None else spec.resolve_scenario(),
        service if service is not None else default_service(),
        workers=workers,
        prices=prices,
        caps=caps,
        refine=spec.refine,
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
