"""Spec-driven regeneration of every data-bearing figure of the paper.

Figures 1–3 and 6 are schematic block diagrams with no data; everything
else is reproduced. Each figure module declares an
:class:`~repro.experiments.pipeline.ExperimentSpec` — scenario reference,
sweep kind, derived panels and shape checks — and the shared
:func:`~repro.experiments.pipeline.run_spec` pipeline executes it on the
shared, cached solve service:

* :mod:`repro.experiments.fig04` — aggregate throughput and ISP revenue
  versus price (§3.2, 9-CP scenario).
* :mod:`repro.experiments.fig05` — per-CP throughput versus price.
* :mod:`repro.experiments.fig07` — ISP revenue and welfare over the
  (price × policy) grid (§5, 8-CP scenario).
* :mod:`repro.experiments.fig08` — equilibrium subsidies.
* :mod:`repro.experiments.fig09` — equilibrium user populations.
* :mod:`repro.experiments.fig10` — equilibrium throughput.
* :mod:`repro.experiments.fig11` — equilibrium utilities.

The same pipeline sweeps arbitrary scenarios — registered ones (see
:mod:`repro.scenarios`) or ``repro-scenario/1`` JSON files — through the
generic scenario experiment. The CLI (``python -m repro.experiments`` or
the ``repro-experiments`` script) runs any subset, writes CSVs, renders
ASCII charts, evaluates the qualitative shape checks recorded in
EXPERIMENTS.md, and exposes ``list``/``describe``/``run`` verbs plus a
``--json`` summary.
"""

from repro.experiments.base import ExperimentResult, ShapeCheck
from repro.experiments.pipeline import (
    CheckSpec,
    ExperimentSpec,
    PanelSpec,
    check,
    run_spec,
    scenario_experiment,
)
from repro.experiments.refine import (
    RefinementReport,
    RefineSpec,
    refine_grid,
    uniform_pointwise_grid,
)
from repro.experiments.scenarios import (
    FIGURE_PRICE_GRID,
    POLICY_LEVELS,
    section3_market,
    section5_market,
)

__all__ = [
    "CheckSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "FIGURE_PRICE_GRID",
    "PanelSpec",
    "POLICY_LEVELS",
    "RefineSpec",
    "RefinementReport",
    "ShapeCheck",
    "check",
    "refine_grid",
    "run_spec",
    "scenario_experiment",
    "section3_market",
    "section5_market",
    "uniform_pointwise_grid",
]
