"""The market_structure sweep kind of the experiment pipeline."""

import numpy as np
import pytest

from repro.engine import default_service
from repro.exceptions import ModelError
from repro.experiments.kinds import SWEEP_KINDS
from repro.experiments.pipeline import (
    MARKET_STRUCTURE_QUANTITIES,
    ExperimentSpec,
    PanelSpec,
    check,
    market_structure_experiment,
    run_spec,
)
from repro.providers import AccessISP, Market, exponential_cp
from repro.scenarios import ScenarioSpec, oligopoly


def tiny_oligopoly_scenario(**meta_overrides):
    """A 1-CP competition scenario with coarse solve settings (fast)."""
    base = ScenarioSpec(
        scenario_id="ms-base",
        title="one CP type",
        market=Market(
            [exponential_cp(2.0, 2.0, value=1.0)],
            AccessISP(price=1.0, capacity=1.0),
        ),
        prices=(0.5, 1.0),
        policy_levels=(0.0,),
    )
    scn = oligopoly(base, 2, cap=0.3, scenario_id="ms-olig")
    metadata = dict(scn.metadata)
    metadata.update(
        {
            "grid_points": 6,
            "xtol": 1e-3,
            "tol": 1e-2,
            "price_range": [0.05, 2.0],
        }
    )
    metadata.update(meta_overrides)
    return ScenarioSpec(
        scenario_id=scn.scenario_id,
        title=scn.title,
        market=scn.market,
        prices=scn.prices,
        policy_levels=scn.policy_levels,
        metadata=metadata,
    )


class TestSpecValidation:
    def _panel(self, quantity="industry_revenue"):
        return PanelSpec("p", "t", quantity, "y")

    def test_market_structure_requires_counts(self):
        with pytest.raises(ModelError):
            ExperimentSpec(
                experiment_id="x", title="t", scenario="section5",
                sweep="market_structure", panels=(self._panel(),),
            )

    def test_counts_must_be_positive_and_increasing(self):
        for counts in ((0, 1), (2, 2), (3, 1)):
            with pytest.raises(ModelError):
                ExperimentSpec(
                    experiment_id="x", title="t", scenario="section5",
                    sweep="market_structure", panels=(self._panel(),),
                    carrier_counts=counts,
                )

    def test_counts_forbidden_on_grid_sweeps(self):
        with pytest.raises(ModelError):
            ExperimentSpec(
                experiment_id="x", title="t", scenario="section5",
                sweep="grid", panels=(PanelSpec("p", "t", "revenue", "y"),),
                carrier_counts=(1, 2),
            )

    def test_panels_must_use_market_structure_quantities(self):
        with pytest.raises(ModelError):
            ExperimentSpec(
                experiment_id="x", title="t", scenario="section5",
                sweep="market_structure",
                panels=(PanelSpec("p", "t", "revenue", "y"),),
                carrier_counts=(1, 2),
            )

    def test_panelspec_accepts_market_structure_quantities(self):
        for quantity in MARKET_STRUCTURE_QUANTITIES:
            panel = PanelSpec("p", "t", quantity, "y")
            assert not panel.per_provider

    def test_grid_sweeps_reject_market_structure_quantities(self):
        # Construction-time, not after the sweep is solved.
        for sweep in ("price", "grid"):
            with pytest.raises(ModelError):
                ExperimentSpec(
                    experiment_id="x", title="t", scenario="section5",
                    sweep=sweep, panels=(self._panel(),),
                )

    def test_malformed_competition_metadata_fails_before_solving(self):
        scn = tiny_oligopoly_scenario(price_range=[1.0])
        with pytest.raises(ModelError):
            run_spec(market_structure_experiment(scn, carrier_counts=(1,)))


class TestRunSpec:
    @pytest.fixture(scope="class")
    def result(self):
        spec = market_structure_experiment(
            tiny_oligopoly_scenario(), carrier_counts=(1, 2)
        )
        return spec, run_spec(spec)

    def test_panels_are_vectors_over_counts(self, result):
        spec, res = result
        assert len(res.figures) == len(spec.panels)
        for figure in res.figures:
            np.testing.assert_array_equal(figure.x, [1.0, 2.0])
            assert figure.x_label == "N"
            assert len(figure.series) == 1
            assert figure.series[0].y.shape == (2,)

    def test_structural_checks_pass(self, result):
        _, res = result
        assert res.all_passed(), [c.name for c in res.checks if not c.passed]

    def test_entry_erodes_prices_and_raises_welfare(self, result):
        _, res = result
        by_id = {f.figure_id: f for f in res.figures}
        prices = by_id["ms-olig-mean_price"].series[0].y
        welfare = by_id["ms-olig-industry_welfare"].series[0].y
        assert prices[1] < prices[0]
        assert welfare[1] > welfare[0]

    def test_experiment_id_and_titles(self, result):
        spec, res = result
        assert spec.experiment_id == "ms-olig-structure"
        assert res.experiment_id == "ms-olig-structure"


class TestMarketStructureView:
    def test_unknown_quantity_rejected(self):
        view = SWEEP_KINDS["market_structure"].solve(
            tiny_oligopoly_scenario(), default_service(), carrier_counts=()
        )
        with pytest.raises(ModelError):
            view.scalar("revenue")

    def test_checks_see_raw_results(self):
        spec = ExperimentSpec(
            experiment_id="x", title="t",
            scenario=tiny_oligopoly_scenario(),
            sweep="market_structure",
            panels=(PanelSpec("x-rev", "t", "industry_revenue", "y"),),
            checks=(
                check(
                    "every competition converged under budget",
                    lambda v: all(
                        r.iterations < 60 for r in v.results
                    ),
                ),
            ),
            carrier_counts=(1,),
        )
        res = run_spec(spec)
        assert res.all_passed()
