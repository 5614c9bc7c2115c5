"""Unit tests for the spec-driven experiment pipeline."""

import numpy as np
import pytest

from repro.engine import SolveCache, SolveService, set_default_service
from repro.exceptions import ModelError
from repro.experiments.pipeline import (
    ExperimentSpec,
    PanelSpec,
    check,
    run_spec,
    scenario_experiment,
)
from repro.experiments.scenarios import section5_market
from repro.scenarios import ScenarioSpec, scaled_market

PRICES = (0.0, 0.5, 1.0, 1.5, 2.0)
CAPS = (0.0, 1.0)


@pytest.fixture()
def scenario() -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id="pipe-test",
        title="pipeline test scenario",
        market=section5_market(),
        prices=PRICES,
        policy_levels=CAPS,
    )


class TestPanelSpec:
    # Trajectory, competition and warehouse quantities are read by
    # direct calls, not through experiment panels.
    @pytest.mark.parametrize(
        "quantity", ["nope", "industry_revenue", "adoption", "hhi"]
    )
    def test_unknown_quantity_rejected(self, quantity):
        with pytest.raises(ModelError, match=quantity):
            PanelSpec(figure_id="x", title="x", quantity=quantity, y_label="y")

    def test_per_provider_classification(self):
        scalar = PanelSpec(figure_id="x", title="x", quantity="revenue", y_label="R")
        vector = PanelSpec(figure_id="x", title="x", quantity="subsidies", y_label="s")
        assert not scalar.per_provider
        assert vector.per_provider


class TestExperimentSpec:
    @pytest.mark.parametrize(
        "sweep", ["diagonal", "dynamics", "market_structure", "campaign"]
    )
    def test_bad_sweep_rejected(self, scenario, sweep):
        with pytest.raises(ModelError, match="'price', 'grid'"):
            ExperimentSpec(
                experiment_id="x",
                title="x",
                scenario=scenario,
                sweep=sweep,
                panels=(
                    PanelSpec(
                        figure_id="x", title="x", quantity="revenue", y_label="R"
                    ),
                ),
            )

    def test_empty_panels_rejected(self, scenario):
        with pytest.raises(ModelError):
            ExperimentSpec(
                experiment_id="x",
                title="x",
                scenario=scenario,
                sweep="grid",
                panels=(),
            )

    def test_scenario_by_registry_id(self):
        spec = ExperimentSpec(
            experiment_id="x",
            title="x",
            scenario="section5",
            sweep="grid",
            panels=(
                PanelSpec(figure_id="x", title="x", quantity="revenue", y_label="R"),
            ),
        )
        assert spec.resolve_scenario().scenario_id == "section5"


class TestRunSpec:
    def test_price_sweep_matches_direct_solves(self, scenario):
        spec = ExperimentSpec(
            experiment_id="sweep",
            title="price sweep",
            scenario=scenario,
            sweep="price",
            panels=(
                PanelSpec(
                    figure_id="sweep-theta",
                    title="θ(p)",
                    quantity="aggregate_throughput",
                    y_label="θ",
                    series_name="theta",
                ),
            ),
        )
        result = run_spec(spec, service=SolveService())
        series = result.figures[0].series_by_name("theta")
        market = scenario.market
        direct = [
            market.with_price(float(p)).solve().aggregate_throughput
            for p in PRICES
        ]
        # The zero-cap shortcut makes the engine route bitwise-identical.
        assert list(series.y) == direct

    def test_default_service_resolves_at_call_time(self, scenario):
        spec = scenario_experiment(scenario)
        first = SolveService(cache=SolveCache())
        set_default_service(first)
        try:
            run_spec(spec)
            assert first.counters.computed == len(CAPS)
            second = SolveService(cache=SolveCache())
            set_default_service(second)
            run_spec(spec)
            assert second.counters.computed == len(CAPS)
            # An explicit service bypasses the default entirely.
            run_spec(spec, service=SolveService())
            assert second.counters.as_dict()["memory_hits"] == 0
            assert second.counters.computed == len(CAPS)
        finally:
            set_default_service(None)

    def test_grid_sweep_series_per_policy_level(self, scenario):
        spec = ExperimentSpec(
            experiment_id="grid",
            title="grid sweep",
            scenario=scenario,
            sweep="grid",
            panels=(
                PanelSpec(
                    figure_id="grid-rev",
                    title="R",
                    quantity="revenue",
                    y_label="R",
                ),
            ),
        )
        result = run_spec(spec, service=SolveService())
        assert result.figures[0].names() == ["q=0", "q=1"]

    def test_provider_panels_expand_per_cp_on_grid(self, scenario):
        spec = ExperimentSpec(
            experiment_id="percp",
            title="per-CP",
            scenario=scenario,
            sweep="grid",
            panels=(
                PanelSpec(
                    figure_id="percp",
                    title="s_i of {name}",
                    quantity="subsidies",
                    y_label="s",
                ),
            ),
        )
        result = run_spec(spec, service=SolveService())
        assert len(result.figures) == scenario.size
        names = scenario.market.provider_names()
        assert result.figures[0].figure_id == f"percp-{names[0]}"
        assert names[0] in result.figures[0].title

    def test_checks_evaluate_with_detail(self, scenario):
        spec = ExperimentSpec(
            experiment_id="checked",
            title="checked",
            scenario=scenario,
            sweep="grid",
            panels=(
                PanelSpec(
                    figure_id="checked-rev",
                    title="R",
                    quantity="revenue",
                    y_label="R",
                ),
            ),
            checks=(
                check("always true", lambda v: True),
                check("with detail", lambda v: (False, "why not")),
            ),
        )
        result = run_spec(spec, service=SolveService())
        assert result.checks[0].passed
        assert not result.checks[1].passed
        assert result.checks[1].detail == "why not"

    def test_axis_overrides(self, scenario):
        spec = ExperimentSpec(
            experiment_id="axes",
            title="axes",
            scenario=scenario,
            sweep="grid",
            panels=(
                PanelSpec(
                    figure_id="axes-rev",
                    title="R",
                    quantity="revenue",
                    y_label="R",
                ),
            ),
        )
        result = run_spec(
            spec, prices=(0.0, 1.0), caps=(0.0,), service=SolveService()
        )
        assert list(result.figures[0].x) == [0.0, 1.0]
        assert result.figures[0].names() == ["q=0"]

    def test_scenario_override_substitutes_market(self, scenario):
        spec = ExperimentSpec(
            experiment_id="sub",
            title="sub",
            scenario=scenario,
            sweep="grid",
            panels=(
                PanelSpec(
                    figure_id="sub-rev",
                    title="R",
                    quantity="revenue",
                    y_label="R",
                ),
            ),
        )
        other = scaled_market(4, prices=PRICES, policy_levels=CAPS)
        result = run_spec(spec, scenario=other, service=SolveService())
        direct = other.market.with_price(1.0).solve().revenue
        j = PRICES.index(1.0)
        assert result.figures[0].series_by_name("q=0").y[j] == direct


class TestScenarioExperiment:
    def test_generic_sweep_passes_on_paper_market(self, scenario):
        spec = scenario_experiment(scenario)
        result = run_spec(spec, service=SolveService())
        assert result.experiment_id == "pipe-test"
        failed = [c.name for c in result.checks if not c.passed]
        assert not failed
        ids = [figure.figure_id for figure in result.figures]
        assert "pipe-test-revenue" in ids
        assert "pipe-test-welfare" in ids

    def test_theorem2_check_survives_caps_override(self):
        # The spec's axis has q=0, but the run overrides caps away from it:
        # the check must locate (or gracefully miss) the q=0 row on the
        # solved grid instead of blindly reading row 0.
        spec = scenario_experiment(
            scaled_market(4, policy_levels=(0.0, 1.0), prices=PRICES)
        )
        result = run_spec(spec, caps=(1.0, 2.0), service=SolveService())
        thm2 = next(c for c in result.checks if "Thm 2" in c.name)
        assert thm2.passed
        assert thm2.detail == "no q=0 row on the solved grid"

    def test_theorem2_check_needs_zero_cap(self):
        spec = scenario_experiment(
            scaled_market(4, policy_levels=(0.5, 1.0), prices=PRICES)
        )
        names = [c.name for c in spec.checks]
        assert not any("Thm 2" in name for name in names)
        spec = scenario_experiment(
            scaled_market(4, policy_levels=(0.0, 1.0), prices=PRICES)
        )
        names = [c.name for c in spec.checks]
        assert any("Thm 2" in name for name in names)
