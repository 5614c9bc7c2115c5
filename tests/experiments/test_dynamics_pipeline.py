"""The ``dynamics`` sweep kind in the spec-driven pipeline."""

import numpy as np
import pytest

from repro.engine import default_service
from repro.exceptions import ModelError
from repro.experiments.kinds import SWEEP_KINDS
from repro.experiments.pipeline import (
    DYNAMICS_QUANTITIES,
    CheckSpec,
    ExperimentSpec,
    PanelSpec,
    dynamics_experiment,
    run_spec,
)
from repro.scenarios import scaled_market, shocked_market, trajectory_variant
from repro.simulation import DynamicsSpec, dynamics_settings, run_trajectory


@pytest.fixture
def tiny_scenario():
    """A 4-CP scenario carrying a short capacity trajectory block."""
    base = scaled_market(
        4,
        prices=(0.5, 1.0, 1.5),
        policy_levels=(0.0, 1.0),
        scenario_id="dyn-pipe-base",
    )
    return trajectory_variant(
        base,
        kind="capacity",
        horizon=3,
        segment_length=2,
        cap=0.5,
        scenario_id="dyn-pipe",
    )


class TestSpecValidation:
    def test_dynamics_panels_must_use_trajectory_quantities(self, tiny_scenario):
        with pytest.raises(ModelError):
            ExperimentSpec(
                experiment_id="x",
                title="x",
                scenario=tiny_scenario,
                sweep="dynamics",
                panels=(
                    PanelSpec(
                        figure_id="x", title="x", quantity="revenue",
                        y_label="R",
                    ),
                ),
            )

    def test_grid_sweeps_reject_dynamics_quantities(self, tiny_scenario):
        with pytest.raises(ModelError):
            ExperimentSpec(
                experiment_id="x",
                title="x",
                scenario=tiny_scenario,
                sweep="grid",
                panels=(
                    PanelSpec(
                        figure_id="x", title="x", quantity="adoption",
                        y_label="m",
                    ),
                ),
            )

    def test_dynamics_forbids_carrier_counts(self, tiny_scenario):
        with pytest.raises(ModelError):
            ExperimentSpec(
                experiment_id="x",
                title="x",
                scenario=tiny_scenario,
                sweep="dynamics",
                panels=(
                    PanelSpec(
                        figure_id="x", title="x", quantity="adoption",
                        y_label="m",
                    ),
                ),
                carrier_counts=(1, 2),
            )

    def test_unknown_panel_quantity_names_all_registries(self):
        with pytest.raises(ModelError, match="dynamics quantities"):
            PanelSpec(figure_id="x", title="x", quantity="nope", y_label="y")


class TestRunSpec:
    def test_dynamics_experiment_end_to_end(self, tiny_scenario):
        result = run_spec(dynamics_experiment(tiny_scenario))
        assert result.experiment_id == "dyn-pipe-dynamics"
        assert result.all_passed()
        ids = [figure.figure_id for figure in result.figures]
        assert "dyn-pipe-adoption" in ids
        assert "dyn-pipe-capacity" in ids
        for figure in result.figures:
            assert figure.x_label == "t"
            assert figure.x.tolist() == [0.0, 1.0, 2.0, 3.0]
            assert len(figure.series) == 1
            assert figure.series[0].y.shape == (4,)

    def test_figures_match_direct_trajectory(self, tiny_scenario):
        result = run_spec(dynamics_experiment(tiny_scenario))
        spec = dynamics_settings(tiny_scenario.metadata)
        trajectory = run_trajectory(tiny_scenario.market, spec)
        by_id = {figure.figure_id: figure for figure in result.figures}
        assert np.array_equal(
            by_id["dyn-pipe-welfare"].series[0].y, trajectory.welfares
        )
        assert np.array_equal(
            by_id["dyn-pipe-capacity"].series[0].y, trajectory.capacities
        )

    def test_plain_scenario_runs_under_defaults(self):
        scn = scaled_market(
            4,
            prices=(0.5, 1.0),
            policy_levels=(0.0,),
            scenario_id="dyn-plain",
        )
        spec = ExperimentSpec(
            experiment_id="dyn-plain-x",
            title="defaults",
            scenario=scn,
            sweep="dynamics",
            panels=(
                PanelSpec(
                    figure_id="dyn-plain-adoption",
                    title="adoption",
                    quantity="adoption",
                    y_label="m",
                ),
            ),
        )
        result = run_spec(spec)
        # The default block: a 20-period capacity trajectory.
        assert result.figures[0].x.size == 21

    def test_malformed_metadata_block_fails_before_solving(self):
        scn = scaled_market(
            4,
            prices=(0.5, 1.0),
            policy_levels=(0.0,),
            scenario_id="dyn-bad",
        )
        bad = type(scn)(
            scenario_id="dyn-bad",
            title=scn.title,
            market=scn.market,
            prices=scn.prices,
            policy_levels=scn.policy_levels,
            metadata={"dynamics": {"format": "nope"}},
        )
        with pytest.raises(ModelError):
            run_spec(dynamics_experiment(bad))

    def test_shocked_scenario_passes_generic_checks(self):
        base = scaled_market(
            4,
            prices=(0.5, 1.0),
            policy_levels=(0.0,),
            scenario_id="dyn-shock-base",
        )
        scn = shocked_market(
            base, seed=11, horizon=4, segment_length=2, n_shocks=2,
            scenario_id="dyn-shock",
        )
        result = run_spec(dynamics_experiment(scn))
        assert result.all_passed()
        # The capacity-monotonicity check only applies unshocked.
        names = [check.name for check in result.checks]
        assert not any("never shrinks" in name for name in names)


class TestDynamicsView:
    def test_scalar_caches_and_validates(self, tiny_scenario):
        view = SWEEP_KINDS["dynamics"].solve(tiny_scenario, default_service())
        first = view.scalar("adoption")
        assert view.scalar("adoption") is first
        with pytest.raises(ModelError):
            view.scalar("revenue")

    def test_every_quantity_extracts(self, tiny_scenario):
        spec = dynamics_settings(tiny_scenario.metadata)
        view = SWEEP_KINDS["dynamics"].solve(tiny_scenario, default_service())
        for quantity in DYNAMICS_QUANTITIES:
            values = view.scalar(quantity)
            assert values.shape == (spec.horizon + 1,)
            assert np.all(np.isfinite(values))

    def test_check_spec_sees_the_view(self, tiny_scenario):
        spec = ExperimentSpec(
            experiment_id="dyn-check",
            title="check",
            scenario=tiny_scenario,
            sweep="dynamics",
            panels=(
                PanelSpec(
                    figure_id="dyn-check-welfare",
                    title="welfare",
                    quantity="welfare",
                    y_label="W",
                ),
            ),
            checks=(
                CheckSpec(
                    name="welfare stays positive",
                    predicate=lambda v: bool(np.all(v.scalar("welfare") > 0)),
                ),
            ),
        )
        result = run_spec(spec)
        assert result.checks[0].passed
