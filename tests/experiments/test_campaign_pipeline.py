"""The ``campaign`` sweep kind in the experiment pipeline."""

import numpy as np
import pytest

from repro.campaigns import SWEEP_METRICS, CampaignSpec
from repro.engine import (
    SolveCache,
    SolveService,
    SolveStore,
    set_default_service,
)
from repro.exceptions import ModelError
from repro.experiments.pipeline import (
    CAMPAIGN_QUANTITIES,
    ExperimentSpec,
    PanelSpec,
    campaign_experiment,
    run_spec,
)


@pytest.fixture
def store_service(tmp_path):
    """Point the default service at a persistent store for the test."""
    service = SolveService(
        cache=SolveCache(), store=SolveStore(tmp_path / "store")
    )
    set_default_service(service)
    yield service
    set_default_service(None)


def campaign() -> CampaignSpec:
    return CampaignSpec(
        campaign_id="pipe",
        seed_count=2,
        axes={"n_types": (4, 6)},
        base_params={"prices": [0.8, 1.2]},
    )


class TestCampaignExperiment:
    def test_runs_end_to_end_with_passing_checks(self, store_service):
        spec = campaign_experiment(campaign())
        assert spec.sweep == "campaign"
        assert spec.experiment_id == "pipe-campaign"
        result = run_spec(spec)
        assert all(check.passed for check in result.checks), [
            (c.name, c.detail) for c in result.checks
        ]
        assert len(result.figures) == len(SWEEP_METRICS["price"])

    def test_panels_sweep_the_row_index(self, store_service):
        result = run_spec(campaign_experiment(campaign()))
        figure = result.figures[0]
        np.testing.assert_array_equal(figure.x, [0, 1, 2, 3])
        assert figure.x_label == "row"
        assert np.all(np.isfinite(figure.series[0].y))

    def test_csv_export(self, store_service, tmp_path):
        result = run_spec(campaign_experiment(campaign()))
        paths = result.write_csv(tmp_path / "out")
        assert len(paths) == len(result.figures)
        for path in paths:
            assert path.read_text().startswith("row,")


class TestValidation:
    def test_campaign_quantities_mirror_the_metric_table(self):
        for sweep, names in SWEEP_METRICS.items():
            for name in names:
                assert name in CAMPAIGN_QUANTITIES, (sweep, name)

    def test_campaign_sweep_requires_a_campaign(self):
        with pytest.raises(ModelError, match="campaign"):
            ExperimentSpec(
                experiment_id="x",
                title="x",
                scenario=None,
                sweep="campaign",
                panels=(PanelSpec("x-a", "t", "welfare", "W"),),
            )

    def test_campaign_forbidden_on_grid_sweeps(self):
        with pytest.raises(ModelError, match="campaign"):
            ExperimentSpec(
                experiment_id="x",
                title="x",
                scenario="section3",
                sweep="price",
                panels=(PanelSpec("x-a", "t", "welfare", "W"),),
                campaign=campaign(),
            )

    def test_panel_quantity_must_match_the_sweep_kind(self):
        with pytest.raises(ModelError, match="hhi"):
            ExperimentSpec(
                experiment_id="x",
                title="x",
                scenario=None,
                sweep="campaign",
                panels=(PanelSpec("x-a", "t", "hhi", "HHI"),),
                campaign=campaign(),
            )

    def test_unknown_quantity_still_rejected_globally(self):
        with pytest.raises(ModelError, match="vibes"):
            PanelSpec("x-a", "t", "vibes", "V")
