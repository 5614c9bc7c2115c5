"""run_campaign: cold runs, resume, warm replay, per-sweep metrics."""

import numpy as np
import pytest

from repro.campaigns import (
    CAMPAIGN_METRICS,
    SWEEP_METRICS,
    CampaignSpec,
    CampaignWarehouse,
    campaign_status,
    run_campaign,
    warehouse_for_service,
)
from repro.competition import (
    OligopolyGame,
    competition_settings,
    solve_oligopoly_competition,
)
from repro.engine import SolveCache, SolveService, SolveStore
from repro.exceptions import ModelError
from repro.experiments.kinds import ROW_KINDS
from repro.scenarios import (
    ScenarioSpec,
    oligopoly,
    scaled_market,
    trajectory_variant,
)
from repro.simulation import dynamics_settings, run_trajectory


def price_spec(**overrides) -> CampaignSpec:
    fields = dict(
        campaign_id="drv",
        generator="random_market",
        sweep="price",
        seed_count=3,
        axes={"n_types": (4, 6)},
        base_params={"prices": [0.8, 1.2]},
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


def store_service(tmp_path) -> SolveService:
    return SolveService(
        cache=SolveCache(), store=SolveStore(tmp_path / "store")
    )


class TestLifecycle:
    def test_cold_run_lands_every_row(self, tmp_path):
        spec = price_spec()
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            report = run_campaign(spec, service=service, warehouse=wh)
            assert report.rows_total == 6
            assert report.rows_computed == 6
            assert report.rows_resumed == 0
            assert report.solves_computed > 0
            assert wh.count(spec.digest()) == 6
            assert wh.incomplete_rows(spec.digest()) == []
            assert set(wh.metric_names(spec.digest())) == set(
                SWEEP_METRICS["price"]
            )

    def test_rerun_resumes_everything(self, tmp_path):
        spec = price_spec()
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            report = run_campaign(spec, service=service, warehouse=wh)
            assert report.rows_computed == 0
            assert report.rows_resumed == 6
            assert report.solves_computed == 0
            assert wh.count(spec.digest()) == 6

    def test_partial_warehouse_computes_only_the_complement(self, tmp_path):
        spec = price_spec()
        service = store_service(tmp_path)
        rows = spec.expand()
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            # Simulate a killed run: drop half the landed rows.
            keep = {row.digest for row in rows[:3]}
            for row in rows[3:]:  # test-only surgery on the manifest
                wh._conn.execute(
                    "DELETE FROM rows WHERE digest = ?", (row.digest,)
                )
                wh._conn.execute(
                    "DELETE FROM metrics WHERE digest = ?", (row.digest,)
                )
            wh._conn.commit()
            assert wh.existing_digests(spec.digest()) == keep
            report = run_campaign(spec, service=service, warehouse=wh)
            assert report.rows_computed == 3
            assert report.rows_resumed == 3
            # The recomputed rows were warm in the store: zero solves.
            assert report.solves_computed == 0

    def test_warm_full_replay_into_fresh_warehouse_is_solve_free(
        self, tmp_path
    ):
        spec = price_spec()
        service = store_service(tmp_path)
        run_campaign(
            spec, service=service, warehouse=CampaignWarehouse(":memory:")
        )
        # New process, new warehouse, same persistent store: every row
        # recomputes, no row solves.
        fresh = store_service(tmp_path)
        report = run_campaign(
            spec, service=fresh, warehouse=CampaignWarehouse(":memory:")
        )
        assert report.rows_computed == 6
        assert report.solves_computed == 0

    def test_progress_callback_sees_every_row(self, tmp_path):
        spec = price_spec(seed_count=1)
        service = store_service(tmp_path)
        seen = []
        run_campaign(
            spec,
            service=service,
            warehouse=CampaignWarehouse(":memory:"),
            progress=lambda done, total, row: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_status_reports_the_complement(self, tmp_path):
        spec = price_spec()
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            status = campaign_status(spec, wh)
            assert status["rows_total"] == 6
            assert status["rows_done"] == 0
            run_campaign(spec, service=service, warehouse=wh)
            status = campaign_status(spec, wh)
            assert status["rows_done"] == 6
            assert status["rows_missing"] == 0

    def test_storeless_service_gets_memory_warehouse(self):
        service = SolveService(cache=SolveCache())
        wh = warehouse_for_service(service)
        try:
            assert str(wh.path) == ":memory:"
        finally:
            wh.close()


class TestSweepMetrics:
    def test_grid_sweep_reports_the_revenue_star(self, tmp_path):
        spec = price_spec(
            sweep="grid",
            seed_count=1,
            axes={},
            base_params={
                "n_types": 4,
                "prices": [0.8, 1.2],
                "policy_levels": [0.0, 0.5],
            },
        )
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            rec = wh.rows(spec.digest())[0]["metrics"]
            assert rec["price_star"] in (0.8, 1.2)
            assert rec["cap_star"] in (0.0, 0.5)
            assert rec["welfare_max"] >= rec["welfare_mean"]

    def test_dynamics_sweep_reports_the_horizon(self, tmp_path):
        spec = CampaignSpec(
            campaign_id="drv-dyn",
            generator="shocked_market",
            sweep="dynamics",
            seed_count=2,
            base_params={
                "n_shocks": 1,
                "kind": "capacity",
                "horizon": 3,
                "cap": 0.5,
            },
        )
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            for rec in wh.rows(spec.digest()):
                metrics = rec["metrics"]
                assert metrics["survived"] == 1.0
                assert metrics["adoption_final"] > 0.0
                assert np.isfinite(metrics["welfare_min"])

    def test_market_structure_sweep_tracks_concentration(self, tmp_path):
        spec = CampaignSpec(
            campaign_id="drv-olig",
            generator="random_market",
            sweep="market_structure",
            seed_count=1,
            axes={"carriers": (1, 3)},
            base_params={"n_types": 4, "grid_points": 5, "xtol": 1e-2},
        )
        service = store_service(tmp_path)
        with warehouse_for_service(service) as wh:
            run_campaign(spec, service=service, warehouse=wh)
            hhi = wh.metric(spec.digest(), "hhi")
            carriers = wh.metric(spec.digest(), "carriers")
            assert carriers.tolist() == [1.0, 3.0]
            assert hhi[0] == pytest.approx(1.0)
            assert hhi[1] < 1.0


def _with_metadata(scn: ScenarioSpec, **extra) -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id=scn.scenario_id,
        title=scn.title,
        market=scn.market,
        prices=scn.prices,
        policy_levels=scn.policy_levels,
        metadata={**scn.metadata, **extra},
    )


def _small_market() -> ScenarioSpec:
    return scaled_market(
        4, prices=(0.5, 1.0), policy_levels=(0.0,), scenario_id="drv-rows"
    )


class TestRowKinds:
    def test_row_metric_columns_are_documented(self):
        for name, kind in ROW_KINDS.items():
            assert kind.metrics == SWEEP_METRICS[name]
            for metric in kind.metrics:
                assert metric in CAMPAIGN_METRICS, (name, metric)

    @pytest.mark.parametrize(
        "kind, scenario",
        [
            (
                "market_structure",
                lambda: _with_metadata(
                    oligopoly(_small_market(), 2), price_range=[1.0]
                ),
            ),
            (
                "dynamics",
                lambda: _with_metadata(
                    _small_market(), dynamics={"format": "nope"}
                ),
            ),
        ],
    )
    def test_malformed_metadata_fails_before_any_solve(self, kind, scenario):
        service = SolveService(cache=SolveCache())
        with pytest.raises(ModelError):
            ROW_KINDS[kind].solve(scenario(), service)
        assert service.counters.computed == 0

    def test_malformed_competition_campaign_lands_nothing(self):
        spec = CampaignSpec(
            campaign_id="drv-bad",
            generator="random_market",
            sweep="market_structure",
            base_params={"n_types": 4, "price_range": [1.0]},
        )
        service = SolveService(cache=SolveCache())
        with CampaignWarehouse(":memory:") as wh:
            with pytest.raises(ModelError, match="price_range"):
                run_campaign(spec, service=service, warehouse=wh)
            assert wh.count(spec.digest()) == 0
        assert service.counters.computed == 0

    def test_dynamics_row_is_the_declared_trajectory(self):
        scn = trajectory_variant(
            _small_market(), kind="capacity", horizon=3,
            cap=0.5,
        )
        row = ROW_KINDS["dynamics"].solve(scn, SolveService())
        direct = run_trajectory(
            scn.market, dynamics_settings(scn.metadata), service=SolveService()
        )
        for column in ("welfares", "revenues", "capacities", "subsidies"):
            assert np.array_equal(getattr(row, column), getattr(direct, column))

    def test_market_structure_row_is_the_scenarios_competition(self):
        scn = _with_metadata(
            oligopoly(_small_market(), 2), grid_points=5, xtol=1e-2
        )
        row = ROW_KINDS["market_structure"].solve(scn, SolveService())
        settings = competition_settings(scn.metadata)
        direct = solve_oligopoly_competition(
            OligopolyGame.from_scenario(scn, service=SolveService()),
            price_range=settings.price_range,
            grid_points=settings.grid_points,
            xtol=settings.xtol,
            policy=settings.policy,
        )
        assert len(row.state.shares) == 2
        assert row.state.prices == direct.state.prices
