"""Adaptive grid refinement: bitwise parity, solve savings, resumability.

The acceptance contract of :mod:`repro.experiments.refine`:

* every refined node is bitwise-equal to the uniform pointwise grid's
  value at the same ``(price, cap)`` coordinate (same task keys);
* on the §5 grid, refinement reaches the interior resolution of a
  uniform axis ``2**levels`` times finer with at least 2x fewer node
  solves;
* refined results are content-keyed through the same store as any other
  sweep, so a warm replay reports ``computed == 0``;
* the ``refine`` option on :class:`ExperimentSpec` (and the ``--refine``
  CLI flags) routes price and grid sweeps through it.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import SolveCache, SolveService, SolveStore
from repro.exceptions import ModelError
from repro.experiments import (
    POLICY_LEVELS,
    RefineSpec,
    refine_grid,
    scenario_experiment,
    section5_market,
    uniform_pointwise_grid,
)
from repro.experiments.pipeline import ExperimentSpec, PanelSpec, run_spec
from repro.experiments.refine import REFINE_DEFAULTS
from repro.providers import AccessISP, Market, exponential_cp


def fresh_service(store_dir=None) -> SolveService:
    store = SolveStore(store_dir) if store_dir is not None else None
    return SolveService(cache=SolveCache(), store=store)


def tiny_market() -> Market:
    return Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 3.0, value=0.6),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )


class TestRefineSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"levels": 0},
            {"threshold": 0.0},
            {"threshold": -1.0},
            {"quantities": ("nope",)},
            {"quantities": (), "breakpoints": False},
            {"boundary_tol": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ModelError):
            RefineSpec(**kwargs)

    def test_defaults_come_from_one_place(self):
        spec = RefineSpec()
        assert spec.levels == REFINE_DEFAULTS["levels"]
        assert spec.threshold == REFINE_DEFAULTS["threshold"]
        assert spec.quantities == REFINE_DEFAULTS["quantities"]

    def test_axis_validation(self):
        market = tiny_market()
        with pytest.raises(ModelError):
            refine_grid(market, [1.0], [0.0], service=fresh_service())
        with pytest.raises(ModelError):
            refine_grid(market, [0.5, 1.0], [], service=fresh_service())


class TestRefinementSavings:
    """The acceptance benchmark: the §5 grid at 2**3 x coarse resolution."""

    # Class-level cache so the expensive §5 comparison solves once per run.
    _cached = None

    @classmethod
    def _solve(cls, tmp_path_factory):
        if cls._cached is not None:
            return cls._cached
        market = section5_market()
        caps = np.asarray(POLICY_LEVELS)
        coarse = np.round(np.linspace(0.0, 2.0, 11), 10)
        fine = np.round(np.linspace(0.0, 2.0, 81), 10)  # 2**3 x finer
        store_dir = tmp_path_factory.mktemp("refine-store")
        spec = RefineSpec(levels=3, threshold=0.002)

        refine_service = fresh_service(store_dir)
        uniform_service = fresh_service()
        try:
            refined, report = refine_grid(
                market, coarse, caps, spec=spec,
                service=refine_service, workers=2,
            )
            uniform = uniform_pointwise_grid(
                market, fine, caps, service=uniform_service, workers=2
            )
        finally:
            refine_service.close()
            uniform_service.close()
        cls._cached = (refined, report, uniform, caps, fine, store_dir)
        return cls._cached

    def test_reaches_target_resolution_with_2x_fewer_solves(
        self, tmp_path_factory
    ):
        refined, report, uniform, caps, fine, _ = self._solve(
            tmp_path_factory
        )
        uniform_nodes = fine.size * caps.size
        # >= 2x fewer equilibrium solves than the uniform fine grid.
        assert report.node_solves * 2 <= uniform_nodes, (
            f"refinement used {report.node_solves} node solves, uniform "
            f"grid uses {uniform_nodes}"
        )
        # The refined axis reached the uniform grid's interior resolution
        # somewhere: its smallest spacing is the fine grid's spacing.
        spacing = np.diff(refined.prices)
        assert float(np.min(spacing)) == pytest.approx(
            float(fine[1] - fine[0])
        )
        assert report.levels_run == 3
        assert report.final_points == report.coarse_points + sum(
            report.inserted_per_level
        )

    def test_refined_cells_bitwise_equal_uniform(self, tmp_path_factory):
        refined, _, uniform, caps, fine, _ = self._solve(tmp_path_factory)
        fine_index = {float(p): j for j, p in enumerate(fine)}
        shared = 0
        for j, price in enumerate(refined.prices):
            # Midpoints round to the house axis convention, so every
            # refined node must land exactly on the fine axis.
            assert float(price) in fine_index
            for k in range(caps.size):
                a = refined.at(k, j)
                b = uniform.at(k, fine_index[float(price)])
                assert a.subsidies.tobytes() == b.subsidies.tobytes()
                assert a.state.welfare == b.state.welfare
                assert a.state.revenue == b.state.revenue
                shared += 1
        assert shared == refined.prices.size * caps.size

    def test_warm_replay_computes_nothing(self, tmp_path_factory):
        _, report, _, caps, _, store_dir = self._solve(tmp_path_factory)
        market = section5_market()
        coarse = np.round(np.linspace(0.0, 2.0, 11), 10)
        replay_service = fresh_service(store_dir)
        _, replay_report = refine_grid(
            market, coarse, caps,
            spec=RefineSpec(levels=3, threshold=0.002),
            service=replay_service, workers=2,
        )
        assert replay_report.node_solves == report.node_solves
        assert replay_service.counters.computed == 0
        assert replay_service.counters.store_hits == report.node_solves


class TestRefinementMechanics:
    def test_flat_grid_stops_early(self):
        # A generous threshold flags nothing: zero levels run, coarse
        # axis comes back unchanged.
        market = tiny_market()
        coarse = np.round(np.linspace(0.2, 1.0, 5), 10)
        grid, report = refine_grid(
            market, coarse, [0.0, 0.5],
            spec=RefineSpec(levels=3, threshold=1e6, breakpoints=False),
            service=fresh_service(),
        )
        assert report.levels_run == 0
        assert report.inserted_per_level == ()
        assert grid.prices.tolist() == coarse.tolist()
        assert report.node_solves == coarse.size * 2

    def test_uniform_pointwise_grid_shares_tasks_with_refinement(self):
        market = tiny_market()
        axis = np.round(np.linspace(0.2, 1.0, 5), 10)
        service = fresh_service()
        uniform_pointwise_grid(market, axis, [0.0], service=service)
        first_pass = service.counters.computed
        # The same nodes issued by refine_grid resolve from memory.
        refine_grid(
            market, axis, [0.0],
            spec=RefineSpec(levels=1, threshold=1e6, breakpoints=False),
            service=service,
        )
        assert service.counters.computed == first_pass


class TestExperimentSpecIntegration:
    def test_refined_price_sweep_stays_on_the_zero_cap_row(self):
        # A price sweep refines its q = 0 row only, whatever the
        # scenario's policy axis.
        from repro.scenarios import ScenarioSpec

        prices = tuple(np.round(np.linspace(0.1, 1.3, 7), 10))
        scn = ScenarioSpec(
            scenario_id="refine-price",
            title="tiny refined price sweep",
            market=tiny_market(),
            prices=prices,
            policy_levels=(0.0, 0.5),
        )
        refine = RefineSpec(levels=1, threshold=0.002)
        spec = ExperimentSpec(
            experiment_id="refine-price",
            title="refined price sweep",
            scenario=scn,
            sweep="price",
            panels=(PanelSpec("refine-price-revenue", "R", "revenue", "R"),),
            refine=refine,
        )
        (figure,) = run_spec(spec, service=fresh_service()).figures
        grid, _ = refine_grid(
            tiny_market(), prices, (0.0,), spec=refine, service=fresh_service()
        )
        assert set(prices) <= set(figure.x.tolist())
        assert figure.x.tobytes() == grid.prices.tobytes()
        (series,) = figure.series
        revenue = grid.quantity(lambda eq: eq.state.revenue)[0]
        assert series.y.tobytes() == revenue.tobytes()

    def test_refined_sweep_through_the_pipeline(self):
        # The refine option routes a grid sweep through refine_grid and
        # the result still satisfies the generic model-level checks.
        from repro.scenarios import ScenarioSpec

        scn = ScenarioSpec(
            scenario_id="refine-smoke",
            title="tiny refinement smoke scenario",
            market=tiny_market(),
            prices=tuple(np.round(np.linspace(0.1, 1.3, 7), 10)),
            policy_levels=(0.0, 0.5),
        )
        base = scenario_experiment(scn)
        refined_spec = dataclasses.replace(
            base, refine=RefineSpec(levels=1, threshold=0.002)
        )
        service = fresh_service()
        result = run_spec(refined_spec, service=service)
        assert result.all_passed()
        # The same spec without refinement passes identically.
        plain = run_spec(base, service=service)
        assert plain.all_passed()
