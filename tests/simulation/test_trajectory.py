"""The dynamics subsystem: specs, the trajectory task, golden parity, replay.

The guarantees, held exactly:

* a service-backed trajectory is **bitwise-identical** to the frozen
  ``float.hex`` values of the straight-line loops and (``"subsidies"``
  kind) to ``MarketSimulation.run`` up to its first shock, for any
  horizon and shock schedule;
* a trajectory is one store entry, and a warm persistent store replays a
  ``T >= 20``-step trajectory with **zero** recomputed equilibrium solves
  (``computed == 0``) and byte-identical arrays.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import SolveCache, SolveService, SolveStore
from repro.exceptions import ModelError
from repro.providers import AccessISP, Market, exponential_cp
from repro.scenarios import scaled_market, shocked_market, trajectory_variant
from repro.simulation import (
    DYNAMICS_FORMAT,
    DynamicsSpec,
    MarketSimulation,
    Shock,
    SimulationConfig,
    dynamics_settings,
    run_trajectory,
    trajectory_task,
)
from repro.simulation.agents import BestResponseStrategy


#: The straight-line loops' outputs on ``two_cp_market``, frozen as
#: ``float.hex`` strings (nested like the arrays) per case and column.
FROZEN = json.loads(
    Path(__file__).with_name("frozen_trajectories.json").read_text()
)

#: Every per-period column of a :class:`DynamicsTrajectory`.
COLUMNS = (
    "steps", "subsidies", "populations", "utilizations", "throughputs",
    "utilities", "revenues", "welfares", "capacities", "prices",
)

#: Frozen ``"subsidies"`` cases: the spec and the run's initial state.
SUBSIDY_CASES = {
    "subsidies/default": (
        DynamicsSpec(kind="subsidies", horizon=8, cap=1.0),
        {},
    ),
    "subsidies/damped": (
        DynamicsSpec(
            kind="subsidies",
            horizon=5,
            cap=0.8,
            damping=0.6,
            inertia=0.4,
            update="simultaneous",
        ),
        {},
    ),
    "subsidies/inertial": (
        DynamicsSpec(
            kind="subsidies", horizon=6, cap=1.0, inertia=0.3
        ),
        {},
    ),
    "subsidies/initial": (
        DynamicsSpec(kind="subsidies", horizon=4, cap=1.0),
        {"initial_subsidies": [0.3, 0.1], "initial_populations": [0.2, 0.2]},
    ),
}

#: Frozen ``"capacity"`` cases: a fixed and a re-optimized price.
CAPACITY_CASES = {
    "capacity/fixed_price": DynamicsSpec(
        kind="capacity",
        horizon=6,
        cap=0.5,
        reinvestment_rate=0.3,
        depreciation=0.05,
    ),
    "capacity/reoptimized_price": DynamicsSpec(
        kind="capacity",
        horizon=2,
        cap=0.5,
        reoptimize_price=True,
        price_range=(0.2, 2.0),
    ),
}


def hexed(values) -> list:
    """``values`` as nested lists of ``float.hex`` strings."""
    array = np.asarray(values, dtype=float)
    return np.vectorize(float.hex, otypes=[object])(array).tolist()


def assert_frozen(case: str, column) -> None:
    """Every frozen column of ``case`` equals ``column(name)`` bit for bit."""
    for name, values in FROZEN[case].items():
        assert hexed(column(name)) == values, f"{case}: {name}"


def simulation_for(market, spec: DynamicsSpec) -> MarketSimulation:
    """The straight-line simulator a ``"subsidies"`` spec describes."""
    return MarketSimulation(
        market,
        spec.cap,
        strategies=[
            BestResponseStrategy(damping=spec.damping) for _ in market.providers
        ],
        config=SimulationConfig(
            population_inertia=spec.inertia, update=spec.update
        ),
    )


def fresh_service(store_dir=None) -> SolveService:
    store = SolveStore(store_dir) if store_dir is not None else None
    return SolveService(cache=SolveCache(), store=store)


class TestShock:
    def test_validates_fields(self):
        with pytest.raises(ModelError):
            Shock(step=0, field="capacity", scale=1.1)
        with pytest.raises(ModelError):
            Shock(step=1, field="demand", scale=1.1)
        with pytest.raises(ModelError):
            Shock(step=1, field="price", scale=0.0)
        with pytest.raises(ModelError):
            Shock(step=1, field="price", scale=float("nan"))


class TestDynamicsSpec:
    def test_defaults_are_valid(self):
        spec = DynamicsSpec()
        assert spec.kind == "capacity"
        assert spec.horizon >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nope"},
            {"horizon": 0},
            {"horizon": True},
            {"horizon": 2.5},
            {"cap": -1.0},
            {"inertia": 0.0},
            {"update": "random"},
            {"damping": 1.5},
            {"reinvestment_rate": 2.0},
            {"capacity_cost": 0.0},
            {"depreciation": 1.0},
            {"price_range": (2.0, 1.0)},
            {"price_range": (0.0, float("inf"))},
            {"price_range": (-1.0, 2.0)},
            {"reoptimize_price": "no"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ModelError):
            DynamicsSpec(**kwargs)

    def test_shock_beyond_horizon_rejected(self):
        with pytest.raises(ModelError):
            DynamicsSpec(horizon=5, shocks=(Shock(6, "price", 0.9),))

    def test_duplicate_shock_rejected(self):
        with pytest.raises(ModelError):
            DynamicsSpec(
                horizon=5,
                shocks=(Shock(3, "price", 0.9), Shock(3, "price", 1.1)),
            )

    def test_shocks_normalized_sorted(self):
        spec = DynamicsSpec(
            horizon=9,
            shocks=(Shock(7, "price", 0.9), Shock(2, "capacity", 1.1)),
        )
        assert [k.step for k in spec.shocks] == [2, 7]

    def test_metadata_round_trip(self):
        spec = DynamicsSpec(
            kind="subsidies",
            horizon=7,
            cap=1.5,
            inertia=0.5,
            update="simultaneous",
            damping=0.8,
            shocks=(Shock(4, "capacity", 0.75),),
        )
        block = spec.to_metadata()
        assert block["format"] == DYNAMICS_FORMAT
        assert DynamicsSpec.from_dict(json.loads(json.dumps(block))) == spec

    @pytest.mark.parametrize(
        "payload",
        [
            "not a mapping",
            {"format": "repro-dynamics/2"},
            {"format": DYNAMICS_FORMAT, "unknown_knob": 1},
            {"format": DYNAMICS_FORMAT, "segment_length": 5},
            {"format": DYNAMICS_FORMAT, "shocks": [{"step": 1}]},
            {
                "format": DYNAMICS_FORMAT,
                "shocks": [{"step": "x", "field": "price", "scale": 0.9}],
            },
            {
                "format": DYNAMICS_FORMAT,
                "shocks": [
                    {"step": float("nan"), "field": "price", "scale": 0.9}
                ],
            },
            {"format": DYNAMICS_FORMAT, "reoptimize_price": "no"},
            {"format": DYNAMICS_FORMAT, "horizon": True},
            {"format": DYNAMICS_FORMAT, "price_range": [0.0, float("inf")]},
            {"format": DYNAMICS_FORMAT, "price_range": [-1.0, 2.0]},
        ],
    )
    def test_from_dict_rejects_garbage(self, payload):
        with pytest.raises(ModelError):
            DynamicsSpec.from_dict(payload)

    def test_from_dict_wraps_unconvertible_values_as_model_error(self):
        # Conversion failures (ValueError, not just TypeError) must come
        # back as ModelError — the documented funnel contract.
        with pytest.raises(ModelError):
            DynamicsSpec.from_dict(
                {"format": DYNAMICS_FORMAT, "horizon": "ten"}
            )
        with pytest.raises(ModelError):
            DynamicsSpec.from_dict(
                {"format": DYNAMICS_FORMAT, "price_range": ["a", "b"]}
            )

    def test_price_shock_under_reoptimization_rejected(self):
        # optimal_price would silently discard the shocked price, so the
        # combination is a spec error, not a quiet no-op.
        with pytest.raises(ModelError, match="no-op"):
            DynamicsSpec(
                kind="capacity",
                reoptimize_price=True,
                shocks=(Shock(3, "price", 0.5),),
            )
        # Capacity shocks (and the subsidies kind) remain fine.
        DynamicsSpec(
            kind="capacity",
            reoptimize_price=True,
            shocks=(Shock(3, "capacity", 0.5),),
        )
        DynamicsSpec(
            kind="subsidies",
            reoptimize_price=True,
            shocks=(Shock(3, "price", 0.5),),
        )

    def test_non_shock_entries_rejected_as_model_error(self):
        with pytest.raises(ModelError):
            DynamicsSpec(shocks=({"step": 1, "field": "price", "scale": 0.9},))
        with pytest.raises(ModelError):
            dynamics_settings(
                overrides={"shocks": [{"step": 1, "field": "price", "scale": 0.9}]}
            )


class TestDynamicsSettings:
    def test_defaults_without_metadata(self):
        assert dynamics_settings() == DynamicsSpec()

    def test_metadata_block_wins_over_defaults(self):
        block = DynamicsSpec(horizon=9).to_metadata()
        assert dynamics_settings({"dynamics": block}).horizon == 9

    def test_overrides_win_over_metadata(self):
        block = DynamicsSpec(horizon=9).to_metadata()
        spec = dynamics_settings(
            {"dynamics": block}, overrides={"horizon": 4, "cap": None}
        )
        assert spec.horizon == 4
        assert spec.cap == DynamicsSpec().cap

    def test_unknown_override_rejected(self):
        with pytest.raises(ModelError):
            dynamics_settings(overrides={"carriers": 3})

    def test_malformed_metadata_rejected(self):
        with pytest.raises(ModelError):
            dynamics_settings({"dynamics": {"format": "wrong"}})


class TestMarketSimulationFrozen:
    @pytest.mark.parametrize("case", sorted(SUBSIDY_CASES))
    def test_run_matches_frozen_values(self, two_cp_market, case):
        """The straight-line simulator == its frozen values."""
        spec, initial = SUBSIDY_CASES[case]
        trajectory = simulation_for(two_cp_market, spec).run(
            spec.horizon, **initial
        )
        assert_frozen(case, lambda name: getattr(trajectory, name))
        assert trajectory.kind == "subsidies"
        assert np.all(trajectory.capacities == two_cp_market.isp.capacity)
        assert np.all(trajectory.prices == two_cp_market.isp.price)


class TestSubsidiesGolden:
    @pytest.mark.parametrize("case", sorted(SUBSIDY_CASES))
    def test_task_matches_frozen_values(self, two_cp_market, case):
        """The service-backed task == the frozen straight-line loop."""
        spec, initial = SUBSIDY_CASES[case]
        trajectory = run_trajectory(
            two_cp_market, spec, service=fresh_service(), **initial
        )
        assert_frozen(case, lambda name: getattr(trajectory, name))


class TestCapacityGolden:
    @pytest.mark.parametrize("case", sorted(CAPACITY_CASES))
    def test_task_matches_frozen_values(self, two_cp_market, case):
        """The service-backed task == the frozen expansion loop."""
        spec = CAPACITY_CASES[case]
        trajectory = run_trajectory(
            two_cp_market, spec, service=fresh_service()
        )
        assert_frozen(case, lambda name: getattr(trajectory, name))

    def test_rejects_initial_state(self, two_cp_market):
        with pytest.raises(ModelError):
            run_trajectory(
                two_cp_market,
                DynamicsSpec(kind="capacity", horizon=2),
                service=fresh_service(),
                initial_subsidies=[0.0, 0.0],
            )


class TestShocks:
    def test_capacity_shock_scales_the_link(self, two_cp_market):
        spec = DynamicsSpec(
            kind="capacity",
            horizon=4,
            cap=0.5,
            shocks=(Shock(3, "capacity", 0.5),),
        )
        shocked = run_trajectory(two_cp_market, spec, service=fresh_service())
        base = run_trajectory(
            two_cp_market,
            dataclasses.replace(spec, shocks=()),
            service=fresh_service(),
        )
        # Identical until the shock lands, halved capacity at step 3.
        assert np.array_equal(shocked.capacities[:3], base.capacities[:3])
        assert shocked.capacities[3] == 0.5 * base.capacities[3]
        assert shocked.revenues[3] != base.revenues[3]

    def test_price_shock_on_subsidies_kind(self, two_cp_market):
        spec = DynamicsSpec(
            kind="subsidies",
            horizon=4,
            cap=1.0,
            shocks=(Shock(2, "price", 1.25),),
        )
        shocked = run_trajectory(two_cp_market, spec, service=fresh_service())
        assert np.all(shocked.prices[:2] == 1.0)
        assert np.all(shocked.prices[2:] == 1.25)
        base = MarketSimulation(two_cp_market, cap=1.0).run(4)
        assert np.array_equal(shocked.welfares[:2], base.welfares[:2])
        assert not np.array_equal(shocked.welfares[2:], base.welfares[2:])


#: Shock schedules over horizons up to 6: (step, field, scale) entries;
#: entries past the drawn horizon and repeated (step, field) pairs drop.
SHOCK_SCHEDULES = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.sampled_from(("capacity", "price")),
        st.sampled_from((0.5, 0.8, 1.25)),
    ),
    max_size=3,
)


class TestReplayProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(("subsidies", "capacity")),
        horizon=st.integers(1, 6),
        schedule=SHOCK_SCHEDULES,
    )
    @example(kind="subsidies", horizon=6, schedule=[])
    @example(
        kind="subsidies",
        horizon=6,
        schedule=[(3, "capacity", 0.8), (5, "price", 1.1)],
    )
    @example(kind="subsidies", horizon=3, schedule=[(1, "price", 0.8)])
    def test_cold_run_equals_warm_replay_and_straight_line(
        self, kind, horizon, schedule
    ):
        market = Market(
            [
                exponential_cp(5.0, 2.0, value=1.0, name="big"),
                exponential_cp(2.0, 5.0, value=0.4, name="small"),
            ],
            AccessISP(price=1.0, capacity=1.0),
        )
        shocks = {
            (step, field): scale
            for step, field, scale in schedule
            if step <= horizon
        }
        spec = DynamicsSpec(
            kind=kind,
            horizon=horizon,
            cap=0.5,
            shocks=tuple(Shock(*key, scale) for key, scale in shocks.items()),
        )
        with tempfile.TemporaryDirectory() as store_dir:
            cold_service = fresh_service(store_dir)
            cold = run_trajectory(market, spec, service=cold_service)
            warm_service = fresh_service(store_dir)
            warm = run_trajectory(market, spec, service=warm_service)
        assert cold_service.counters.computed == 1
        assert warm_service.counters.computed == 0
        assert warm_service.counters.store_hits == 1
        assert cold.steps.tolist() == list(range(horizon + 1))
        for name in COLUMNS:
            assert hexed(getattr(warm, name)) == hexed(getattr(cold, name)), name
        if kind == "subsidies":
            # The straight-line run holds the market fixed, so it agrees
            # up to the period before the first shock lands.
            end = min((step for step, _ in shocks), default=horizon + 1)
            straight = simulation_for(market, spec).run(horizon)
            for name in COLUMNS:
                assert np.array_equal(
                    getattr(cold, name)[:end], getattr(straight, name)[:end]
                ), name


class TestWarmStoreResume:
    def test_warm_replay_of_20_step_trajectory_is_solve_free(
        self, two_cp_market, tmp_path
    ):
        """The acceptance claim: T >= 20, warm replay, computed == 0."""
        spec = DynamicsSpec(
            kind="capacity", horizon=20, cap=0.5
        )
        cold_service = fresh_service(tmp_path)
        cold = run_trajectory(two_cp_market, spec, service=cold_service)
        assert cold_service.counters.computed == 1
        assert len(cold_service.store) == 1

        warm_service = fresh_service(tmp_path)  # fresh memory, warm store
        warm = run_trajectory(two_cp_market, spec, service=warm_service)
        assert warm_service.counters.computed == 0
        assert warm_service.counters.store_hits == 1
        for name in COLUMNS:
            assert np.array_equal(getattr(warm, name), getattr(cold, name)), name

    def test_memory_tier_replay_within_one_service(self, two_cp_market):
        spec = DynamicsSpec(kind="subsidies", horizon=4)
        service = fresh_service()
        run_trajectory(two_cp_market, spec, service=service)
        computed = service.counters.computed
        run_trajectory(two_cp_market, spec, service=service)
        assert service.counters.computed == computed
        assert service.counters.memory_hits == 1

    def test_spec_change_misses_the_cache(self, two_cp_market, tmp_path):
        service = fresh_service(tmp_path)
        spec = DynamicsSpec(kind="capacity", horizon=4)
        run_trajectory(two_cp_market, spec, service=service)
        before = service.counters.computed
        run_trajectory(
            two_cp_market,
            dataclasses.replace(spec, cap=1.0),
            service=service,
        )
        assert service.counters.computed > before


class TestTrajectoryObject:
    def test_shape_and_accessors(self, two_cp_market):
        spec = DynamicsSpec(kind="subsidies", horizon=5)
        trajectory = run_trajectory(
            two_cp_market, spec, service=fresh_service()
        )
        assert trajectory.horizon == 5
        assert trajectory.size == 2
        assert trajectory.steps.tolist() == list(range(6))
        assert trajectory.adoption().shape == (6,)
        assert trajectory.aggregate_throughputs().shape == (6,)

    def test_to_csv(self, two_cp_market, tmp_path):
        spec = DynamicsSpec(kind="capacity", horizon=2)
        trajectory = run_trajectory(
            two_cp_market, spec, service=fresh_service()
        )
        path = tmp_path / "trajectory.csv"
        trajectory.to_csv(path, labels=two_cp_market.provider_names())
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 periods
        assert lines[0].startswith("step,utilization,revenue,welfare,capacity")
        with pytest.raises(ModelError):
            trajectory.to_csv(path, labels=["only-one"])

    def test_task_key_is_content_addressed(self, two_cp_market):
        spec = DynamicsSpec(kind="subsidies", horizon=4)
        s = np.zeros(2)
        m = np.full(2, 0.5)
        task_a = trajectory_task(two_cp_market, spec, s, m)
        task_b = trajectory_task(two_cp_market, spec, s.copy(), m.copy())
        assert task_a.key == task_b.key
        assert trajectory_task(two_cp_market, spec, s, m + 0.1).key != task_a.key
        changed = dataclasses.replace(spec, cap=0.5)
        assert trajectory_task(two_cp_market, changed, s, m).key != task_a.key
        wider = Market(
            two_cp_market.providers, two_cp_market.isp.with_capacity(2.0)
        )
        assert trajectory_task(wider, spec, s, m).key != task_a.key


class TestScenarioTrajectories:
    """The trajectory a scenario's own metadata declares, run directly."""

    @pytest.fixture(scope="class")
    def shocked(self):
        base = scaled_market(
            4,
            prices=(0.5, 1.0),
            policy_levels=(0.0,),
            scenario_id="dyn-shock-base",
        )
        scn = shocked_market(
            base, seed=11, horizon=4, n_shocks=2,
            scenario_id="dyn-shock",
        )
        spec = dynamics_settings(scn.metadata)
        return spec, run_trajectory(scn.market, spec, service=fresh_service())

    def test_shocked_trajectory_covers_its_horizon(self, shocked):
        spec, trajectory = shocked
        assert spec.shocks
        assert trajectory.horizon == spec.horizon

    @pytest.mark.parametrize("column", COLUMNS)
    def test_shocked_trajectory_stays_finite(self, shocked, column):
        assert np.all(np.isfinite(getattr(shocked[1], column)))

    def test_shocked_trajectory_keeps_utilization_non_negative(self, shocked):
        _, trajectory = shocked
        assert np.all(trajectory.utilizations >= 0.0)
        assert np.all(trajectory.adoption() >= 0.0)

    def test_unshocked_reinvestment_never_shrinks_capacity(self):
        base = scaled_market(
            4,
            prices=(0.5, 1.0, 1.5),
            policy_levels=(0.0, 1.0),
            scenario_id="dyn-grow-base",
        )
        scn = trajectory_variant(
            base, kind="capacity", horizon=3, cap=0.5,
            scenario_id="dyn-grow",
        )
        spec = dynamics_settings(scn.metadata)
        assert spec.kind == "capacity"
        assert not spec.shocks and spec.depreciation == 0.0
        trajectory = run_trajectory(scn.market, spec, service=fresh_service())
        assert trajectory.horizon == 3
        assert np.all(np.diff(trajectory.capacities) >= -1e-12)
