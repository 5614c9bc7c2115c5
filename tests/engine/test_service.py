"""Unit tests for the solve service (task scheduling + two-tier cache)."""

import numpy as np
import pytest

from repro.engine import SolveCache, SolveStore, solve_grid
from repro.engine.grid_engine import cap_row_task
from repro.engine.service import (
    SolveService,
    SolveTask,
    default_service,
    run_task,
    set_default_service,
)
from repro.providers import AccessISP, Market, exponential_cp

# A module-level pure function so tasks pickle for the pool tests.
def _square(x, *, offset=0.0):
    return {"value": np.asarray(x * x + offset, dtype=float)}


def _square_task(x, offset=0.0):
    return SolveTask(
        fn=_square,
        args=(float(x),),
        kwargs=(("offset", float(offset)),),
        key=("square/1", float(x), float(offset)),
        codec="ndarrays",
    )


def small_market():
    return Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 3.0, value=0.6),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )


class TestSolveTask:
    def test_run_task_applies_args_and_kwargs(self):
        assert float(run_task(_square_task(3.0, offset=1.0))["value"]) == 10.0

    def test_unknown_codec_fails_at_construction(self):
        with pytest.raises(KeyError):
            SolveTask(fn=_square, args=(1.0,), key=("k",), codec="nope")


class TestTwoTierResolution:
    def test_memory_tier_hit(self):
        service = SolveService(cache=SolveCache())
        first = service.run(_square_task(2.0))
        second = service.run(_square_task(2.0))
        assert second is first  # identity: memory tier returns the object
        assert service.counters.computed == 1
        assert service.counters.memory_hits == 1

    def test_store_tier_survives_process_cache(self, tmp_path):
        warm = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        value = warm.run(_square_task(3.0))
        # A "new process": fresh memory tier, same store directory.
        cold = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        replay = cold.run(_square_task(3.0))
        assert replay["value"].tobytes() == value["value"].tobytes()
        assert cold.counters.computed == 0
        assert cold.counters.store_hits == 1
        # The store hit was promoted into memory: third call is a memory hit.
        cold.run(_square_task(3.0))
        assert cold.counters.memory_hits == 1

    def test_unkeyed_tasks_always_compute(self):
        service = SolveService(cache=SolveCache())
        task = SolveTask(fn=_square, args=(2.0,), key=None, codec="ndarrays")
        service.run(task)
        service.run(task)
        assert service.counters.computed == 2

    def test_no_tiers_always_computes(self):
        service = SolveService()
        service.run(_square_task(2.0))
        service.run(_square_task(2.0))
        assert service.counters.computed == 2

    def test_clear_memory_keeps_store(self, tmp_path):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        service.run(_square_task(5.0))
        service.clear_memory()
        service.run(_square_task(5.0))
        assert service.counters.store_hits == 1
        assert service.counters.computed == 1

    def test_stats_shape(self, tmp_path):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        service.run(_square_task(1.0))
        stats = service.stats()
        assert stats["computed"] == 1
        assert stats["memory"]["entries"] == 1
        assert stats["store"]["entries"] == 1
        assert SolveService().stats()["store"] is None

    def test_counter_snapshot_matches_stats_without_the_footprint(
        self, tmp_path
    ):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        service.run(_square_task(1.0))
        service.clear_memory()
        service.run(_square_task(1.0))
        snapshot = service.counter_snapshot()
        stats = service.stats()
        for key in ("memory_hits", "store_hits", "computed"):
            assert snapshot[key] == stats[key]
        assert snapshot["store_hits"] == 1 and snapshot["computed"] == 1
        assert snapshot["store"] == {
            key: stats["store"][key] for key in snapshot["store"]
        }
        assert "entries" not in snapshot["store"]
        assert SolveService().counter_snapshot()["store"] is None

    def test_counter_snapshot_never_walks_the_store(
        self, tmp_path, monkeypatch
    ):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        service.run(_square_task(2.0))

        def no_walk(store):
            raise AssertionError("counter_snapshot walked the store")

        monkeypatch.setattr(SolveStore, "_scan", no_walk)
        monkeypatch.setattr(SolveStore, "stats", no_walk)
        assert service.counter_snapshot()["store"]["writes"] == 1

    def test_reset_counters(self, tmp_path):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        service.run(_square_task(1.0))
        service.reset_counters()
        assert service.counters.computed == 0
        assert service.stats()["store"]["writes"] == 0


class TestMap:
    def test_order_preserved_with_mixed_hits(self):
        service = SolveService(cache=SolveCache())
        service.run(_square_task(1.0))
        values = service.map([_square_task(x) for x in (0.0, 1.0, 2.0, 3.0)])
        assert [float(v["value"]) for v in values] == [0.0, 1.0, 4.0, 9.0]
        assert service.counters.memory_hits == 1
        assert service.counters.computed == 4  # 1 pre-warmed + 3 new

    def test_pool_and_sequential_schedules_are_bitwise_equal(self):
        market = small_market()
        prices = np.linspace(0.1, 1.0, 3)
        tasks = lambda: [  # noqa: E731
            cap_row_task(market, prices, cap) for cap in (0.0, 0.4, 0.8, 1.2)
        ]
        sequential = SolveService().map(tasks(), workers=1)
        pooled = SolveService().map(tasks(), workers=4)
        for row_a, row_b in zip(sequential, pooled):
            for a, b in zip(row_a, row_b):
                assert a.subsidies.tobytes() == b.subsidies.tobytes()
                assert a.state.utilization == b.state.utilization

    def test_pool_results_are_committed_to_both_tiers(self, tmp_path):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        market = small_market()
        prices = np.linspace(0.1, 1.0, 3)
        tasks = [cap_row_task(market, prices, cap) for cap in (0.0, 0.5)]
        service.map(tasks, workers=2)
        assert service.counters.computed == 2
        service.map(tasks, workers=2)
        assert service.counters.memory_hits == 2
        assert len(service.store) == 2

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            SolveService().map([_square_task(1.0)], workers=0)
        with pytest.raises(ValueError):
            SolveService().resolve_workers(-3)


class TestDefaultService:
    def test_shared_and_replaceable(self):
        try:
            shared = default_service()
            assert default_service() is shared
            mine = SolveService(cache=SolveCache())
            set_default_service(mine)
            assert default_service() is mine
        finally:
            set_default_service(None)
        rebuilt = default_service()
        assert rebuilt is not mine

    def test_solve_grid_commits_to_the_given_service(self, tmp_path):
        set_default_service(SolveService(cache=SolveCache()))
        try:
            service = SolveService(
                cache=SolveCache(), store=SolveStore(tmp_path)
            )
            grid = solve_grid(
                small_market(),
                np.linspace(0.1, 1.0, 3),
                np.array([0.0, 0.5]),
                service=service,
            )
            assert service.counters.computed == 2
            assert len(service.store) == 2
            assert default_service().counters.computed == 0
            assert default_service().stats()["memory"]["entries"] == 0
        finally:
            set_default_service(None)
        # A compute-only service solves the same rows cold, bit for bit.
        cold = SolveService()
        regrid = solve_grid(
            small_market(),
            np.linspace(0.1, 1.0, 3),
            np.array([0.0, 0.5]),
            service=cold,
        )
        assert cold.counters.computed == 2
        for k in range(2):
            for j in range(3):
                assert (
                    grid.at(k, j).subsidies.tobytes()
                    == regrid.at(k, j).subsidies.tobytes()
                )
