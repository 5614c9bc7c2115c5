"""The executor layer: fast paths, pool lifecycle, incremental commit, parity.

The contract under test (see :mod:`repro.engine.executors`):

* every service owns one :class:`PoolExecutor` and reports its counters;
* a batch's worker count resolves in one place: explicit per call >
  process default > ``$REPRO_WORKERS`` > 1;
* one-task batches (and ``workers == 1``) run inline and never spawn a
  worker pool;
* the pool persists across batches and respawns only when the worker
  count or requested backend changes;
* results commit to the cache tiers *as they complete*, so a batch
  killed midway loses only the unfinished rows;
* the inline (one worker) and pooled (two workers) schedules produce
  bitwise-identical results — and identical store contents — for grids,
  oligopoly rounds and dynamics trajectories, under the numpy and
  compiled backends.
"""

import threading
import time

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.competition import (
    IterationPolicy,
    OligopolyGame,
    solve_oligopoly_competition,
)
from repro.engine import (
    PoolExecutor,
    SolveCache,
    SolveService,
    SolveStore,
    set_default_workers,
    solve_grid,
)
from repro.engine.service import SolveTask
from repro.providers import AccessISP, Market, exponential_cp
from repro.simulation import DynamicsSpec, run_trajectory


def _backends() -> list[str]:
    names = ["numpy"]
    if available_backends()["compiled"] == "resolves to cext":
        names.append("compiled")
    return names


BACKENDS = _backends()


# Module-level pure functions so tasks pickle for the worker pool.
def _square(x, *, offset=0.0):
    return {"value": np.asarray(x * x + offset, dtype=float)}


def _square_task(x, offset=0.0):
    return SolveTask(
        fn=_square,
        args=(float(x),),
        kwargs=(("offset", float(offset)),),
        key=("exec-square/1", float(x), float(offset)),
        codec="ndarrays",
    )


def _fragile(x, *, fail=False):
    if fail:
        raise RuntimeError(f"task {x} interrupted")
    return {"value": np.asarray(2.0 * x, dtype=float)}


def _fragile_task(x, fail=False):
    # ``fail`` is deliberately NOT part of the key: the rerun of an
    # interrupted batch issues the *same* tasks, minus the interruption.
    return SolveTask(
        fn=_fragile,
        args=(float(x),),
        kwargs=(("fail", bool(fail)),),
        key=("exec-fragile/1", float(x)),
        codec="ndarrays",
    )


def _slow(x, *, delay=0.0):
    time.sleep(delay)
    return {"value": np.asarray(3.0 * x, dtype=float)}


def _slow_task(x, delay=0.0):
    # ``delay`` is not part of the key: the rerun of an interrupted batch
    # issues the same tasks without the artificial slowness.
    return SolveTask(
        fn=_slow,
        args=(float(x),),
        kwargs=(("delay", float(delay)),),
        key=("exec-slow/1", float(x)),
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


def store_listing(path) -> list[str]:
    """Every store file as a root-relative path — *file-level* layout,
    shard directories included, so two listings agreeing means the
    stores are interchangeable on disk, not merely equal in content."""
    return sorted(
        str(p.relative_to(path)) for p in path.rglob("*") if p.is_file()
    )


class TestServiceExecutor:
    def test_service_owns_one_pool_executor(self):
        service = SolveService(cache=SolveCache())
        assert isinstance(service.executor, PoolExecutor)
        assert SolveService().executor is not service.executor

    def test_stats_surface_executor(self):
        service = SolveService(cache=SolveCache())
        service.map([_square_task(1.0)])
        stats = service.stats()["executor"]
        assert stats == service.executor.stats()
        assert set(stats) == {
            "batches", "tasks", "inline_tasks", "pooled_tasks",
            "pool_spawns", "pool_reuses",
        }
        assert stats["tasks"] == 1


class TestWorkerResolution:
    """``SolveService.resolve_workers`` is the one place a batch's worker
    count is chosen: explicit per call > process default > $REPRO_WORKERS > 1."""

    @pytest.fixture(autouse=True)
    def _clean_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        set_default_workers(None)
        yield
        set_default_workers(None)

    def test_builtin_default_is_one_inline_worker(self):
        assert SolveService.resolve_workers(None) == 1
        service = SolveService(cache=SolveCache())
        service.map([_square_task(x) for x in (1.0, 2.0, 3.0)])
        stats = service.executor.stats()
        assert stats["inline_tasks"] == 3
        assert stats["pool_spawns"] == 0

    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert SolveService.resolve_workers(None) == 3

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        set_default_workers(2)
        assert SolveService.resolve_workers(None) == 2

    def test_explicit_beats_default_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        set_default_workers(2)
        assert SolveService.resolve_workers(4) == 4
        assert SolveService.resolve_workers(1) == 1

    def test_map_follows_process_default(self):
        set_default_workers(2)
        service = SolveService(cache=SolveCache())
        try:
            values = service.map([_square_task(x) for x in (1.0, 2.0)])
            assert [float(v["value"]) for v in values] == [1.0, 4.0]
            stats = service.executor.stats()
            assert stats["pooled_tasks"] == 2
            assert stats["pool_spawns"] == 1
        finally:
            service.close()

    def test_explicit_workers_override_default_in_map(self):
        set_default_workers(2)
        service = SolveService(cache=SolveCache())
        service.map([_square_task(x) for x in (1.0, 2.0)], workers=1)
        stats = service.executor.stats()
        assert stats["inline_tasks"] == 2
        assert stats["pool_spawns"] == 0

    def test_invalid_workers_rejected_before_any_work(self):
        service = SolveService(cache=SolveCache())
        with pytest.raises(ValueError, match="at least 1"):
            service.map([_square_task(x) for x in (1.0, 2.0)], workers=0)
        with pytest.raises(ValueError, match="at least 1"):
            set_default_workers(-1)
        assert service.executor.stats()["tasks"] == 0
        assert service.inflight == 0


class TestInlineFastPath:
    """One-task batches (and workers == 1) never touch a worker pool."""

    def test_single_task_batch_never_spawns(self):
        service = SolveService(cache=SolveCache())
        (value,) = service.map([_square_task(3.0)], workers=4)
        assert float(value["value"]) == 9.0
        stats = service.executor.stats()
        assert stats["inline_tasks"] == 1
        assert stats["pooled_tasks"] == 0
        assert stats["pool_spawns"] == 0

    def test_workers_one_runs_inline(self):
        service = SolveService(cache=SolveCache())
        values = service.map(
            [_square_task(x) for x in (1.0, 2.0, 3.0)], workers=1
        )
        assert [float(v["value"]) for v in values] == [1.0, 4.0, 9.0]
        assert service.executor.stats()["pool_spawns"] == 0
        assert service.executor.stats()["inline_tasks"] == 3


    def test_cached_rows_never_reach_the_executor(self):
        service = SolveService(cache=SolveCache())
        service.map([_square_task(x) for x in (1.0, 2.0, 3.0)], workers=1)
        values = service.map(
            [_square_task(x) for x in (1.0, 2.0, 3.0, 4.0)], workers=2
        )
        assert [float(v["value"]) for v in values] == [1.0, 4.0, 9.0, 16.0]
        stats = service.executor.stats()
        # Only the one miss was scheduled, so the batch ran inline.
        assert stats["tasks"] == 4
        assert stats["inline_tasks"] == 4
        assert stats["pool_spawns"] == 0

class TestPoolPersistence:
    def test_pool_survives_across_batches(self):
        service = SolveService(cache=SolveCache())
        try:
            service.map([_square_task(x) for x in (1.0, 2.0)], workers=2)
            service.map([_square_task(x) for x in (3.0, 4.0)], workers=2)
            stats = service.executor.stats()
            assert stats["pool_spawns"] == 1
            assert stats["pool_reuses"] == 1
        finally:
            service.close()

    def test_worker_count_change_respawns(self):
        service = SolveService(cache=SolveCache())
        try:
            service.map([_square_task(x) for x in (1.0, 2.0)], workers=2)
            service.map([_square_task(x) for x in (3.0, 4.0)], workers=3)
            assert service.executor.stats()["pool_spawns"] == 2
        finally:
            service.close()

    def test_shutdown_is_idempotent(self):
        executor = PoolExecutor()
        executor.shutdown()
        executor.shutdown()

    def test_service_close_shuts_executors_down(self):
        service = SolveService(cache=SolveCache())
        service.map([_square_task(x) for x in (1.0, 2.0)], workers=2)
        service.close()
        assert service.executor._pool is None


    def test_pool_spawns_lazily(self):
        service = SolveService(cache=SolveCache())
        assert service.executor._pool is None
        assert set(service.executor.stats().values()) == {0}

    def test_pooled_results_keep_task_order(self):
        # Earlier tasks sleep longer, so they complete last; map still
        # returns values in task order.
        service = SolveService(cache=SolveCache())
        try:
            xs = (1.0, 2.0, 3.0, 4.0)
            values = service.map(
                [_slow_task(x, delay=0.1 * (4 - x)) for x in xs], workers=2
            )
            assert [float(v["value"]) for v in values] == [3.0 * x for x in xs]
            assert service.executor.stats()["pooled_tasks"] == len(xs)
        finally:
            service.close()

    def test_closed_service_respawns_on_next_batch(self):
        service = SolveService(cache=SolveCache())
        try:
            service.map([_square_task(x) for x in (1.0, 2.0)], workers=2)
            service.close()
            values = service.map(
                [_square_task(x) for x in (3.0, 4.0)], workers=2
            )
            assert [float(v["value"]) for v in values] == [9.0, 16.0]
            assert service.executor.stats()["pool_spawns"] == 2
        finally:
            service.close()

class TestIncrementalCommit:
    """Results land in the cache tiers as they complete, not per batch."""

    def test_interrupted_batch_keeps_completed_rows(self, tmp_path):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        tasks = [
            _fragile_task(1.0),
            _fragile_task(2.0, fail=True),  # the "kill" mid-batch
            _fragile_task(3.0),
        ]
        with pytest.raises(RuntimeError):
            service.map(tasks)
        # The row completed before the interruption is already persisted.
        assert len(service.store) == 1

        # Warm rerun of the same batch: only the lost rows recompute.
        rerun = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        values = rerun.map([_fragile_task(x) for x in (1.0, 2.0, 3.0)])
        assert [float(v["value"]) for v in values] == [2.0, 4.0, 6.0]
        assert rerun.counters.store_hits == 1
        assert rerun.counters.computed == 2

    def test_pooled_batches_commit_incrementally(self, tmp_path):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        try:
            committed = []
            original = service._commit

            def spying_commit(task, value):
                committed.append(task.key)
                return original(task, value)

            service._commit = spying_commit
            service.map([_square_task(x) for x in (5.0, 6.0, 7.0)], workers=2)
            assert len(committed) == 3
            assert len(service.store) == 3
        finally:
            service.close()


class TestCloseDuringBatch:
    """service.close() mid-batch: queued work cancels, the store survives."""

    def test_close_midbatch_leaves_store_readable(self, tmp_path):
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        xs = [float(x) for x in range(1, 7)]
        failures: list[BaseException] = []

        def run_batch():
            try:
                service.map(
                    [_slow_task(x, delay=0.25) for x in xs], workers=2
                )
            except BaseException as exc:  # CancelledError is a BaseException
                failures.append(exc)

        thread = threading.Thread(target=run_batch, daemon=True)
        thread.start()
        # Wait for the first commit so the close genuinely interrupts a
        # batch that has landed partial work (on a slow machine the batch
        # may still finish whole — the assertions below hold either way).
        deadline = time.time() + 30.0
        while (
            time.time() < deadline
            and thread.is_alive()
            and len(service.store) == 0
        ):
            time.sleep(0.02)
        service.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert service.inflight == 0  # the gauge recovered from the cancel

        # Every committed entry decodes — nothing is torn — and a warm
        # rerun recomputes exactly the rows the cancel lost.
        survivors = 0
        check = SolveStore(tmp_path)
        for x in xs:
            value = check.get(("exec-slow/1", float(x)))
            if value is not None:
                assert float(value["value"]) == 3.0 * x
                survivors += 1
        assert survivors == len(check)
        rerun = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        values = rerun.map([_slow_task(x) for x in xs])
        assert [float(v["value"]) for v in values] == [3.0 * x for x in xs]
        assert rerun.counters.store_hits == survivors
        assert rerun.counters.computed == len(xs) - survivors

    def test_close_cancels_queued_tasks_and_unblocks_the_batch(
        self, tmp_path
    ):
        # Far more tasks than the pool keeps in flight, so the close is
        # certain to cancel queued ones; the batch must raise, not wait on
        # them forever.
        service = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        xs = [float(x) for x in range(1, 25)]
        failures: list[BaseException] = []

        def run_batch():
            try:
                service.map(
                    [_slow_task(x, delay=0.25) for x in xs], workers=2
                )
            except BaseException as exc:
                failures.append(exc)

        thread = threading.Thread(target=run_batch, daemon=True)
        thread.start()
        deadline = time.time() + 30.0
        while time.time() < deadline and len(service.store) == 0:
            time.sleep(0.02)
        assert len(service.store) > 0
        service.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert [type(exc).__name__ for exc in failures] == ["CancelledError"]
        assert 0 < len(service.store) < len(xs)
        assert service.inflight == 0


#: The two schedules every solve path must agree on, bit for bit: the
#: inline loop (one worker) and the persistent pool (two workers).
SCHEDULES = {"inline": 1, "pooled": 2}


@pytest.mark.parametrize("backend", BACKENDS)
class TestExecutorParityMatrix:
    """Inline and pooled schedules are bitwise-identical, store for store.

    The oligopoly and dynamics paths take no ``workers`` argument, so each
    schedule sets the process default; the fixture restores it.
    """

    @pytest.fixture(autouse=True)
    def _restore_default_workers(self):
        yield
        set_default_workers(None)

    def _service(self, tmp_path, backend, name):
        return SolveService(
            cache=SolveCache(),
            store=SolveStore(tmp_path / f"{backend}-{name}"),
        )

    def test_grid_parity(self, tmp_path, backend):
        market = small_market()
        prices = np.round(np.linspace(0.1, 1.0, 4), 10)
        caps = np.array([0.0, 0.5, 1.0])
        grids, services = {}, {}
        with use_backend(backend):
            for name, workers in SCHEDULES.items():
                service = self._service(tmp_path, backend, name)
                grids[name] = solve_grid(
                    market, prices, caps, service=service, workers=workers
                )
                services[name] = service
        try:
            reference, pooled = grids["inline"], grids["pooled"]
            for k in range(caps.size):
                for j in range(prices.size):
                    a = reference.at(k, j)
                    b = pooled.at(k, j)
                    assert (
                        a.subsidies.tobytes() == b.subsidies.tobytes()
                    ), f"{backend} grid cell ({k},{j}) differs"
                    assert a.state.welfare == b.state.welfare
            assert services["pooled"].executor.pooled_tasks == caps.size
            assert store_listing(
                services["pooled"].store.path
            ) == store_listing(services["inline"].store.path)
        finally:
            for service in services.values():
                service.close()

    def test_oligopoly_jacobi_parity(self, tmp_path, backend):
        cps = [exponential_cp(2.0, 2.0, value=1.0)]
        results, services = {}, {}
        with use_backend(backend):
            for name, workers in SCHEDULES.items():
                set_default_workers(workers)
                service = self._service(tmp_path, backend, name)
                game = OligopolyGame(
                    cps,
                    tuple(
                        AccessISP(price=1.0, capacity=0.25, name=f"isp-{k}")
                        for k in range(4)
                    ),
                    switching=2.0,
                    cap=0.3,
                    service=service,
                )
                results[name] = solve_oligopoly_competition(
                    game,
                    initial_prices=(0.6, 0.6, 0.6, 0.6),
                    price_range=(0.05, 2.0),
                    grid_points=8,
                    xtol=1e-3,
                    policy=IterationPolicy(mode="jacobi", tol=5e-3),
                )
                services[name] = service
        try:
            reference, pooled = results["inline"], results["pooled"]
            assert pooled.state.prices == reference.state.prices
            assert pooled.state.revenues == reference.state.revenues
            assert pooled.iterations == reference.iterations
            for eq_a, eq_b in zip(
                reference.state.equilibria, pooled.state.equilibria
            ):
                assert eq_a.subsidies.tobytes() == eq_b.subsidies.tobytes()
            assert services["pooled"].executor.pooled_tasks > 0
            assert services["inline"].executor.pooled_tasks == 0
            assert store_listing(
                services["pooled"].store.path
            ) == store_listing(services["inline"].store.path)
        finally:
            for service in services.values():
                service.close()

    def test_dynamics_trajectory_parity(self, tmp_path, backend):
        market = small_market()
        spec = DynamicsSpec(kind="capacity", horizon=20)
        trajectories, services = {}, {}
        with use_backend(backend):
            for name, workers in SCHEDULES.items():
                set_default_workers(workers)
                service = self._service(tmp_path, backend, name)
                trajectories[name] = run_trajectory(
                    market, spec, service=service
                )
                services[name] = service
        try:
            reference, got = trajectories["inline"], trajectories["pooled"]
            for attr in (
                "capacities",
                "revenues",
                "welfares",
                "utilizations",
                "prices",
            ):
                assert (
                    getattr(got, attr).tobytes()
                    == getattr(reference, attr).tobytes()
                ), f"{backend} trajectory {attr} differs"
            assert store_listing(
                services["pooled"].store.path
            ) == store_listing(services["inline"].store.path)
        finally:
            for service in services.values():
                service.close()

    def test_stores_are_executor_interchangeable(self, tmp_path, backend):
        """A store warmed by one schedule replays under the other: computed == 0."""
        market = small_market()
        prices = np.round(np.linspace(0.1, 1.0, 4), 10)
        caps = np.array([0.0, 0.5])
        store_dir = tmp_path / f"{backend}-shared"
        with use_backend(backend):
            warm = SolveService(cache=SolveCache(), store=SolveStore(store_dir))
            solve_grid(
                market,
                prices,
                caps,
                service=warm,
                workers=SCHEDULES["pooled"],
            )
            warm.close()
            assert warm.counters.computed > 0

            replay = SolveService(
                cache=SolveCache(), store=SolveStore(store_dir)
            )
            solve_grid(
                market,
                prices,
                caps,
                service=replay,
                workers=SCHEDULES["inline"],
            )
            assert replay.counters.computed == 0
            assert replay.counters.store_hits == caps.size
