"""The solve service: one scheduler + two-tier cache for every solve path.

Every analysis in the reproduction — §5 figure grids, oligopoly price
competition, scenario sweeps, market trajectories — is a batch of
*pure solve tasks*: functions of picklable inputs whose outputs depend on
nothing else. :class:`SolveTask` names one such unit (function + arguments
+ content key + store codec); :class:`SolveService` schedules collections
of them through one persistent process pool
(:class:`~repro.engine.executors.PoolExecutor`, inline at one worker) and
memoizes every keyed result through two tiers:

1. the in-memory :class:`~repro.engine.cache.SolveCache` (process-local,
   object identity preserved),
2. the persistent :class:`~repro.engine.store.SolveStore` (content-
   addressed raw-buffer entries, shared across processes and runs).

Because tasks are pure and content-keyed, a cache hit is bit-for-bit the
value the task would have computed, so the cached, pooled and sequential
schedules are interchangeable. A re-run of any analysis against a warm
store performs zero equilibrium solves; the ``computed`` counter makes
that claim testable.

The module also owns the process-wide *default* service (lazily built with
a memory tier and, when ``$REPRO_CACHE_DIR`` is set, a disk store). Every
solve entry point takes ``service=`` and resolves ``None`` to it at call
time — :func:`~repro.engine.grid_engine.solve_grid` and
:func:`~repro.engine.grid_engine.price_sweep`, oligopoly competition,
refinement and trajectories — so a price sweep can hit the very rows a
figure grid solved, and the memory tier is the only in-process cache of
them.

Example — one keyed task, resolved twice against a memory tier (the
second resolution is a hit, not a recomputation):

>>> import numpy as np
>>> from repro.engine.cache import SolveCache
>>> from repro.engine.service import SolveService, SolveTask
>>> def squares(n):
...     return {"x": np.arange(n) ** 2}
>>> service = SolveService(cache=SolveCache())
>>> task = SolveTask(fn=squares, args=(3,), key=("sq", 3), codec="ndarrays")
>>> [service.run(task)["x"].tolist() for _ in range(2)]
[[0, 1, 4], [0, 1, 4]]
>>> service.counters.computed, service.counters.memory_hits
(1, 1)
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.backend import get_backend
from repro.engine.cache import SolveCache
from repro.engine.executors import PoolExecutor
from repro.engine.store import CODECS, SolveStore

__all__ = [
    "SolveTask",
    "SolveService",
    "run_task",
    "default_service",
    "set_default_service",
    "get_default_workers",
    "set_default_workers",
]

#: Environment variable overriding the default worker count.
_WORKERS_ENV = "REPRO_WORKERS"

_default_workers: int | None = None


def set_default_workers(workers: int | None) -> None:
    """Set the process-wide default worker count (``None`` restores env/1)."""
    global _default_workers
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    _default_workers = workers


def get_default_workers() -> int:
    """Resolve the default worker count: explicit > $REPRO_WORKERS > 1."""
    if _default_workers is not None:
        return _default_workers
    env = os.environ.get(_WORKERS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(
                f"${_WORKERS_ENV} must be an integer, got {env!r}"
            ) from exc
        if value < 1:
            raise ValueError(
                f"${_WORKERS_ENV} must be at least 1, got {env!r}"
            )
        return value
    return 1


@dataclass(frozen=True)
class SolveTask:
    """One pure, schedulable, memoizable unit of solve work.

    Attributes
    ----------
    fn:
        A *module-level* function (it must pickle for pool scheduling)
        whose result depends only on its arguments.
    args:
        Positional arguments, picklable.
    kwargs:
        Keyword arguments as a ``(name, value)`` pair tuple (kept hashable
        and picklable).
    key:
        Content key identifying the result across processes and runs, or
        ``None`` for uncacheable work (always computed).
    codec:
        Store codec persisting the result (see
        :data:`repro.engine.store.CODECS`). Validated at construction so a
        typo fails before any solve runs.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: tuple = ()
    key: tuple | None = None
    codec: str = "grid-row"

    def __post_init__(self) -> None:
        if self.codec not in CODECS:
            raise KeyError(
                f"unknown store codec {self.codec!r}; registered: "
                f"{sorted(CODECS)}"
            )


def run_task(task: SolveTask) -> Any:
    """Execute a task (the unit of work the executor schedules)."""
    return task.fn(*task.args, **dict(task.kwargs))


def _effective_key(task: SolveTask) -> tuple | None:
    """The task's cache key, namespaced by the active backend's kernel tag.

    The default NumPy backend keeps bare keys (tag ``""``), so existing
    stores stay valid; compiled backends produce results that may differ
    from NumPy's in the last ulp (libm ``exp`` vs vectorized ``exp``), so
    their entries live under a distinct namespace and never alias.
    """
    if task.key is None:
        return None
    tag = get_backend().cache_tag
    if tag == "":
        return task.key
    return (("__backend__", tag),) + task.key


@dataclass
class ServiceCounters:
    """Observability counters of one :class:`SolveService`."""

    memory_hits: int = 0
    store_hits: int = 0
    computed: int = 0

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
            "computed": self.computed,
        }


@dataclass
class _Lookup:
    found: bool
    value: Any = None


class SolveService:
    """Schedules, parallelizes and memoizes :class:`SolveTask` batches.

    Parameters
    ----------
    cache:
        In-memory tier (``None`` disables it).
    store:
        Persistent tier (``None`` disables it).

    Batches run on the service's one :attr:`executor`; the worker count
    is chosen per call (see :meth:`resolve_workers`).
    """

    def __init__(
        self,
        *,
        cache: SolveCache | None = None,
        store: SolveStore | None = None,
    ) -> None:
        self._cache = cache
        self._store = store
        #: The persistent pool every :meth:`map` batch runs on.
        self.executor = PoolExecutor()
        # One small lock guards the counters and the inflight gauge, so
        # concurrent server threads driving one service never lose
        # increments. It is never held across a solve or an executor call.
        self._lock = threading.Lock()
        self.counters = ServiceCounters()
        #: Tasks currently being computed (scheduled past both cache
        #: tiers, result not yet committed) — the server's load gauge.
        self.inflight = 0
        #: Cumulative wall-clock seconds spent inside executor batches
        #: and direct computes (cache hits contribute nothing).
        self.solve_seconds = 0.0
        # Per thread: the inflight slots the running outermost compute
        # still holds (None when none runs), so the tasks a compute
        # resolves through the service (a competition's rounds) are
        # neither timed nor gauged twice.
        self._computing = threading.local()

    @property
    def cache(self) -> SolveCache | None:
        """The in-memory tier (``None`` when disabled)."""
        return self._cache

    @property
    def store(self) -> SolveStore | None:
        """The persistent tier (``None`` when disabled)."""
        return self._store

    @staticmethod
    def resolve_workers(workers: int | None = None) -> int:
        """The worker count a batch runs on: explicit > process default.

        ``None`` defers to :func:`get_default_workers` (``--workers`` /
        :func:`set_default_workers` > ``$REPRO_WORKERS`` > 1).
        """
        if workers is None:
            return get_default_workers()
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        return workers

    def close(self) -> None:
        """Shut down the executor's worker pool (idempotent).

        The pool respawns lazily on the next :meth:`map` that needs one,
        so closing is always safe — it trades the persistence win for
        reclaimed worker processes. Closing during an in-flight batch
        cancels that batch's queued tasks (its ``map`` raises); every
        result committed before the shutdown stays in both cache tiers,
        so the store remains readable and a rerun computes only the
        missing rows.
        """
        self.executor.shutdown()

    # ------------------------------------------------------------------
    # the two-tier lookup/commit protocol
    # ------------------------------------------------------------------
    def _lookup(self, task: SolveTask) -> _Lookup:
        key = _effective_key(task)
        if key is None:
            return _Lookup(False)
        if self._cache is not None:
            value = self._cache.get(key)
            if value is not None:
                with self._lock:
                    self.counters.memory_hits += 1
                return _Lookup(True, value)
        if self._store is not None:
            value = self._store.get(key)
            if value is not None:
                with self._lock:
                    self.counters.store_hits += 1
                if self._cache is not None:
                    self._cache.put(key, value)
                return _Lookup(True, value)
        return _Lookup(False)

    def _commit(self, task: SolveTask, value: Any) -> None:
        with self._lock:
            self.counters.computed += 1
        key = _effective_key(task)
        if key is None:
            return
        if self._cache is not None:
            self._cache.put(key, value)
        if self._store is not None:
            self._store.put(key, value, codec=task.codec)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, task: SolveTask) -> Any:
        """Resolve one task: memory tier, then store, then compute."""
        hit = self._lookup(task)
        if hit.found:
            return hit.value
        with self._outermost(1):
            value = run_task(task)
        self._commit(task, value)
        return value

    def map(
        self, tasks: Sequence[SolveTask], *, workers: int | None = None
    ) -> list[Any]:
        """Resolve a task batch through the service's executor.

        Cached tasks resolve without occupying a worker; only the missing
        ones are scheduled. Each computed result commits to the cache
        tiers *as it lands* — an interrupted batch keeps every finished
        solve, so a warm rerun recomputes only the missing rows. Results
        come back in task order; any worker count returns
        bitwise-identical values because the tasks are pure.
        """
        tasks = list(tasks)
        results: list[Any] = [None] * len(tasks)
        pending: list[int] = []
        for index, task in enumerate(tasks):
            hit = self._lookup(task)
            if hit.found:
                results[index] = hit.value
            else:
                pending.append(index)
        if not pending:
            return results

        with self._outermost(len(pending)) as outer:

            def commit(index: int, value: Any) -> None:
                results[index] = value
                self._commit(tasks[index], value)
                if outer:
                    with self._lock:
                        self.inflight -= 1
                    self._computing.slots -= 1

            self.executor.map_tasks(
                [(index, tasks[index]) for index in pending],
                commit,
                workers=self.resolve_workers(workers),
            )
        return results

    @contextmanager
    def _outermost(self, slots: int):
        """Account a compute of ``slots`` tasks, unless one already runs.

        Yields whether this is the thread's outermost compute. Only that
        one occupies inflight slots and adds to ``solve_seconds``; slots
        not released by the time it ends (a cancelled or failed batch
        commits nothing more) are released then, so the gauge returns to
        the truth.
        """
        if getattr(self._computing, "slots", None) is not None:
            yield False
            return
        with self._lock:
            self.inflight += slots
        self._computing.slots = slots
        start = time.perf_counter()
        try:
            yield True
        finally:
            with self._lock:
                self.inflight -= self._computing.slots
                self.solve_seconds += time.perf_counter() - start
            self._computing.slots = None

    # ------------------------------------------------------------------
    # observability and isolation
    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk store is untouched)."""
        if self._cache is not None:
            self._cache.clear()

    def reset_counters(self) -> None:
        """Zero the service counters (store counters included, if any)."""
        with self._lock:
            self.counters = ServiceCounters()
            self.solve_seconds = 0.0
        if self._store is not None:
            self._store.hits = 0
            self._store.misses = 0
            self._store.writes = 0
            self._store.write_errors = 0
            self._store.read_seconds = 0.0
            self._store.write_seconds = 0.0

    def counter_snapshot(self) -> dict:
        """The solve counters plus the store's, without touching the disk.

        What a run's before/after delta needs (see the runner's
        ``--json`` summary); :meth:`stats` adds the store's footprint.
        """
        with self._lock:
            payload = self.counters.as_dict()
        payload["store"] = (
            self._store.counters() if self._store is not None else None
        )
        return payload

    def stats(self) -> dict:
        """Hit/miss/latency/inflight counters across both tiers, JSON-ready."""
        with self._lock:
            payload = self.counters.as_dict()
            payload["inflight"] = self.inflight
            payload["solve_seconds"] = self.solve_seconds
        payload["memory"] = (
            {
                "entries": len(self._cache),
                "maxsize": self._cache.maxsize,
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "evictions": self._cache.evictions,
            }
            if self._cache is not None
            else None
        )
        payload["store"] = (
            self._store.stats() if self._store is not None else None
        )
        payload["executor"] = self.executor.stats()
        return payload


# ----------------------------------------------------------------------
# the shared default service
# ----------------------------------------------------------------------

_DEFAULT_SERVICE: SolveService | None = None


def default_service() -> SolveService:
    """The process-wide shared service (lazily built).

    Backed by a memory tier and, when ``$REPRO_CACHE_DIR`` is set, the
    persistent store at that directory. Grid solves and price sweeps,
    oligopoly, refinement and trajectories all default to this
    instance, so their solves share one cache.
    """
    global _DEFAULT_SERVICE
    if _DEFAULT_SERVICE is None:
        _DEFAULT_SERVICE = SolveService(
            cache=SolveCache(maxsize=256), store=SolveStore.from_env()
        )
    return _DEFAULT_SERVICE


def set_default_service(service: SolveService | None) -> None:
    """Replace the shared service (``None`` restores the lazy default).

    The reset hook for tests and the CLI: swapping in a fresh instance
    isolates cache state; swapping in a store-backed one makes every
    default-routed solve persistent.
    """
    global _DEFAULT_SERVICE
    _DEFAULT_SERVICE = service
