"""The batch executor of the solve service: one persistent process pool.

Round-structured workloads — oligopoly Jacobi sweeps, repeated grid
solves — issue many consecutive batches through
:meth:`SolveService.map <repro.engine.service.SolveService.map>`. A pool
built per batch would pay worker spawn plus backend/kernel warmup on
every round, so :class:`PoolExecutor` keeps one *persistent, lazily
spawned, reusable* pool. Workers warm the backend kernels once at spawn;
the pool is respawned only when the worker count or the requested
backend changes. Single-task batches (and ``workers <= 1``) run inline
without ever touching — or spawning — the pool.

The executor delivers results through an ``on_result(index, value)``
callback *as they complete*, which is what lets the service commit each
result to its cache tiers incrementally instead of after the whole batch.
Because tasks are pure and content-keyed, the inline and pooled schedules
return bitwise-identical results; the worker count is purely a
throughput knob.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Tuple

from repro.backend import get_backend, set_backend, warm_kernels

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["PoolExecutor"]


# ----------------------------------------------------------------------
# module-level work units (must pickle for pool scheduling)
# ----------------------------------------------------------------------


def _pool_init(backend_name: str) -> None:
    """Pool-worker initializer: inherit the parent's array backend.

    Resolves the requested backend in the child and warms its kernels once
    (C extension build or load) — per worker *lifetime*, not per batch,
    since the pool persists across ``map`` calls.
    """
    set_backend(backend_name)
    warm_kernels()


def _run_one(task) -> Any:
    """Execute one task (mirrors ``service.run_task``; kept here so the
    pool pickles an executor-layer callable without a circular import)."""
    return task.fn(*task.args, **dict(task.kwargs))


def _completed(futures):
    """Yield ``futures`` in completion order, cancelled ones included.

    ``concurrent.futures.as_completed`` never yields a future that a pool
    shutdown cancelled while it was still queued, so a batch drained with
    it waits forever once ``shutdown(cancel_futures=True)`` runs on
    another thread. Done callbacks fire on cancellation too; the caller's
    ``future.result()`` then raises ``CancelledError``.
    """
    done: queue.SimpleQueue = queue.SimpleQueue()
    for future in futures:
        future.add_done_callback(done.put)
    for _ in range(len(futures)):
        yield done.get()


#: The (index, task) pairs an executor schedules.
_Items = Iterable[Tuple[int, Any]]
#: The completion callback: called once per item, in completion order.
_OnResult = Callable[[int, Any], None]


class PoolExecutor:
    """A persistent process pool, spawned lazily and reused across batches.

    :meth:`map_tasks` invokes ``on_result(index, value)`` exactly once per
    item, in *completion* order (the caller owns ordering by index). A
    task exception propagates to the caller; results already delivered
    stay delivered — that is what makes interrupted batches resumable.

    The pool is keyed on ``(workers, requested backend)``: it spawns on
    the first batch that needs it and is torn down and respawned only
    when either changes, so consecutive ``map`` calls — the shape of
    every Jacobi round loop — pay worker startup and kernel warmup once.
    Batches with one task (or ``workers <= 1``) run inline and never
    spawn a pool.
    """

    def __init__(self) -> None:
        self.batches = 0
        self.tasks = 0
        self.inline_tasks = 0
        self.pooled_tasks = 0
        self.pool_spawns = 0
        self.pool_reuses = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple | None = None
        # Guards spawn/reuse/shutdown so concurrent server batches sharing
        # one executor never double-spawn or race a teardown.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        # Imported here: the multiprocessing chain costs start-up time in
        # every process, and only a ``workers > 1`` batch spawns a pool.
        from concurrent.futures import ProcessPoolExecutor

        backend = get_backend()
        key = (int(workers), backend.requested)
        with self._pool_lock:
            if self._pool is not None and self._pool_key == key:
                self.pool_reuses += 1
                return self._pool
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = ProcessPoolExecutor(
                max_workers=key[0], initializer=_pool_init, initargs=(key[1],)
            )
            self._pool_key = key
            self.pool_spawns += 1
            return self._pool

    def _run_inline(self, items, on_result) -> None:
        for index, task in items:
            self.inline_tasks += 1
            on_result(index, _run_one(task))

    def map_tasks(
        self, items: _Items, on_result: _OnResult, *, workers: int
    ) -> None:
        """Run a batch of pure tasks, streaming results to ``on_result``."""
        items = list(items)
        self.batches += 1
        self.tasks += len(items)
        if workers <= 1 or len(items) <= 1:
            self._run_inline(items, on_result)
            return
        pool = self._ensure_pool(workers)
        futures = {pool.submit(_run_one, task): index for index, task in items}
        self.pooled_tasks += len(items)
        for future in _completed(futures):
            on_result(futures[future], future.result())

    def shutdown(self) -> None:
        """Tear down the pool, cancelling queued (not yet running) tasks.

        Idempotent. An in-flight ``map_tasks`` on another thread sees its
        pending futures raise ``CancelledError``; results it already
        delivered stay delivered, which is what lets ``service.close()``
        interrupt a batch without losing committed work.
        """
        with self._pool_lock:
            pool, self._pool, self._pool_key = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def stats(self) -> dict:
        """Scheduling and pool-lifecycle counters, JSON-ready."""
        return {
            "batches": self.batches,
            "tasks": self.tasks,
            "inline_tasks": self.inline_tasks,
            "pooled_tasks": self.pooled_tasks,
            "pool_spawns": self.pool_spawns,
            "pool_reuses": self.pool_reuses,
        }
