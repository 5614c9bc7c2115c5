"""Pluggable batch executors for the solve service.

:meth:`SolveService.map <repro.engine.service.SolveService.map>` used to
build a throwaway ``ProcessPoolExecutor`` inside every call, so
round-structured workloads — oligopoly Jacobi sweeps, dynamics segment
chains, repeated grid solves — paid pool spawn plus backend/kernel warmup
on every round, then serialized behind the slowest task in strict
submission order. This module turns that one hard-wired schedule into an
:class:`Executor` strategy with three implementations:

``serial``
    :class:`SerialExecutor` — in-process, submission order. The reference
    path every other executor must match bitwise.
``pool``
    :class:`PoolExecutor` — a *persistent, lazily-spawned, reusable*
    process pool. Workers warm the backend kernels once at spawn; the
    pool is respawned only when the worker count or the requested backend
    changes. Single-task batches (and ``workers == 1``) run inline
    without ever touching — or spawning — the pool.
``chunked``
    :class:`ChunkedExecutor` — packs small tasks into size-targeted
    chunks over the same persistent pool and drains them in completion
    order: idle workers steal queued chunks, so ragged task graphs never
    idle behind a straggler.

Executors deliver results through an ``on_result(index, value)`` callback
*as they complete*, which is what lets the service commit each result to
its cache tiers incrementally instead of after the whole batch. Because
tasks are pure and content-keyed, every executor returns bitwise-identical
results; the choice is purely a throughput knob, selected per process via
``$REPRO_EXECUTOR`` / ``--executor`` (default: ``pool``).
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Tuple

from repro.backend import get_backend, set_backend, warm_kernels

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "ChunkedExecutor",
    "make_executor",
    "get_default_executor_name",
    "set_default_executor",
]

#: Environment variable selecting the process-wide default executor.
_EXECUTOR_ENV = "REPRO_EXECUTOR"

#: Registered executor names, in documentation order.
EXECUTOR_NAMES = ("serial", "pool", "chunked")

_default_executor_name: str | None = None


def set_default_executor(name: str | None) -> None:
    """Set the process-wide default executor (``None`` restores env/pool)."""
    global _default_executor_name
    if name is not None and name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {name!r}; registered: {list(EXECUTOR_NAMES)}"
        )
    _default_executor_name = name


def get_default_executor_name() -> str:
    """Resolve the default executor name: explicit > $REPRO_EXECUTOR > pool."""
    if _default_executor_name is not None:
        return _default_executor_name
    env = os.environ.get(_EXECUTOR_ENV, "").strip()
    if env:
        if env not in EXECUTOR_NAMES:
            raise ValueError(
                f"${_EXECUTOR_ENV} must be one of {list(EXECUTOR_NAMES)}, "
                f"got {env!r}"
            )
        return env
    return "pool"


# ----------------------------------------------------------------------
# module-level work units (must pickle for pool scheduling)
# ----------------------------------------------------------------------


def _pool_init(backend_name: str) -> None:
    """Pool-worker initializer: inherit the parent's array backend.

    Resolves the requested backend in the child and warms its kernels once
    (C extension build or load) — per worker *lifetime*,
    not per batch, now that the pool persists across ``map`` calls.
    """
    set_backend(backend_name)
    warm_kernels()


def _run_one(task) -> Any:
    """Execute one task (mirrors ``service.run_task``; kept here so the
    pool pickles an executor-layer callable without a circular import)."""
    return task.fn(*task.args, **dict(task.kwargs))


def _run_chunk(tasks) -> list:
    """Execute one chunk of tasks in a single worker round-trip."""
    return [_run_one(task) for task in tasks]


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


class Executor:
    """Strategy interface: run a batch of pure tasks, stream results back.

    ``map_tasks`` must invoke ``on_result(index, value)`` exactly once per
    item, in *completion* order (the caller owns ordering by index). A
    task exception propagates to the caller; results already delivered
    stay delivered — that is what makes interrupted batches resumable.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.batches = 0
        self.tasks = 0
        self.inline_tasks = 0
        self.pooled_tasks = 0

    def map_tasks(
        self, items: _Items, on_result: _OnResult, *, workers: int
    ) -> None:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release any held OS resources (idempotent)."""

    def stats(self) -> dict:
        """Scheduling counters, JSON-ready (always includes ``name``)."""
        return {
            "name": self.name,
            "batches": self.batches,
            "tasks": self.tasks,
            "inline_tasks": self.inline_tasks,
            "pooled_tasks": self.pooled_tasks,
        }

    # shared helper: the no-pool path every executor uses for trivial work
    def _run_inline(self, items, on_result) -> None:
        for index, task in items:
            self.inline_tasks += 1
            on_result(index, _run_one(task))


class SerialExecutor(Executor):
    """In-process execution in submission order — the reference schedule."""

    name = "serial"

    def map_tasks(self, items, on_result, *, workers: int) -> None:
        items = list(items)
        self.batches += 1
        self.tasks += len(items)
        self._run_inline(items, on_result)


class PoolExecutor(Executor):
    """A persistent process pool, spawned lazily and reused across batches.

    The pool is keyed on ``(workers, requested backend)``: it spawns on
    the first batch that needs it and is torn down and respawned only
    when either changes, so consecutive ``map`` calls — the shape of
    every Jacobi round loop — pay worker startup and kernel warmup once.
    Batches with one task (or ``workers == 1``) run inline and never
    spawn a pool.
    """

    name = "pool"

    def __init__(self) -> None:
        super().__init__()
        self.pool_spawns = 0
        self.pool_reuses = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple | None = None
        # Guards spawn/reuse/shutdown so concurrent server batches sharing
        # one executor never double-spawn or race a teardown.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        backend = get_backend()
        key = (int(workers), backend.requested)
        with self._pool_lock:
            if self._pool is not None and self._pool_key == key:
                self.pool_reuses += 1
                return self._pool
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
            if backend.kernels is None:
                # Without kernels the workers solve on the scalar brentq
                # path; load scipy once here so forked workers inherit it
                # instead of each importing it on its first task.
                import scipy.optimize  # noqa: F401

            self._pool = ProcessPoolExecutor(
                max_workers=key[0], initializer=_pool_init, initargs=(key[1],)
            )
            self._pool_key = key
            self.pool_spawns += 1
            return self._pool

    def map_tasks(self, items, on_result, *, workers: int) -> None:
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

        An in-flight ``map_tasks`` on another thread sees its pending
        futures raise ``CancelledError``; results it already delivered
        stay delivered, which is what lets ``service.close()`` interrupt
        a batch without losing committed work.
        """
        with self._pool_lock:
            pool, self._pool, self._pool_key = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def stats(self) -> dict:
        payload = super().stats()
        payload["pool_spawns"] = self.pool_spawns
        payload["pool_reuses"] = self.pool_reuses
        return payload


class ChunkedExecutor(Executor):
    """Size-targeted chunking with work-stealing over the persistent pool.

    Large batches of small tasks (100×100+ policy grids, pointwise
    refinement columns) drown a per-task pool in dispatch overhead. This
    wrapper packs the batch into roughly ``workers × oversubscription``
    chunks, ships each chunk as one worker round-trip, and drains them
    in completion order — the pool's shared queue hands the next pending
    chunk to whichever worker frees up first, so a straggler chunk never
    idles the rest of the pool.

    Parameters
    ----------
    chunk_size:
        Fixed tasks-per-chunk override. ``None`` (default) derives the
        size from the batch: ``ceil(n / (workers × oversubscription))``.
    """

    name = "chunked"

    #: Target chunks per worker: enough slack for stealing around a
    #: straggler, few enough that per-chunk dispatch stays negligible.
    oversubscription = 4

    def __init__(self, chunk_size: int | None = None) -> None:
        super().__init__()
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(
                f"chunk_size must be at least 1, got {chunk_size}"
            )
        self.chunk_size = chunk_size
        self.chunks = 0
        self._pool = PoolExecutor()

    def _resolve_chunk_size(self, count: int, workers: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-count // (workers * self.oversubscription)))

    def map_tasks(self, items, on_result, *, workers: int) -> None:
        items = list(items)
        self.batches += 1
        self.tasks += len(items)
        if workers <= 1 or len(items) <= 1:
            self._run_inline(items, on_result)
            return
        size = self._resolve_chunk_size(len(items), workers)
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        if len(chunks) <= 1:
            # One chunk would serialize the batch in a single worker;
            # per-task pooling is strictly better.
            pool = self._ensure_pool(workers)
            futures = {
                pool.submit(_run_one, task): index for index, task in items
            }
            self.pooled_tasks += len(items)
            for future in _completed(futures):
                on_result(futures[future], future.result())
            return
        pool = self._ensure_pool(workers)
        futures = {
            pool.submit(_run_chunk, [task for _, task in chunk]): chunk
            for chunk in chunks
        }
        self.chunks += len(chunks)
        self.pooled_tasks += len(items)
        for future in _completed(futures):
            chunk = futures[future]
            for (index, _), value in zip(chunk, future.result()):
                on_result(index, value)

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        return self._pool._ensure_pool(workers)

    def shutdown(self) -> None:
        self._pool.shutdown()

    def stats(self) -> dict:
        payload = super().stats()
        payload["chunks"] = self.chunks
        payload["pool_spawns"] = self._pool.pool_spawns
        payload["pool_reuses"] = self._pool.pool_reuses
        return payload


def make_executor(name: str) -> Executor:
    """Build a fresh executor instance by registered name."""
    if name == "serial":
        return SerialExecutor()
    if name == "pool":
        return PoolExecutor()
    if name == "chunked":
        return ChunkedExecutor()
    raise ValueError(
        f"unknown executor {name!r}; registered: {list(EXECUTOR_NAMES)}"
    )
