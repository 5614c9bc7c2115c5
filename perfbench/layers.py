"""Layer spans for the benchmark's traced runs.

:class:`Tracer` wraps the program's public functions at each layer
boundary (congestion solver, equilibrium solver, solve service, store,
campaign warehouse, serve daemon) with a timing span, counts the work
each call did, and keeps the outermost span intervals so the report can
say how much of a process's work time no span covers. Nothing in the
program changes: the wrappers are installed from the benchmark's own
child entry point (``child.py``) after the program is imported and
before ``runner.main`` runs.

The report also snapshots the program's own counters (solve-service
counters, store counters, the backend profiling snapshot) so the
benchmark can check that the spans saw exactly the work the program
says it did.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Span counts, span seconds and extra work counts for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.intervals: list[tuple[float, float]] = []
        # Strong references: the runner drops its services before the
        # report is taken, and their counters must survive until then.
        self.services: list = []
        self.stores: list = []
        self.store_bytes_before: dict[str, int] = {}

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def flag(self, name: str) -> bool:
        """Whether the calling thread is inside a span that set ``name``."""
        return getattr(self._local, name, 0) > 0

    def span(self, name, fn, *, after=None, mark=None):
        """``fn`` wrapped in a timing span.

        ``after(result, args, kwargs, seconds)`` runs on success to count
        work; ``mark`` names a thread-local flag that is raised while the
        call runs (nested wrappers read it with :meth:`flag`).
        """
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            if mark is not None:
                setattr(local, mark, getattr(local, mark, 0) + 1)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                local.depth = depth
                if mark is not None:
                    setattr(local, mark, getattr(local, mark) - 1)
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.seconds[name] += end - start
                    if depth == 0:
                        tracer.intervals.append((start, end))
            if after is not None:
                after(result, args, kwargs, end - start)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapped = self.span(name, original, **options)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, **options) -> None:
        setattr(cls, attr, self.span(name, getattr(cls, attr), **options))

    # ------------------------------------------------------------------
    # the layer boundaries
    # ------------------------------------------------------------------
    def install(self, *, serve: bool = False) -> None:
        from repro import io
        from repro.backend import dispatch, profiling
        from repro.campaigns.spec import CampaignSpec
        from repro.campaigns.warehouse import CampaignWarehouse
        from repro.competition import oligopoly
        from repro.core import equilibrium
        from repro.engine import executors, service as service_mod
        from repro.engine.service import SolveService
        from repro.engine.store import SolveStore
        from repro.network.system import CongestionSystem

        profiling.reset()
        profiling.enable()

        def kernel_after(result, args, kwargs, seconds):
            if self.flag("in_scalar"):
                self.add("network.kernel_scalar_solves")
            elif self.flag("in_batch"):
                self.add("network.kernel_batch_calls")

        self.patch_function(
            dispatch, "fused_congestion", "backend.kernel", after=kernel_after
        )
        self.patch_function(dispatch, "fused_marginals", "backend.kernel")
        self.patch_function(dispatch, "fused_best_response", "backend.kernel")

        self.patch_method(
            CongestionSystem, "solve", "network.scalar", mark="in_scalar"
        )

        def batch_after(result, args, kwargs, seconds):
            populations = kwargs["populations"] if len(args) < 3 else args[2]
            self.add("network.batch_rows", int(np.shape(populations)[0]))

        self.patch_method(
            CongestionSystem,
            "solve_population_batch",
            "network.batch",
            after=batch_after,
            mark="in_batch",
        )

        def equilibrium_after(result, args, kwargs, seconds):
            self.add("core.iterations", int(result.iterations))
            self.add(f"core.method.{result.method}")

        self.patch_function(
            equilibrium, "solve_equilibrium", "core.equilibrium",
            after=equilibrium_after,
        )
        self.patch_function(
            oligopoly, "solve_oligopoly_sweep", "competition.br_sweep"
        )

        # engine: map/run resolve tasks; _run_one/run_task compute them.
        local = self._local

        def map_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(service, tasks, *args, **kwargs):
                tasks = list(tasks)
                frames = local.__dict__.setdefault("map_frames", [])
                frames.append(0.0)
                start = perf_counter()
                try:
                    return fn(service, tasks, *args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    computed = frames.pop()
                    self.add("engine.tasks", len(tasks))
                    self.add("engine.dispatch_s", elapsed - computed)

            return wrapper

        SolveService.map = self.span(
            "engine.map", map_wrapper(SolveService.map)
        )

        def run_after(result, args, kwargs, seconds):
            self.add("engine.tasks")

        self.patch_method(SolveService, "run", "engine.run", after=run_after)

        def compute_after(result, args, kwargs, seconds):
            frames = getattr(local, "map_frames", None)
            if frames:
                frames[-1] += seconds

        self.patch_function(
            executors, "_run_one", "engine.compute", after=compute_after
        )
        self.patch_function(service_mod, "run_task", "engine.compute")

        original_service_init = SolveService.__init__

        @functools.wraps(original_service_init)
        def service_init(service, *args, **kwargs):
            original_service_init(service, *args, **kwargs)
            self.services.append(service)

        SolveService.__init__ = service_init

        original_store_init = SolveStore.__init__

        @functools.wraps(original_store_init)
        def store_init(store, *args, **kwargs):
            original_store_init(store, *args, **kwargs)
            self.stores.append(store)
            key = str(store.path)
            if key not in self.store_bytes_before:
                self.store_bytes_before[key] = store.stats()["bytes"]

        SolveStore.__init__ = store_init

        def get_after(result, args, kwargs, seconds):
            if result is None:
                self.add("store.misses")

        def put_after(result, args, kwargs, seconds):
            if result:
                self.add("store.committed")

        self.patch_method(SolveStore, "get", "store.get", after=get_after)
        self.patch_method(SolveStore, "put", "store.put", after=put_after)

        def append_after(result, args, kwargs, seconds):
            if result:
                self.add("campaigns.appended")

        self.patch_method(CampaignSpec, "expand", "campaigns.expand")
        self.patch_method(
            CampaignWarehouse, "append", "campaigns.append", after=append_after
        )
        for attr in ("scenario_digest", "market_digest", "campaign_digest"):
            self.patch_function(io, attr, "io.digest")

        if serve:
            from repro.server import http, jobs

            def submit_after(result, args, kwargs, seconds):
                if result[1]:
                    self.add("server.coalesced")

            self.patch_method(http.ServeApp, "handle", "server.handle")
            self.patch_method(
                jobs.JobManager, "submit", "server.submit", after=submit_after
            )
            self.patch_function(jobs, "default_runner", "server.job_run")
            self.patch_function(jobs, "experiment_payload", "server.payload")

    # ------------------------------------------------------------------
    # the report
    # ------------------------------------------------------------------
    def covered_seconds(self, start: float, end: float) -> float:
        """Time in ``[start, end]`` covered by at least one outermost span."""
        with self._lock:
            spans = sorted(self.intervals)
        covered = 0.0
        cursor = start
        for lo, hi in spans:
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    def report(self, start: float, end: float) -> dict:
        from repro.backend import profiling

        program = {
            "service": {
                key: sum(getattr(s.counters, key) for s in self.services)
                for key in ("memory_hits", "store_hits", "computed")
            },
            "store": {"hits": 0, "misses": 0, "writes": 0},
            "store_bytes_written": 0,
            "profiling": profiling.snapshot(),
        }
        seen_paths: dict[str, int] = {}
        for store in self.stores:
            stats = store.stats()
            for key in program["store"]:
                program["store"][key] += stats[key]
            seen_paths[str(store.path)] = stats["bytes"]
        program["store_bytes_written"] = sum(
            size - self.store_bytes_before.get(path, 0)
            for path, size in seen_paths.items()
        )
        covered = self.covered_seconds(start, end)
        with self._lock:
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "counts": dict(self.counts),
                "covered_s": covered,
                "program": program,
            }


def wrapper_cost(samples: int = 20000) -> float:
    """Seconds one span adds to a call (measured on a no-op)."""

    def noop():
        return None

    wrapped = Tracer().span("calibration", noop)
    start = perf_counter()
    for _ in range(samples):
        noop()
    raw = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        wrapped()
    spanned = perf_counter() - start
    return max(spanned - raw, 0.0) / samples
