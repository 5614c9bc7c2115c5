"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's figures end to end (every
equilibrium on the figure's grid) and asserts its qualitative shape checks,
so `pytest benchmarks/ --benchmark-only` doubles as the full reproduction
run. Grids are the paper's unless noted.

Benchmarks use pedantic mode with a single round: the workloads are seconds
long and deterministic, so statistical repetition buys nothing.

Machine-readable output
-----------------------
Every case that runs through :func:`run_once` is measured — wall time,
solve-task count and cache hits read off the shared solve service — and,
when ``$REPRO_BENCH_DIR`` is set, written as one ``BENCH_<case>.json``
file per case into that directory. With it unset nothing is written, so
a plain test run never modifies the tree. CI uploads the records as
artifacts, so the perf trajectory is tracked across PRs.

The in-tree ``benchmarks/out`` is the *committed* baseline, regenerated
under the compiled backend; refreshing it is explicit::

    REPRO_BACKEND=compiled REPRO_BENCH_DIR=benchmarks/out \
        PYTHONPATH=src python -m pytest benchmarks/ -q
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from pathlib import Path

import numpy as np
import pytest

#: Schema identifier of the BENCH_*.json records (v2 adds environment
#: provenance: backend, python/numpy versions; records written before the
#: numba backend was removed also carry a ``numba`` flag).
BENCH_SCHEMA = "repro-bench/2"

#: The paper's price axis, thinned 2x to keep a full benchmark run ~1 min.
BENCH_PRICES = np.round(np.linspace(0.0, 2.0, 21), 10)
#: The paper's five policy levels.
BENCH_CAPS = (0.0, 0.5, 1.0, 1.5, 2.0)

def _environment_fields() -> dict:
    """The schema-v2 provenance fields stamped onto every record."""
    from repro.backend import get_backend

    backend = get_backend()
    return {
        "bench_schema": BENCH_SCHEMA,
        "backend": backend.name,
        "backend_requested": backend.requested,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
    }


def _write_bench_record(record: dict) -> None:
    """Write one BENCH_<case>.json (the cross-PR perf-trajectory format)
    into ``$REPRO_BENCH_DIR``; a no-op when it is unset.

    Written eagerly per case — benchmarks must never fail the suite over a
    bookkeeping write, so I/O errors are swallowed.
    """
    env_dir = os.environ.get("REPRO_BENCH_DIR")
    if not env_dir:
        return
    record = {**_environment_fields(), **record}
    out_dir = Path(env_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{record['case']}.json"
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass


@pytest.fixture(autouse=True)
def _fresh_grid_cache():
    """Each benchmark measures a cold in-process solve.

    Clears the default service's memory tier (figure rows memoize there)
    and zeroes its counters so each case's solve/hit counts are its own.
    """
    from repro.engine.service import default_service

    default_service().clear_memory()
    default_service().reset_counters()
    yield
    default_service().clear_memory()


def _current_case() -> str:
    """The running test's name, sanitized for a filename."""
    current = os.environ.get("PYTEST_CURRENT_TEST", "unknown")
    name = current.split("::")[-1].split(" ")[0]
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "unknown"


def run_once(benchmark, func):
    """Run a deterministic seconds-long workload exactly once.

    Also records the case's wall time and the solve/cache counters the
    workload moved on the shared solve service (workloads running private
    services record zero counters by construction).
    """
    from repro.engine.service import default_service

    service = default_service()
    before = service.counters.as_dict()
    start = time.perf_counter()
    result = benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
    seconds = time.perf_counter() - start
    after = service.counters.as_dict()
    _write_bench_record(
        {
            "case": _current_case(),
            "seconds": seconds,
            "solve_tasks": after["computed"] - before["computed"],
            "cache_hits": (
                after["memory_hits"]
                + after["store_hits"]
                - before["memory_hits"]
                - before["store_hits"]
            ),
            "store_hits": after["store_hits"] - before["store_hits"],
        }
    )
    return result


def assert_all_checks_pass(result):
    failed = [check.name for check in result.checks if not check.passed]
    assert not failed, f"{result.experiment_id} shape checks failed: {failed}"
