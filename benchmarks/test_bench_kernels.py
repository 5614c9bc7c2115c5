"""Benchmark: the fused kernel layer vs the lockstep NumPy path.

Runs the exact same workload — repeated cold batched marginal-utility
evaluations (population + congestion solve + derivative chain) over the
§5 eight-CP market plus a vectorized best-response sweep — once under the
default ``numpy`` backend and once under the best available ``compiled``
backend, asserts the results agree to solver tolerance, and records both
timings plus the compiled run's kernel counters into ``BENCH_kernels.json``.

On a machine without a C compiler, ``compiled`` resolves to
numpy and the recorded speedup is ~1; the record's ``compiled_backend``
field says which kernels actually ran.
"""

import time

import numpy as np

from benchmarks.conftest import _write_bench_record
from repro.backend import get_backend, profiling, use_backend
from repro.core.best_response import best_response_profile_vectorized
from repro.core.game import BatchedProfileEvaluator, SubsidizationGame
from repro.experiments.scenarios import section5_market

#: Repetitions of the batched marginal sweep (cold every time).
_ROUNDS = 40


def _workload(game: SubsidizationGame, profiles: np.ndarray) -> np.ndarray:
    evaluator = BatchedProfileEvaluator(game)
    u = None
    for _ in range(_ROUNDS):
        evaluator.reset()  # keep every evaluation a cold solve
        u = evaluator.marginal_utilities(profiles)
    responses = best_response_profile_vectorized(game, profiles[0])
    return np.concatenate([u.ravel(), responses])


def test_bench_kernels(benchmark):
    market = section5_market(price=0.8)
    game = SubsidizationGame(market, cap=1.0)
    rng = np.random.default_rng(7)
    profiles = rng.uniform(0.0, 1.0, size=(64, market.size))

    with use_backend("numpy"):
        start = time.perf_counter()
        reference = _workload(game, profiles)
        numpy_seconds = time.perf_counter() - start

    with use_backend("compiled"):
        compiled_backend = get_backend()
        profiling.reset()
        with profiling.profiled():
            start = time.perf_counter()
            value = benchmark.pedantic(
                lambda: _workload(game, profiles),
                rounds=1,
                iterations=1,
                warmup_rounds=0,
            )
            compiled_seconds = time.perf_counter() - start
        counters = profiling.snapshot()

        # Backends may differ in the last ulps (libm vs vectorized exp),
        # never beyond solver tolerance.
        np.testing.assert_allclose(value, reference, rtol=1e-9, atol=1e-12)

        _write_bench_record(
            {
                "case": "kernels",
                "seconds": compiled_seconds,
                "numpy_seconds": numpy_seconds,
                "compiled_seconds": compiled_seconds,
                "speedup": numpy_seconds / max(compiled_seconds, 1e-12),
                "compiled_backend": compiled_backend.name,
                "kernel_calls": counters["kernel_calls"],
                "kernel_seconds": counters["kernel_seconds"],
                "residual_evals": counters["residual_evals"],
                "brackets_expanded": counters["brackets_expanded"],
                "lockstep_calls": counters["lockstep_calls"],
            }
        )
