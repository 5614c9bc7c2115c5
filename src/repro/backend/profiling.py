"""Lightweight solver profiling: per-phase counters behind a global flag.

The hot paths are instrumented unconditionally at the *cheap* level (the
fused kernels always fill a two-slot stats array); aggregation into the
module counters only happens when profiling is enabled, so the disabled
cost is a single branch per batch call. Enable with
:func:`enable` (the runner's ``--profile`` flag does this) and read a
snapshot with :func:`snapshot`.

Counters
--------
``residual_evals``
    Congestion gap evaluations (one per row per solver iteration).
``brackets_expanded``
    Geometric bracket-expansion steps taken by cold solves.
``kernel_calls`` / ``kernel_seconds``
    Fused compiled-kernel invocations and their wall time.
``lockstep_calls`` / ``lockstep_seconds``
    Batch solves served by the NumPy lockstep path instead.
``equilibrium_kernel_calls`` / ``equilibrium_kernel_seconds``
    Whole-equilibrium kernel solves and their wall time. Kept apart from
    ``kernel_calls``, which counts the per-batch kernels only.
``equilibrium_fallbacks``
    Entries into the equilibrium fallback chain: Gauss–Seidel sweeps,
    the damped retry and the VI solver.
"""

from __future__ import annotations

import time
from typing import Iterator
from contextlib import contextmanager

__all__ = [
    "enabled",
    "enable",
    "disable",
    "reset",
    "snapshot",
    "profiled",
    "record_kernel",
    "record_lockstep",
    "record_equilibrium_kernel",
    "record_equilibrium_fallback",
    "add_residual_evals",
    "add_brackets_expanded",
]

enabled = False

_counters = {
    "residual_evals": 0,
    "brackets_expanded": 0,
    "kernel_calls": 0,
    "kernel_seconds": 0.0,
    "lockstep_calls": 0,
    "lockstep_seconds": 0.0,
    "equilibrium_kernel_calls": 0,
    "equilibrium_kernel_seconds": 0.0,
    "equilibrium_fallbacks": 0,
}


def enable() -> None:
    """Turn profiling on (counters keep accumulating until reset)."""
    global enabled
    enabled = True


def disable() -> None:
    global enabled
    enabled = False


def reset() -> None:
    """Zero all counters (leaves the enabled flag untouched)."""
    for key in _counters:
        _counters[key] = 0.0 if isinstance(_counters[key], float) else 0


def snapshot() -> dict:
    """A copy of the current counter values."""
    return dict(_counters)


@contextmanager
def profiled() -> Iterator[None]:
    """Enable profiling within a block, restoring the prior state after."""
    global enabled
    prior = enabled
    enabled = True
    try:
        yield
    finally:
        enabled = prior


def record_kernel(stats, seconds: float) -> None:
    """Fold one fused-kernel call's stats array and wall time in."""
    _counters["kernel_calls"] += 1
    _counters["kernel_seconds"] += seconds
    _counters["residual_evals"] += int(stats[0])
    _counters["brackets_expanded"] += int(stats[1])


def record_lockstep(seconds: float) -> None:
    _counters["lockstep_calls"] += 1
    _counters["lockstep_seconds"] += seconds


def record_equilibrium_kernel(stats, seconds: float) -> None:
    """Fold one whole-equilibrium kernel call in (not ``kernel_calls``)."""
    _counters["equilibrium_kernel_calls"] += 1
    _counters["equilibrium_kernel_seconds"] += seconds
    add_residual_evals(stats[0])
    add_brackets_expanded(stats[1])


def record_equilibrium_fallback() -> None:
    _counters["equilibrium_fallbacks"] += 1


def add_residual_evals(count: int) -> None:
    _counters["residual_evals"] += int(count)


def add_brackets_expanded(count: int) -> None:
    _counters["brackets_expanded"] += int(count)
