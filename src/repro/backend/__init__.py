"""Pluggable array/kernel backend for the hot solver paths.

One dispatch point decides how the congestion, marginal-utility and
best-response paths compute: the default ``numpy`` backend keeps the
reference lockstep arithmetic untouched, while compiled backends swap in
fused per-row kernels (and libm-consistent elementwise ops) that exit each
row at convergence instead of dragging the whole batch along. The kernels
cover every built-in demand family (plain or under one share weight) and
throughput family on linear utilization; other models stay on lockstep
under any backend.

Backends
--------
``numpy``
    The tested default. Pure NumPy lockstep; no fused kernels.
``compiled``
    Fused kernels compiled on demand from the generated C source with the
    system C compiler; the resolved backend is named ``cext``. Falls back
    to ``numpy`` when no compiler is found.
``pyloops``
    The fused kernels run as plain Python loops — identical arithmetic to
    the C kernels, always available, slow. Exists so the compiled
    path is testable everywhere.

Selection: ``REPRO_BACKEND`` environment variable (read once at first
use), :func:`set_backend`, the :func:`use_backend` context manager, or the
runner's ``--backend`` flag. All compiled backends share one store
``cache_tag`` (their results are bitwise interchangeable — same libm
``exp``/``pow``/``log1p``, same sequential accumulation) that namespaces
solve-cache keys away from the numpy backend's entries.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.backend import ops, profiling

__all__ = [
    "Backend",
    "BACKEND_NAMES",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "warm_kernels",
]

BACKEND_NAMES = ("numpy", "pyloops", "compiled")

# All kernel backends share one tag: they are bitwise interchangeable.
# "libm2": every built-in demand/throughput family is fused (the first
# tag covered only the exponential pair), which moves mixed-family
# results by ulps. "libm3": a whole equilibrium solve is one kernel call.
# Its state sums welfare sequentially (Market.solve calls np.dot) and its
# Newton polish solves with its own LU (not LAPACK's), which moves welfare
# by ulps and, on large markets, equilibria in the last digits.
_KERNEL_CACHE_TAG = "libm3"


@dataclass(frozen=True)
class Backend:
    """A resolved backend: what was asked for and what actually runs.

    Attributes
    ----------
    name:
        The resolved implementation (``numpy``/``cext``/``pyloops``):
        ``compiled`` resolves to ``cext``, or to ``numpy`` without a C
        compiler.
    requested:
        The name selection asked for.
    kernels:
        Object exposing the fused batch kernels (``bind``,
        ``congestion_batch``, ``marginal_batch``, ``best_response_root``,
        ``equilibrium_solve``, ``exp_inplace``, ``pair_dot_batch``; call
        shape in :mod:`repro.backend.dispatch`) or ``None`` for the
        lockstep numpy path.
    cache_tag:
        Store/cache key namespace; ``""`` for numpy-identical results.
    fallback_reason:
        Why a requested compiled backend resolved to ``numpy``, if it did.
    """

    name: str
    requested: str
    kernels: object | None
    cache_tag: str
    fallback_reason: str | None = None

    @property
    def compiled(self) -> bool:
        return self.kernels is not None


def _resolve(requested: str) -> Backend:
    name = requested.strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {requested!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if name == "numpy":
        return Backend("numpy", requested, None, "")
    if name == "pyloops":
        from repro.backend import kernels_py

        return Backend("pyloops", requested, kernels_py, _KERNEL_CACHE_TAG)
    # "compiled": the C kernels, else numpy.
    from repro.backend import cext

    try:
        kernels = cext.load()
    except cext.CExtUnavailable as exc:
        return Backend("numpy", requested, None, "", fallback_reason=str(exc))
    return Backend("cext", requested, kernels, _KERNEL_CACHE_TAG)


def _make_exp(kernels):
    def exp_fn(x):
        arr = np.ascontiguousarray(x, dtype=np.float64)
        out = np.empty_like(arr)
        kernels.exp_inplace(arr.reshape(-1), out.reshape(-1))
        return out

    return exp_fn


def _make_pair_dot(kernels):
    def pair_dot_fn(a, b):
        a2 = np.ascontiguousarray(a, dtype=np.float64)
        b2 = np.ascontiguousarray(b, dtype=np.float64)
        out = np.empty(a2.shape[0])
        kernels.pair_dot_batch(a2, b2, out)
        return out

    return pair_dot_fn


_current: Backend | None = None


def get_backend() -> Backend:
    """The active backend (resolving ``REPRO_BACKEND`` on first use)."""
    global _current
    if _current is None:
        set_backend(os.environ.get("REPRO_BACKEND", "numpy"))
    return _current


def set_backend(name: str) -> Backend:
    """Switch the active backend; rebinds :mod:`repro.backend.ops` too."""
    global _current
    backend = _resolve(name)
    if backend.kernels is None:
        ops._bind_numpy()
    else:
        ops._bind(_make_exp(backend.kernels), _make_pair_dot(backend.kernels))
    _current = backend
    return backend


@contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Temporarily switch backend, restoring the previous one after."""
    previous = get_backend()
    backend = set_backend(name)
    try:
        yield backend
    finally:
        set_backend(previous.requested)


def available_backends() -> dict[str, str]:
    """Resolution status per selectable name (for CLI help and docs)."""
    status: dict[str, str] = {}
    for name in BACKEND_NAMES:
        resolved = _resolve(name)
        if resolved.fallback_reason:
            status[name] = f"falls back to numpy ({resolved.fallback_reason})"
        else:
            status[name] = f"resolves to {resolved.name}"
    return status


def warm_kernels(backend: Backend | None = None) -> None:
    """Run each fused kernel once on a tiny problem to pay its load cost.

    Service pool workers call this at startup so the first real task does
    not absorb the one-off C build (or library load) into its wall
    time. The problem has one column per demand and per throughput family
    tag, so every per-tag branch is called here. A no-op for the numpy
    backend.
    """
    backend = backend or get_backend()
    kernels = backend.kernels
    if kernels is None:
        return
    from repro.backend import dispatch

    n = 4
    demand_tags = np.array(
        [
            dispatch.DEMAND_EXPONENTIAL,
            dispatch.DEMAND_LOGIT,
            dispatch.DEMAND_LINEAR,
            dispatch.DEMAND_POWER,
        ],
        dtype=np.int64,
    )
    demand_params = np.array(
        [
            [1.0, 0.5, 0.0, 0.0, 1.0],
            [2.0, 1.0, 0.5, 0.0, 0.5],
            [0.5, 0.5, 1e-3, 0.998, 1.0],
            [2.0, 0.5, 0.0, 0.0, 1.0],
        ]
    )
    rate_tags = np.array(
        [
            dispatch.RATE_EXPONENTIAL,
            dispatch.RATE_POWER,
            dispatch.RATE_RATIONAL,
            dispatch.RATE_EXPONENTIAL,
        ],
        dtype=np.int64,
    )
    rate_params = np.array([[1.0, 1.0], [2.0, 1.0], [1.5, 0.8], [3.0, 1.0]])
    populations = np.full((1, n), 0.25)
    plan = dispatch.KernelPlan(
        price=1.0,
        values=np.ones(n),
        demand_tags=demand_tags,
        demand_params=demand_params,
        rate_tags=rate_tags,
        rate_params=rate_params,
        mu=1.0,
        xtol=1e-10,
    )
    bound = plan.bound(kernels)
    kernels.congestion_batch(bound, populations, None)
    kernels.marginal_batch(bound, np.zeros((1, n)), None)
    kernels.best_response_root(bound, np.zeros(n), 0.5, None, 1e-6)
    kernels.equilibrium_solve(bound, np.zeros(n), 0.5, 1e-10, 2)
    kernels.exp_inplace(np.zeros(4), np.zeros(4))
    kernels.pair_dot_batch(populations, populations, np.zeros(1))
