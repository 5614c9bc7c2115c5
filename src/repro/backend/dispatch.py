"""High-level fused-kernel entry points with exception mapping.

The network/core layers call these when the active backend carries
compiled kernels and the model is kernel-eligible: every demand and
throughput column carries a family tag (the table below) and the
utilization is linear. Each wrapper marshals arrays, times the kernel for
the profiler, and converts status codes back into the exact exceptions
(and messages) the lockstep NumPy path raises.

Family tags
-----------
The kernels see a model as per-column integer tags plus a fixed-width
float parameter matrix (built by ``DemandTable.kernel_columns`` and
``ThroughputTable.kernel_columns``). Demand rows hold ``DEMAND_WIDTH``
floats: up to four family parameters, then the share weight.

* ``DEMAND_EXPONENTIAL`` — ExponentialDemand: ``alpha, scale``
* ``DEMAND_LOGIT`` — LogitDemand: ``alpha, midpoint, scale``
* ``DEMAND_LINEAR`` — LinearDemand: ``base, slope, smoothing, t*``
  (``t*`` is the switch price to the exponential tail)
* ``DEMAND_POWER`` — ShiftedPowerDemand: ``alpha, scale``

The weight is that of one :class:`~repro.network.demand.ScaledDemand`
level over the family, ``1.0`` for a bare column (multiplying by one is
exact, so bare and weighted columns share one code path). Throughput
rows hold ``beta, peak`` for every family:

* ``RATE_EXPONENTIAL`` — ExponentialThroughput
* ``RATE_POWER`` — PowerLawThroughput
* ``RATE_RATIONAL`` — RationalThroughput

The numbers are shared with ``kernels_py.py`` and ``_kernels.c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.backend import Backend, profiling
from repro.exceptions import BracketError, ModelError

__all__ = [
    "DEMAND_EXPONENTIAL",
    "DEMAND_LOGIT",
    "DEMAND_LINEAR",
    "DEMAND_POWER",
    "DEMAND_WIDTH",
    "RATE_EXPONENTIAL",
    "RATE_POWER",
    "RATE_RATIONAL",
    "KernelPlan",
    "fused_congestion",
    "fused_marginals",
    "fused_best_response",
]

DEMAND_EXPONENTIAL = 0
DEMAND_LOGIT = 1
DEMAND_LINEAR = 2
DEMAND_POWER = 3
#: Four family parameters, then the share weight.
DEMAND_WIDTH = 5

RATE_EXPONENTIAL = 0
RATE_POWER = 1
RATE_RATIONAL = 2

#: Expansion budget mirrored from expand_bracket_batch's default.
_MAX_EXPANSIONS = 200


@dataclass(frozen=True)
class KernelPlan:
    """Precomputed kernel inputs for one market's tagged model.

    Built once per :class:`~repro.providers.market.Market` (see
    ``Market.kernel_plan``); ``None`` when a demand or throughput column
    has no tag or the utilization is not linear.
    """

    price: float
    values: np.ndarray
    demand_tags: np.ndarray
    demand_params: np.ndarray
    rate_tags: np.ndarray
    rate_params: np.ndarray
    mu: float
    xtol: float


def _contig(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _warm_start(phi0, size: int) -> tuple[np.ndarray, bool]:
    """Marshal an optional warm-start vector, guarding the kernel's bounds."""
    if phi0 is None:
        return np.zeros(1), False
    start = _contig(phi0)
    if start.shape != (size,):
        raise ValueError(
            f"phi0 must have shape ({size},), got {start.shape}"
        )
    return start, True


def _raise_bracket(nfail, fail_rows, fail_lo, fail_hi) -> None:
    rows = [int(r) for r in fail_rows[:nfail]]
    intervals = [
        (float(fail_lo[i]), float(fail_hi[i])) for i in range(nfail)
    ]
    raise BracketError.unbracketed(_MAX_EXPANSIONS, rows, intervals)


def fused_congestion(
    backend: Backend,
    populations: np.ndarray,
    rate_tags: np.ndarray,
    rate_params: np.ndarray,
    mu: float,
    xtol: float,
    phi0: np.ndarray | None,
) -> np.ndarray:
    """Per-row congestion fixed points via the backend's compiled kernel.

    Input validation (shapes, finite non-negative populations) is the
    caller's job, exactly as on the lockstep path.
    """
    populations = _contig(populations)
    size = populations.shape[0]
    phi_out = np.empty(size)
    stats = np.zeros(2, dtype=np.int64)
    fail_rows = np.empty(size, dtype=np.int64)
    fail_lo = np.empty(size)
    fail_hi = np.empty(size)
    start, has_phi0 = _warm_start(phi0, size)
    began = perf_counter() if profiling.enabled else 0.0
    nfail = backend.kernels.congestion_batch(
        populations, np.ascontiguousarray(rate_tags, dtype=np.int64),
        _contig(rate_params), float(mu),
        start, has_phi0, float(xtol),
        phi_out, stats, fail_rows, fail_lo, fail_hi,
    )
    if profiling.enabled:
        profiling.record_kernel(stats, perf_counter() - began)
    if nfail:
        _raise_bracket(nfail, fail_rows, fail_lo, fail_hi)
    return phi_out


def fused_marginals(
    backend: Backend,
    plan: KernelPlan,
    profiles: np.ndarray,
    phi0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal utilities ``u(s)`` and utilizations for a profile batch."""
    s = _contig(profiles)
    size, n = s.shape
    u_out = np.empty((size, n))
    phi_out = np.empty(size)
    stats = np.zeros(2, dtype=np.int64)
    pop_rows = np.empty(size, dtype=np.int64)
    fail_rows = np.empty(size, dtype=np.int64)
    fail_lo = np.empty(size)
    fail_hi = np.empty(size)
    start, has_phi0 = _warm_start(phi0, size)
    began = perf_counter() if profiling.enabled else 0.0
    npop, nfail = backend.kernels.marginal_batch(
        s, plan.price, plan.values, plan.demand_tags, plan.demand_params,
        plan.rate_tags, plan.rate_params, plan.mu, plan.xtol,
        start, has_phi0,
        u_out, phi_out, stats, pop_rows, fail_rows, fail_lo, fail_hi,
    )
    if profiling.enabled:
        profiling.record_kernel(stats, perf_counter() - began)
    if npop:
        raise ModelError("populations must be finite and non-negative")
    if nfail:
        _raise_bracket(nfail, fail_rows, fail_lo, fail_hi)
    return u_out, phi_out


def fused_best_response(
    backend: Backend,
    plan: KernelPlan,
    profile: np.ndarray,
    cap: float,
    phi0: np.ndarray | None,
    root_xtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All-player best responses via the fused root loop.

    Returns ``(responses, u_zero, u_cap, phi_chain)``. The caller performs
    the corner finiteness check (it owns the lockstep error message) and
    the no-playable-player early exit *before* calling, matching the
    lockstep evaluation order.
    """
    s = _contig(profile)
    n = s.shape[0]
    responses = np.empty(n)
    u_zero = np.empty(n)
    u_cap = np.empty(n)
    stats = np.zeros(2, dtype=np.int64)
    if phi0 is None:
        phi_io = np.zeros(n)
        has_chain = False
    else:
        start, _ = _warm_start(phi0, n)
        phi_io = start.copy()
        has_chain = True
    began = perf_counter() if profiling.enabled else 0.0
    status, bad = backend.kernels.best_response_root(
        s, plan.price, plan.values, plan.demand_tags, plan.demand_params,
        plan.rate_tags, plan.rate_params, plan.mu, plan.xtol,
        float(cap), phi_io, has_chain, float(root_xtol),
        responses, u_zero, u_cap, stats,
    )
    if profiling.enabled:
        profiling.record_kernel(stats, perf_counter() - began)
    if status == 3:
        raise ModelError("populations must be finite and non-negative")
    if status == 2:
        raise BracketError(
            f"no sign change found after {_MAX_EXPANSIONS} expansions in "
            f"best-response trial row {int(bad)}"
        )
    return responses, u_zero, u_cap, phi_io
