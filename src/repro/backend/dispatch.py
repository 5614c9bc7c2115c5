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

Kernel modules
--------------
Every kernel module (``kernels_py`` and the ``cext`` binding) takes the
same calls, so nothing here branches on the backend:

* ``bind(plan)`` — the plan's constant arguments (price, values, tags,
  parameters, capacity, tolerance) in the module's own form; built once
  per plan and module (:meth:`KernelPlan.bound`). The C binding keeps the
  arrays' addresses, so a call marshals only its per-call arrays.
* ``congestion_batch(bound, populations, phi0)`` →
  ``(phi, stats, fail_rows, fail_lo, fail_hi)``
* ``marginal_batch(bound, s, phi0)`` →
  ``(u, phi, stats, n_pop_bad, fail_rows, fail_lo, fail_hi)``
* ``best_response_root(bound, s, cap, phi0, root_xtol)`` →
  ``(responses, u_zero, u_cap, phi_chain, stats, status, bad_row)``
* ``equilibrium_solve(bound, s0, cap, tol, max_sweeps, share_rate=None)``
  → ``(profile, state_row, stats, iterations, status, bad, bad_interval)``:
  a whole warm-started equilibrium solve (``EQUILIBRIUM_*`` status words
  below; ``state_row`` is :func:`fused_equilibrium`'s layout)
* ``revenue_slope(bound, s, cap, share_rate)`` → ``(slope, stats)``: the
  state row's revenue slope at a profile solved elsewhere

``phi0`` is a contiguous warm-start vector or ``None``. Each call carves
its outputs from one fresh float64 and one fresh int64 workspace; the
``fail_*`` views hold only the failing rows. ``stats`` accumulates
``[residual_evals, brackets_expanded]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from time import perf_counter

import numpy as np

from repro.backend import Backend, profiling
from repro.exceptions import BracketError, EquilibriumError, ModelError

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
    "fused_equilibrium",
    "fused_revenue_slope",
    "EQUILIBRIUM_CONVERGED",
    "EQUILIBRIUM_BUDGET",
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

#: Status words of ``equilibrium_solve``: converged and certified-ready,
#: sweep budget spent (the caller's fallback chain takes over), then the
#: failures :func:`fused_equilibrium` maps to the lockstep path's
#: exceptions.
EQUILIBRIUM_CONVERGED = 0
EQUILIBRIUM_BUDGET = 1
EQUILIBRIUM_BRACKET = 2
EQUILIBRIUM_POPULATIONS = 3
EQUILIBRIUM_CORNER = 4
EQUILIBRIUM_SUBSIDIES = 5
EQUILIBRIUM_ROOT_BRACKET = 6

#: The vectorized equilibrium solve's schedule, shared by
#: ``core/equilibrium.py`` and both kernel implementations (``_kernels.c``
#: repeats the numbers): the per-sweep change below which the sweeps hand
#: over to the Newton polish, the polish's step budget and active-set
#: tolerance, and its line-search scales, tried in order.
NEWTON_TRIGGER = 1e-3
NEWTON_MAX_ITER = 15
NEWTON_ACTIVE_TOL = 1e-12
LINESEARCH_SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.015625)

#: The revenue slope's Theorem 6 inputs, shared with ``core/dynamics.py``'s
#: defaults (``_kernels.c`` repeats the numbers): a subsidy within
#: ``SLOPE_BOUNDARY_TOL`` of a bound sits on it, and finite-difference
#: probes step ``SLOPE_STEP * max(1, |x|)`` (the cube root of machine
#: epsilon).
SLOPE_BOUNDARY_TOL = 1e-7
SLOPE_STEP = 6.055454452393343e-06

#: Expansion budget mirrored from expand_bracket_batch's default.
_MAX_EXPANSIONS = 200

_NO_DEMAND_TAGS = np.zeros(0, dtype=np.int64)
_NO_DEMAND_PARAMS = np.zeros((0, DEMAND_WIDTH))


@dataclass(frozen=True, eq=False)
class KernelPlan:
    """Precomputed kernel inputs for one market's tagged model.

    Built once per :class:`~repro.providers.market.Market` (see
    ``Market.kernel_plan``); ``None`` when a demand or throughput column
    has no tag or the utilization is not linear. A congestion-only plan
    (:meth:`congestion`) carries the throughput side alone. Arrays are
    contiguous ``float64``/``int64``.
    """

    price: float
    values: np.ndarray
    demand_tags: np.ndarray
    demand_params: np.ndarray
    rate_tags: np.ndarray
    rate_params: np.ndarray
    mu: float
    xtol: float
    _bound: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def congestion(
        cls, rate_tags, rate_params, mu: float, xtol: float
    ) -> "KernelPlan":
        """A plan for congestion solves only (no demand columns)."""
        return cls(
            price=0.0,
            values=np.zeros(0),
            demand_tags=_NO_DEMAND_TAGS,
            demand_params=_NO_DEMAND_PARAMS,
            rate_tags=np.ascontiguousarray(rate_tags, dtype=np.int64),
            rate_params=_contig(rate_params),
            mu=float(mu),
            xtol=float(xtol),
        )

    def repriced(self, price: float, weight: float) -> "KernelPlan":
        """This plan at another price, with every demand column's share
        weight set to ``weight``.

        The copy shares ``values``, the tags and ``rate_params``, and has
        its own ``demand_params`` and bindings: it is the plan of the same
        market with each demand wrapped as ``ScaledDemand(d, weight)`` and
        the ISP at ``price``, without building that market.
        """
        demand_params = self.demand_params.copy()
        demand_params[:, -1] = weight
        return KernelPlan(
            price=price,
            values=self.values,
            demand_tags=self.demand_tags,
            demand_params=demand_params,
            rate_tags=self.rate_tags,
            rate_params=self.rate_params,
            mu=self.mu,
            xtol=self.xtol,
        )

    def bound(self, kernels):
        """``kernels.bind(self)``, built once per kernel module."""
        args = self._bound.get(kernels)
        if args is None:
            args = self._bound[kernels] = kernels.bind(self)
        return args

    def __reduce__(self):
        # The bindings hold addresses valid only in this process.
        return (
            type(self),
            tuple(getattr(self, f.name) for f in fields(self) if f.init),
        )


def _contig(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _warm_start(phi0, size: int) -> np.ndarray | None:
    """Validate an optional warm-start vector against the kernel's bounds."""
    if phi0 is None:
        return None
    start = _contig(phi0)
    if start.shape != (size,):
        raise ValueError(
            f"phi0 must have shape ({size},), got {start.shape}"
        )
    return start


def _raise_bracket(fail_rows, fail_lo, fail_hi) -> None:
    rows = [int(r) for r in fail_rows]
    intervals = [
        (float(lo), float(hi)) for lo, hi in zip(fail_lo, fail_hi)
    ]
    raise BracketError.unbracketed(_MAX_EXPANSIONS, rows, intervals)


def _raise_root_bracket(bad_row) -> None:
    raise BracketError(
        f"no sign change found after {_MAX_EXPANSIONS} expansions in "
        f"best-response trial row {int(bad_row)}"
    )


def fused_congestion(
    backend: Backend,
    plan: KernelPlan,
    populations: np.ndarray,
    phi0: np.ndarray | None,
) -> np.ndarray:
    """Per-row congestion fixed points via the backend's compiled kernel.

    Uses the plan's throughput columns, capacity and tolerance. Input
    validation (shapes, finite non-negative populations) is the caller's
    job, exactly as on the lockstep path.
    """
    populations = _contig(populations)
    start = _warm_start(phi0, populations.shape[0])
    kernels = backend.kernels
    began = perf_counter() if profiling.enabled else 0.0
    phi, stats, fail_rows, fail_lo, fail_hi = kernels.congestion_batch(
        plan.bound(kernels), populations, start
    )
    if profiling.enabled:
        profiling.record_kernel(stats, perf_counter() - began)
    if fail_rows.size:
        _raise_bracket(fail_rows, fail_lo, fail_hi)
    return phi


def fused_marginals(
    backend: Backend,
    plan: KernelPlan,
    profiles: np.ndarray,
    phi0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal utilities ``u(s)`` and utilizations for a profile batch."""
    s = _contig(profiles)
    start = _warm_start(phi0, s.shape[0])
    kernels = backend.kernels
    began = perf_counter() if profiling.enabled else 0.0
    u, phi, stats, npop, fail_rows, fail_lo, fail_hi = kernels.marginal_batch(
        plan.bound(kernels), s, start
    )
    if profiling.enabled:
        profiling.record_kernel(stats, perf_counter() - began)
    if npop:
        raise ModelError("populations must be finite and non-negative")
    if fail_rows.size:
        _raise_bracket(fail_rows, fail_lo, fail_hi)
    return u, phi


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
    start = _warm_start(phi0, s.shape[0])
    kernels = backend.kernels
    began = perf_counter() if profiling.enabled else 0.0
    responses, u_zero, u_cap, phi_chain, stats, status, bad = (
        kernels.best_response_root(
            plan.bound(kernels), s, float(cap), start, float(root_xtol)
        )
    )
    if profiling.enabled:
        profiling.record_kernel(stats, perf_counter() - began)
    if status == 3:
        raise ModelError("populations must be finite and non-negative")
    if status == 2:
        _raise_root_bracket(bad)
    return responses, u_zero, u_cap, phi_chain


def fused_equilibrium(
    backend: Backend,
    plan: KernelPlan,
    profile: np.ndarray,
    cap: float,
    tol: float,
    max_sweeps: int,
    share_rate: float | None = None,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """One whole equilibrium solve in a single kernel call.

    Runs ``core/equilibrium.py``'s vectorized Jacobi + Newton solve at
    damping 1 from ``profile`` (shape ``(N,)``, already in ``[0, cap]``)
    and certifies the result. Returns ``(subsidies, state_row, iterations,
    status)`` with ``status`` :data:`EQUILIBRIUM_CONVERGED` or
    :data:`EQUILIBRIUM_BUDGET` (``max_sweeps`` spent; ``state_row`` is
    then unset). ``state_row`` holds the solved state at the profile, with
    a cold congestion root as ``Market.solve`` takes it: subsidies,
    effective prices, populations, rates, throughputs and utilities
    (``N`` each), then utilization, gap slope, revenue, welfare, the
    natural-map KKT residual and the revenue slope ``dR/dp``. The slope
    is NaN unless ``share_rate`` is given: it is then Theorem 7's
    marginal revenue along a price move that scales every demand weight
    by ``d ln w/dp = share_rate`` (``0.0`` for eq. 13 alone; see
    :func:`repro.core.revenue.revenue_slope`), and NaN only where
    Theorem 6 fails. Failures raise the exceptions the lockstep path
    raises.

    Timed into the profiler's ``equilibrium_kernel_*`` counters, never
    ``kernel_calls``; its congestion evaluations count as residual evals.
    """
    s = _contig(profile)
    kernels = backend.kernels
    began = perf_counter() if profiling.enabled else 0.0
    subsidies, row, stats, iterations, status, bad, interval = (
        kernels.equilibrium_solve(
            plan.bound(kernels), s, float(cap), float(tol), int(max_sweeps),
            None if share_rate is None else float(share_rate),
        )
    )
    if profiling.enabled:
        profiling.record_equilibrium_kernel(stats, perf_counter() - began)
    if status <= EQUILIBRIUM_BUDGET:
        return subsidies, row, iterations, status
    if status == EQUILIBRIUM_SUBSIDIES:
        raise ModelError("subsidies must be finite and non-negative")
    if status == EQUILIBRIUM_POPULATIONS:
        raise ModelError("populations must be finite and non-negative")
    if status == EQUILIBRIUM_BRACKET:
        _raise_bracket([bad], [interval[0]], [interval[1]])
    if status == EQUILIBRIUM_ROOT_BRACKET:
        _raise_root_bracket(bad)
    hi = min(float(cap), float(plan.values[bad]))
    raise EquilibriumError(
        f"marginal utility of player {bad} is not finite on "
        f"[0, {hi}] (degenerate model parameters?)"
    )


def fused_revenue_slope(
    backend: Backend,
    plan: KernelPlan,
    profile: np.ndarray,
    cap: float,
    share_rate: float,
) -> float:
    """The revenue slope :func:`fused_equilibrium` reports, at an
    equilibrium ``profile`` solved elsewhere (NaN where it would be).

    Timed into the profiler's ``kernel_*`` counters: it is no
    equilibrium solve.
    """
    s = _contig(profile)
    kernels = backend.kernels
    began = perf_counter() if profiling.enabled else 0.0
    slope, stats = kernels.revenue_slope(
        plan.bound(kernels), s, float(cap), float(share_rate)
    )
    if profiling.enabled:
        profiling.record_kernel(stats, perf_counter() - began)
    return slope
