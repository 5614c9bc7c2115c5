"""The congestion fixed point (Definition 1, Lemma 1).

A *traffic class* is a user population attached to a throughput function —
the physical footprint of one CP. Given capacity ``µ`` and classes
``(m_i, λ_i)``, the system utilization is the unique ``φ`` solving

    φ = Φ( Σ_k m_k·λ_k(φ), µ )            (Definition 1)

equivalently the unique root of the strictly increasing gap function

    g(φ) = Θ(φ, µ) − Σ_k m_k·λ_k(φ)        (Lemma 1)

:class:`CongestionSystem` owns the utilization metric and capacity and
produces a :class:`SystemState` — the frozen snapshot (φ, per-class rates and
throughputs, gap slope) that every higher layer consumes. The batched entry
point :meth:`CongestionSystem.solve_population_batch` resolves a whole
``(B, N)`` matrix of populations (B systems sharing the same throughput
laws) with one vectorized bracketed solve plus Newton polish, and is the
engine room of the array-native evaluation stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.backend import get_backend, ops, profiling
from repro.backend.dispatch import KernelPlan, fused_congestion
from repro.exceptions import ModelError
from repro.network.throughput import ThroughputFunction, ThroughputTable
from repro.network.utilization import LinearUtilization, UtilizationFunction
from repro.solvers.batch_rootfind import (
    bracketed_root_batch,
    expand_bracket_batch,
    newton_polish_batch,
)
from repro.solvers.rootfind import solve_increasing

__all__ = [
    "TrafficClass",
    "SystemState",
    "BatchedSystemState",
    "CongestionSystem",
]

#: Relative Newton-step threshold treating a utilization root as converged.
_NEWTON_RTOL = 1e-15


@dataclass(frozen=True)
class TrafficClass:
    """One CP's physical footprint: a population on a throughput law.

    Attributes
    ----------
    population:
        Number of users ``m_i ≥ 0`` (fractional populations are fine — the
        model is macroscopic).
    throughput:
        The per-user throughput function ``λ_i(φ)``.
    label:
        Optional display name carried through to reports.
    """

    population: float
    throughput: ThroughputFunction
    label: str = ""

    def __post_init__(self) -> None:
        if self.population < 0.0 or not np.isfinite(self.population):
            raise ModelError(
                f"population must be finite and non-negative, got {self.population}"
            )

    def demand_at(self, phi: float) -> float:
        """Class throughput demand ``m_i·λ_i(φ)`` at utilization ``φ``."""
        return self.population * self.throughput.rate(phi)

    def with_population(self, population: float) -> "TrafficClass":
        """Copy with a different population (demand layers use this)."""
        return TrafficClass(population, self.throughput, self.label)


@dataclass(frozen=True)
class SystemState:
    """Solved snapshot of a system ``(m, µ)`` at its unique utilization.

    Attributes
    ----------
    utilization:
        The fixed-point utilization ``φ(m, µ)``.
    rates:
        Per-class per-user throughput ``λ_i(φ)``.
    throughputs:
        Per-class total throughput ``θ_i = m_i·λ_i(φ)``.
    populations:
        The populations ``m_i`` the state was solved under.
    gap_slope:
        ``dg/dφ = ∂Θ/∂φ − Σ m_k·λ'_k(φ) > 0`` (equation (2)) — the
        normalizer of every comparative-static in Theorems 1, 2, 6 and 8.
    capacity:
        Capacity ``µ`` of the solve.
    """

    utilization: float
    rates: np.ndarray
    throughputs: np.ndarray
    populations: np.ndarray
    gap_slope: float
    capacity: float

    @property
    def aggregate_throughput(self) -> float:
        """Total system throughput ``θ = Σ_k θ_k``."""
        return float(np.sum(self.throughputs))

    @property
    def size(self) -> int:
        """Number of traffic classes."""
        return int(self.throughputs.size)


@dataclass(frozen=True)
class BatchedSystemState:
    """Solved snapshots of ``B`` systems sharing one set of throughput laws.

    The batched sibling of :class:`SystemState`: row ``b`` holds the fixed
    point of the system with populations ``populations[b]``. All arrays are
    ``(B,)`` or ``(B, N)``.
    """

    utilizations: np.ndarray
    rates: np.ndarray
    throughputs: np.ndarray
    populations: np.ndarray
    gap_slopes: np.ndarray
    capacity: float

    @property
    def batch_size(self) -> int:
        """Number of solved systems ``B``."""
        return int(self.utilizations.shape[0])

    @property
    def size(self) -> int:
        """Number of traffic classes ``N``."""
        return int(self.populations.shape[1])

    @property
    def aggregate_throughputs(self) -> np.ndarray:
        """Total throughput ``θ`` per system, shape ``(B,)``."""
        return self.throughputs.sum(axis=1)

    def state(self, index: int) -> SystemState:
        """The scalar :class:`SystemState` of batch row ``index``."""
        return SystemState(
            utilization=float(self.utilizations[index]),
            rates=self.rates[index].copy(),
            throughputs=self.throughputs[index].copy(),
            populations=self.populations[index].copy(),
            gap_slope=float(self.gap_slopes[index]),
            capacity=self.capacity,
        )


class CongestionSystem:
    """The physical system ``(Φ, µ)`` that resolves congestion fixed points.

    Parameters
    ----------
    utilization:
        A utilization metric satisfying Assumption 1.
    capacity:
        Capacity ``µ > 0``.
    xtol:
        Absolute bracket tolerance of the scalar root solve for ``φ``.

    Examples
    --------
    >>> from repro.network import (CongestionSystem, LinearUtilization,
    ...                            ExponentialThroughput, TrafficClass)
    >>> system = CongestionSystem(LinearUtilization(), capacity=1.0)
    >>> classes = [TrafficClass(1.0, ExponentialThroughput(beta=3.0))]
    >>> state = system.solve(classes)
    >>> round(state.utilization, 6)
    0.34997
    """

    def __init__(
        self,
        utilization: UtilizationFunction,
        capacity: float,
        *,
        xtol: float = 1e-12,
    ) -> None:
        if capacity <= 0.0 or not np.isfinite(capacity):
            raise ModelError(f"capacity must be positive and finite, got {capacity}")
        self._utilization = utilization
        self._capacity = float(capacity)
        self._xtol = xtol

    @property
    def utilization_function(self) -> UtilizationFunction:
        """The utilization metric ``Φ``."""
        return self._utilization

    @property
    def capacity(self) -> float:
        """Capacity ``µ``."""
        return self._capacity

    @property
    def xtol(self) -> float:
        """Absolute tolerance of the utilization root solves."""
        return self._xtol

    def with_capacity(self, capacity: float) -> "CongestionSystem":
        """Copy of this system with a different capacity (Theorem 1 sweeps)."""
        return CongestionSystem(self._utilization, capacity, xtol=self._xtol)

    def gap(self, phi: float, classes: Sequence[TrafficClass]) -> float:
        """Throughput gap ``g(φ) = Θ(φ, µ) − Σ m_k λ_k(φ)`` (Lemma 1)."""
        supply = self._utilization.theta(phi, self._capacity)
        demand = sum(cls.demand_at(phi) for cls in classes)
        return supply - demand

    def gap_slope(self, phi: float, classes: Sequence[TrafficClass]) -> float:
        """Gap derivative ``dg/dφ`` from equation (2); strictly positive."""
        supply_slope = self._utilization.dtheta_dphi(phi, self._capacity)
        demand_slope = sum(
            cls.population * cls.throughput.d_rate(phi) for cls in classes
        )
        return supply_slope - demand_slope

    def solve_utilization(
        self,
        classes: Sequence[TrafficClass],
        *,
        plan: KernelPlan | None = None,
    ) -> float:
        """Unique fixed-point utilization ``φ(m, µ)`` of Definition 1.

        ``plan`` is a kernel plan of this system whose throughput columns
        are the classes' (a :class:`~repro.providers.market.Market` passes
        its cached one); without it, the columns are rebuilt per call.
        """
        if not classes or all(cls.population == 0.0 for cls in classes):
            return 0.0
        backend = get_backend()
        if backend.kernels is not None:
            if plan is None and type(self._utilization) is LinearUtilization:
                plan = self._congestion_plan(
                    ThroughputTable([cls.throughput for cls in classes])
                )
            if plan is not None:
                populations = np.array([[cls.population for cls in classes]])
                phi = fused_congestion(backend, plan, populations, None)
                return float(phi[0])
        phi = solve_increasing(
            lambda phi: self.gap(phi, classes), lo=0.0, xtol=self._xtol
        )
        # Newton polish to machine precision so scalar and batched solves
        # agree far below any downstream comparison tolerance.
        for _ in range(3):
            step = self.gap(phi, classes) / self.gap_slope(phi, classes)
            refined = max(phi - step, 0.0)
            if abs(refined - phi) <= _NEWTON_RTOL * (1.0 + abs(refined)):
                phi = refined
                break
            phi = refined
        return phi

    def solve(
        self,
        classes: Sequence[TrafficClass],
        *,
        plan: KernelPlan | None = None,
    ) -> SystemState:
        """Solve the fixed point and return the full :class:`SystemState`.

        ``plan`` as in :meth:`solve_utilization`.
        """
        phi = self.solve_utilization(classes, plan=plan)
        rates = np.array([cls.throughput.rate(phi) for cls in classes])
        populations = np.array([cls.population for cls in classes])
        return SystemState(
            utilization=phi,
            rates=rates,
            throughputs=populations * rates,
            populations=populations,
            gap_slope=self.gap_slope(phi, classes),
            capacity=self._capacity,
        )

    # ------------------------------------------------------------------
    # batched solving
    # ------------------------------------------------------------------
    def solve_population_batch(
        self,
        throughputs: ThroughputTable | Sequence[ThroughputFunction],
        populations,
        *,
        phi0: np.ndarray | None = None,
    ) -> BatchedSystemState:
        """Solve ``B`` fixed points sharing one set of throughput laws.

        Parameters
        ----------
        throughputs:
            The ``N`` throughput laws (or a prebuilt
            :class:`~repro.network.throughput.ThroughputTable`).
        populations:
            Matrix of populations, shape ``(B, N)``: row ``b`` is one
            system's ``m`` vector.
        phi0:
            Optional ``(B,)`` warm-start utilizations (e.g. the previous
            batch's roots). Rows whose warm Newton iteration fails fall
            back to the cold bracketed solve; warm starts change iteration
            counts only, never converged values.
        """
        table = (
            throughputs
            if isinstance(throughputs, ThroughputTable)
            else ThroughputTable(throughputs)
        )
        populations = np.asarray(populations, dtype=float)
        if populations.ndim != 2 or populations.shape[1] != table.size:
            raise ModelError(
                f"populations must have shape (B, {table.size}), "
                f"got {populations.shape}"
            )
        if np.any(populations < 0.0) or not np.all(np.isfinite(populations)):
            raise ModelError("populations must be finite and non-negative")
        mu = self._capacity
        util = self._utilization

        backend = get_backend()
        plan = (
            self._congestion_plan(table)
            if backend.kernels is not None and type(util) is LinearUtilization
            else None
        )
        if plan is not None:
            phi = fused_congestion(backend, plan, populations, phi0)
        else:
            began = perf_counter() if profiling.enabled else 0.0
            phi = self._solve_phi_lockstep(table, populations, phi0)
            if profiling.enabled:
                profiling.record_lockstep(perf_counter() - began)

        rates = table.rates(phi)
        d_rates = table.d_rates(phi)
        gap_slopes = util.dtheta_dphi(phi, mu) - ops.pair_dot(
            populations, d_rates
        )
        return BatchedSystemState(
            utilizations=phi,
            rates=rates,
            throughputs=populations * rates,
            populations=populations,
            gap_slopes=gap_slopes,
            capacity=mu,
        )

    def _congestion_plan(self, table: ThroughputTable) -> KernelPlan | None:
        """A congestion-only kernel plan for ``table``, if it is tagged."""
        columns = table.kernel_columns()
        if columns is None:
            return None
        return KernelPlan.congestion(*columns, self._capacity, self._xtol)

    def _solve_phi_lockstep(
        self,
        table: ThroughputTable,
        populations: np.ndarray,
        phi0: np.ndarray | None,
    ) -> np.ndarray:
        """The reference lockstep solve (warm Newton, then cold bracketing).

        Always used when no compiled kernels are active or the model falls
        outside the fused kernels' families; also the comparison arm of the
        golden fused-vs-lockstep parity tests.
        """
        batch = populations.shape[0]
        mu = self._capacity
        util = self._utilization

        def gap_of(phi: np.ndarray) -> np.ndarray:
            rates = table.rates(phi)
            demand = ops.pair_dot(populations, rates)
            return util.theta(phi, mu) - demand

        def gap_and_slope(
            phi: np.ndarray, rows: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray]:
            rates = table.rates(phi)
            d_rates = table.d_rates(phi)
            pops = populations[rows]
            demand = ops.pair_dot(pops, rates)
            demand_slope = ops.pair_dot(pops, d_rates)
            gap = util.theta(phi, mu) - demand
            slope = util.dtheta_dphi(phi, mu) - demand_slope
            return gap, slope

        idle = ~populations.any(axis=1)
        phi = np.zeros(batch)
        solved = idle.copy()

        if phi0 is not None and not np.all(solved):
            start = np.maximum(np.asarray(phi0, dtype=float), 0.0)
            start = np.where(np.isfinite(start) & ~solved, start, 0.0)
            warm, converged = newton_polish_batch(
                gap_and_slope, start, lower=0.0, rtol=_NEWTON_RTOL, max_iter=25
            )
            take = converged & ~solved
            phi = np.where(take, warm, phi)
            solved |= take

        if not np.all(solved):
            cold = self._solve_cold(gap_of, gap_and_slope, batch, ~solved)
            phi = np.where(solved, phi, cold)
        return phi

    def _solve_cold(self, gap_of, gap_and_slope, batch: int, rows) -> np.ndarray:
        """Bracket + bisect + Newton for the rows selected by ``rows``."""
        lo, hi, f_lo, f_hi = expand_bracket_batch(gap_of, batch)
        coarse = bracketed_root_batch(
            gap_of,
            lo,
            hi,
            f_lo,
            f_hi,
            active=np.asarray(rows, dtype=bool),
            xtol=1e-6,
            bisect_iters=25,
            max_iter=30,
        )
        polished, converged = newton_polish_batch(
            gap_and_slope, coarse, lower=0.0, rtol=_NEWTON_RTOL, max_iter=40
        )
        if not np.all(converged | ~np.asarray(rows, dtype=bool)):
            # Extremely defensive: finish stragglers by pure bisection to xtol.
            refined = bracketed_root_batch(
                gap_of,
                lo,
                hi,
                f_lo,
                f_hi,
                active=np.asarray(rows, dtype=bool) & ~converged,
                xtol=self._xtol,
                bisect_iters=200,
                max_iter=200,
            )
            polished = np.where(converged, polished, refined)
        return polished
