"""The market: an access ISP serving a set of content providers.

:class:`Market` is the object every higher layer works with. It maps a
subsidy profile ``s`` (and implicitly the ISP's price ``p``) to a fully
solved :class:`MarketState`:

    t_i = p − s_i  →  m_i = m_i(t_i)  →  φ = fixed point  →
    θ_i = m_i·λ_i(φ)  →  U_i = (v_i − s_i)·θ_i,  R = p·θ,  W = Σ v_i·θ_i

The zero-subsidy case reproduces the one-sided-pricing model of §3.2.

:meth:`Market.solve_batch` evaluates a whole ``(B, N)`` batch of subsidy
profiles in one array-native pass — stacked demand collection, one
vectorized congestion solve, matrix payoff algebra — and returns a
:class:`MarketStateBatch` whose rows agree with ``B`` scalar solves to well
below 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.backend import get_backend
from repro.backend.dispatch import KernelPlan
from repro.exceptions import ModelError
from repro.network.demand import DemandTable
from repro.network.system import (
    BatchedSystemState,
    CongestionSystem,
    SystemState,
    TrafficClass,
)
from repro.network.throughput import ThroughputTable
from repro.network.utilization import LinearUtilization
from repro.providers.content_provider import ContentProvider
from repro.providers.isp import AccessISP

__all__ = ["Market", "MarketState", "MarketStateBatch"]


@dataclass(frozen=True)
class MarketState:
    """Complete solved snapshot of the market under a subsidy profile.

    Attributes
    ----------
    subsidies:
        The profile ``s`` the state was solved under.
    effective_prices:
        ``t_i = p − s_i`` per CP.
    populations:
        Realized user populations ``m_i(t_i)``.
    utilization:
        Fixed-point system utilization ``φ``.
    rates:
        Per-user throughput ``λ_i(φ)``.
    throughputs:
        CP throughput ``θ_i = m_i·λ_i(φ)``.
    utilities:
        CP utilities ``U_i = (v_i − s_i)·θ_i``.
    revenue:
        ISP revenue ``R = p·θ``.
    welfare:
        System welfare ``W = Σ_i v_i·θ_i`` (Corollary 2's metric).
    gap_slope:
        ``dg/dφ`` at the fixed point (normalizer of all sensitivities).
    price:
        The ISP price ``p`` of the solve.
    capacity:
        The capacity ``µ`` of the solve.
    """

    subsidies: np.ndarray
    effective_prices: np.ndarray
    populations: np.ndarray
    utilization: float
    rates: np.ndarray
    throughputs: np.ndarray
    utilities: np.ndarray
    revenue: float
    welfare: float
    gap_slope: float
    price: float
    capacity: float

    @property
    def aggregate_throughput(self) -> float:
        """Total delivered throughput ``θ = Σ θ_i``."""
        return float(np.sum(self.throughputs))

    @property
    def size(self) -> int:
        """Number of CPs."""
        return int(self.throughputs.size)


@dataclass(frozen=True)
class MarketStateBatch:
    """Solved snapshots of the market under ``B`` subsidy profiles at once.

    The batched sibling of :class:`MarketState`: vector quantities are
    ``(B, N)`` matrices, scalar quantities are ``(B,)`` vectors. Row ``b``
    is the market solved under ``subsidies[b]``.
    """

    subsidies: np.ndarray
    effective_prices: np.ndarray
    populations: np.ndarray
    utilizations: np.ndarray
    rates: np.ndarray
    throughputs: np.ndarray
    utilities: np.ndarray
    revenues: np.ndarray
    welfares: np.ndarray
    gap_slopes: np.ndarray
    price: float
    capacity: float

    @property
    def batch_size(self) -> int:
        """Number of solved profiles ``B``."""
        return int(self.subsidies.shape[0])

    @property
    def size(self) -> int:
        """Number of CPs ``N``."""
        return int(self.subsidies.shape[1])

    @property
    def aggregate_throughputs(self) -> np.ndarray:
        """Total delivered throughput per profile, shape ``(B,)``."""
        return self.throughputs.sum(axis=1)

    def state(self, index: int) -> MarketState:
        """The scalar :class:`MarketState` of batch row ``index``."""
        return MarketState(
            subsidies=self.subsidies[index].copy(),
            effective_prices=self.effective_prices[index].copy(),
            populations=self.populations[index].copy(),
            utilization=float(self.utilizations[index]),
            rates=self.rates[index].copy(),
            throughputs=self.throughputs[index].copy(),
            utilities=self.utilities[index].copy(),
            revenue=float(self.revenues[index]),
            welfare=float(self.welfares[index]),
            gap_slope=float(self.gap_slopes[index]),
            price=self.price,
            capacity=self.capacity,
        )


def _clip_subsidies(arr: np.ndarray) -> np.ndarray:
    """Reject entries that are not finite or below ``-1e-12``; clip at zero.

    One ``min`` and one ``max`` reduction decide it: NaN propagates through
    both, ``-inf`` and negatives fail the first and ``+inf`` the second.
    """
    if arr.size and not (arr.min() >= -1e-12 and arr.max() < np.inf):
        raise ModelError("subsidies must be finite and non-negative")
    # The ufunc np.clip(arr, 0.0, None) dispatches to, without the dispatch.
    return np.maximum(arr, 0.0)


class Market:
    """An access ISP together with the CPs whose traffic it terminates.

    Parameters
    ----------
    providers:
        The content providers (order defines the strategy-vector order).
    isp:
        The access ISP (price, capacity, utilization metric).

    Examples
    --------
    >>> from repro.providers import Market, AccessISP, exponential_cp
    >>> market = Market(
    ...     [exponential_cp(2.0, 2.0, value=1.0),
    ...      exponential_cp(5.0, 5.0, value=0.5)],
    ...     AccessISP(price=1.0, capacity=1.0),
    ... )
    >>> state = market.solve()          # no subsidies: §3.2 baseline
    >>> state.revenue > 0
    True
    """

    def __init__(self, providers: Sequence[ContentProvider], isp: AccessISP) -> None:
        providers = list(providers)
        if not providers:
            raise ModelError("a market needs at least one content provider")
        self._providers: tuple[ContentProvider, ...] = tuple(providers)
        self._isp = isp
        self._system = isp.congestion_system()
        self._values = np.array([cp.value for cp in providers])
        self._demand_table = DemandTable([cp.demand for cp in providers])
        self._throughput_table = ThroughputTable(
            [cp.throughput for cp in providers]
        )
        self._kernel_plan: KernelPlan | None | bool = False  # False = unset

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def providers(self) -> tuple[ContentProvider, ...]:
        """The CPs, in strategy-vector order."""
        return self._providers

    @property
    def isp(self) -> AccessISP:
        """The access ISP."""
        return self._isp

    @property
    def system(self) -> CongestionSystem:
        """The physical congestion system the ISP operates."""
        return self._system

    @property
    def size(self) -> int:
        """Number of CPs."""
        return len(self._providers)

    @property
    def values(self) -> np.ndarray:
        """Vector of CP profitabilities ``v``."""
        return self._values.copy()

    @property
    def demand_table(self) -> DemandTable:
        """Column-stacked demand functions (batched evaluation)."""
        return self._demand_table

    @property
    def throughput_table(self) -> ThroughputTable:
        """Column-stacked throughput laws (batched evaluation)."""
        return self._throughput_table

    def with_price(self, price: float) -> "Market":
        """Same market under a different ISP price (pricing sweeps)."""
        return Market(self._providers, self._isp.with_price(price))

    def with_capacity(self, capacity: float) -> "Market":
        """Same market under a different capacity (investment sweeps)."""
        return Market(self._providers, self._isp.with_capacity(capacity))

    def with_provider(self, index: int, provider: ContentProvider) -> "Market":
        """Copy with provider ``index`` replaced (Theorem 5 experiments)."""
        providers = list(self._providers)
        providers[index] = provider
        return Market(providers, self._isp)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _as_subsidy_vector(self, subsidies) -> np.ndarray:
        if subsidies is None:
            return np.zeros(self.size)
        arr = np.asarray(subsidies, dtype=float)
        if arr.shape != (self.size,):
            raise ModelError(
                f"subsidy profile must have shape ({self.size},), got {arr.shape}"
            )
        return _clip_subsidies(arr)

    def _as_subsidy_matrix(self, profiles) -> np.ndarray:
        arr = np.asarray(profiles, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.size:
            raise ModelError(
                f"subsidy batch must have shape (B, {self.size}), got {arr.shape}"
            )
        return _clip_subsidies(arr)

    def subsidy_vector(self, subsidies) -> np.ndarray:
        """Validate and clip one profile to the canonical ``(N,)`` form.

        ``None`` means the zero profile. Same checks as every scalar solve
        (shape, finite, non-negative up to a -1e-12 slack, clip at zero);
        exposed for the fused kernel paths.
        """
        return self._as_subsidy_vector(subsidies)

    def subsidy_matrix(self, profiles) -> np.ndarray:
        """Validate and clip a profile batch to the canonical ``(B, N)`` form.

        The exact checks every batched solve applies (finite, non-negative
        up to a -1e-12 slack, then clipped at zero); exposed so fused
        kernel paths can reproduce the lockstep validation order.
        """
        return self._as_subsidy_matrix(profiles)

    def kernel_plan(self) -> KernelPlan | None:
        """Precomputed fused-kernel inputs, or ``None`` if not eligible.

        Eligible markets have linear utilization and a family tag for
        every demand and throughput column (see
        ``DemandTable.kernel_columns``). The plan is built once and cached;
        whether it is *used* depends on the active backend at call time.
        """
        if self._kernel_plan is False:
            plan = None
            if type(self._system.utilization_function) is LinearUtilization:
                demand = self._demand_table.kernel_columns()
                rates = self._throughput_table.kernel_columns()
                if demand is not None and rates is not None:
                    plan = KernelPlan(
                        price=self._isp.price,
                        values=np.ascontiguousarray(self._values),
                        demand_tags=demand[0],
                        demand_params=demand[1],
                        rate_tags=rates[0],
                        rate_params=rates[1],
                        mu=self._system.capacity,
                        xtol=self._system.xtol,
                    )
            self._kernel_plan = plan
        return self._kernel_plan

    def _active_kernel_plan(self) -> KernelPlan | None:
        """:meth:`kernel_plan` when a kernel backend is active, else ``None``
        (the NumPy backend never needs the plan, so never builds it)."""
        return self.kernel_plan() if get_backend().kernels is not None else None

    def traffic_classes(self, subsidies=None) -> list[TrafficClass]:
        """Physical traffic classes induced by a subsidy profile."""
        s = self._as_subsidy_vector(subsidies)
        price = self._isp.price
        return [
            cp.traffic_class(price - s[i]) for i, cp in enumerate(self._providers)
        ]

    def utilization(self, subsidies=None) -> float:
        """Fixed-point utilization ``φ(s)`` without building a full state."""
        return self._system.solve_utilization(
            self.traffic_classes(subsidies), plan=self._active_kernel_plan()
        )

    def solve(self, subsidies=None) -> MarketState:
        """Solve the market under subsidy profile ``s`` (zeros by default)."""
        s = self._as_subsidy_vector(subsidies)
        price = self._isp.price
        effective = price - s
        classes = [
            cp.traffic_class(effective[i]) for i, cp in enumerate(self._providers)
        ]
        state: SystemState = self._system.solve(
            classes, plan=self._active_kernel_plan()
        )
        throughputs = state.throughputs
        utilities = (self._values - s) * throughputs
        aggregate = float(np.sum(throughputs))
        return MarketState(
            subsidies=s,
            effective_prices=effective,
            populations=state.populations,
            utilization=state.utilization,
            rates=state.rates,
            throughputs=throughputs,
            utilities=utilities,
            revenue=self._isp.revenue(aggregate),
            welfare=float(np.dot(self._values, throughputs)),
            gap_slope=state.gap_slope,
            price=price,
            capacity=self._isp.capacity,
        )

    def solve_batch(
        self, profiles, *, phi0: np.ndarray | None = None
    ) -> MarketStateBatch:
        """Solve the market under a whole ``(B, N)`` batch of profiles.

        One stacked demand collection, one vectorized congestion solve and
        matrix payoff algebra replace ``B`` scalar solves. ``phi0`` warm
        starts the utilization roots (iteration counts only — converged
        values are start-independent to machine precision).
        """
        s = self._as_subsidy_matrix(profiles)
        price = self._isp.price
        effective = price - s
        populations = self._demand_table.populations(effective)
        system_batch: BatchedSystemState = self._system.solve_population_batch(
            self._throughput_table, populations, phi0=phi0
        )
        throughputs = system_batch.throughputs
        utilities = (self._values[None, :] - s) * throughputs
        return MarketStateBatch(
            subsidies=s,
            effective_prices=effective,
            populations=populations,
            utilizations=system_batch.utilizations,
            rates=system_batch.rates,
            throughputs=throughputs,
            utilities=utilities,
            revenues=price * throughputs.sum(axis=1),
            welfares=throughputs @ self._values,
            gap_slopes=system_batch.gap_slopes,
            price=price,
            capacity=self._isp.capacity,
        )

    def provider_names(self) -> list[str]:
        """Display names for reports (auto-filled when blank)."""
        return [
            cp.name if cp.name else f"cp{i}" for i, cp in enumerate(self._providers)
        ]
