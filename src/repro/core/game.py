"""The subsidization competition game (§4.1).

Given a :class:`~repro.providers.market.Market` and a regulatory cap ``q``,
each CP ``i`` chooses a per-unit subsidy ``s_i ∈ [0, q]`` for its users'
usage fees. The effective user price becomes ``t_i = p − s_i``, populations
respond, the congestion fixed point moves, and utilities are

    U_i(s) = (v_i − s_i) · θ_i(s),    θ_i(s) = m_i(p − s_i) · λ_i(φ(s)).

This module provides utilities and *analytic* marginal utilities

    u_i(s) = ∂U_i/∂s_i
           = (v_i − s_i)·∂θ_i/∂s_i − θ_i,
    ∂θ_i/∂s_i = (−m'_i)·λ_i + m_i·λ'_i(φ)·∂φ/∂s_i,
    ∂φ/∂s_i   = (dg/dφ)⁻¹·λ_i·(−m'_i)          (Theorem 1, eq. (4))

so the Nash layers above never need finite differences of utilities (the
test suite still cross-checks against them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import get_backend
from repro.backend.dispatch import fused_marginals
from repro.exceptions import ModelError
from repro.providers.market import Market, MarketState, MarketStateBatch

__all__ = [
    "SubsidizationGame",
    "MarginalDiagnostics",
    "BatchedMarginalDiagnostics",
    "BatchedProfileEvaluator",
]


@dataclass(frozen=True)
class MarginalDiagnostics:
    """Intermediate quantities behind a marginal-utility evaluation.

    Useful for tests and for the elasticity-form characterization of
    Theorem 3; all vectors are per-CP.

    Attributes
    ----------
    state:
        The solved market state the derivatives were taken at.
    dm_ds:
        ``∂m_i/∂s_i = −m'_i(t_i) ≥ 0``.
    dphi_ds:
        ``∂φ/∂s_i = λ_i·(−m'_i)/(dg/dφ) ≥ 0`` (Lemma 3's direction).
    dtheta_own_ds:
        ``∂θ_i/∂s_i`` (positive under Assumption 1/2).
    marginal_utilities:
        ``u_i(s)``.
    """

    state: MarketState
    dm_ds: np.ndarray
    dphi_ds: np.ndarray
    dtheta_own_ds: np.ndarray
    marginal_utilities: np.ndarray


@dataclass(frozen=True)
class BatchedMarginalDiagnostics:
    """Batched sibling of :class:`MarginalDiagnostics`.

    Row ``b`` holds the derivatives taken at profile ``b`` of the batch; all
    arrays are ``(B, N)`` except the embedded batched state.
    """

    states: MarketStateBatch
    dm_ds: np.ndarray
    dphi_ds: np.ndarray
    dtheta_own_ds: np.ndarray
    marginal_utilities: np.ndarray


class SubsidizationGame:
    """The CPs' subsidization competition under policy cap ``q``.

    Parameters
    ----------
    market:
        The market (ISP price/capacity + CPs) the game is played on.
    cap:
        The regulatory policy ``q ≥ 0``: maximum allowed per-unit subsidy.
        ``q = 0`` is the regulated baseline (no subsidization, §3.2).
    """

    def __init__(self, market: Market, cap: float) -> None:
        if cap < 0.0 or not np.isfinite(cap):
            raise ModelError(f"policy cap must be finite and non-negative, got {cap}")
        self._market = market
        self._cap = float(cap)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def market(self) -> Market:
        """The underlying market."""
        return self._market

    @property
    def cap(self) -> float:
        """The policy cap ``q``."""
        return self._cap

    @property
    def size(self) -> int:
        """Number of players (CPs)."""
        return self._market.size

    @property
    def price(self) -> float:
        """The ISP's uniform usage price ``p``."""
        return self._market.isp.price

    def with_cap(self, cap: float) -> "SubsidizationGame":
        """Same market under a different policy cap (q-sweeps)."""
        return SubsidizationGame(self._market, cap)

    def with_price(self, price: float) -> "SubsidizationGame":
        """Same game under a different ISP price (p-sweeps, Theorem 6)."""
        return SubsidizationGame(self._market.with_price(price), self._cap)

    def with_value(self, index: int, value: float) -> "SubsidizationGame":
        """Same game with CP ``index``'s profitability replaced (Theorem 5)."""
        provider = self._market.providers[index].with_value(value)
        return SubsidizationGame(self._market.with_provider(index, provider), self._cap)

    def feasible(self, subsidies: np.ndarray, *, tol: float = 1e-9) -> bool:
        """Whether a profile lies in the strategy space ``[0, q]^N``."""
        s = np.asarray(subsidies, dtype=float)
        return bool(
            s.shape == (self.size,)
            and np.all(np.isfinite(s))
            and np.all(s >= -tol)
            and np.all(s <= self._cap + tol)
        )

    # ------------------------------------------------------------------
    # payoffs
    # ------------------------------------------------------------------
    def state(self, subsidies=None) -> MarketState:
        """Solved market state under a profile (zeros by default)."""
        return self._market.solve(subsidies)

    def utilities(self, subsidies=None) -> np.ndarray:
        """Utility vector ``U(s)``."""
        return self.state(subsidies).utilities

    def utility(self, index: int, subsidies) -> float:
        """Utility of player ``index`` under a full profile."""
        return float(self.utilities(subsidies)[index])

    # ------------------------------------------------------------------
    # marginal utilities (analytic)
    # ------------------------------------------------------------------
    def marginal_diagnostics(self, subsidies=None) -> MarginalDiagnostics:
        """Solve once and return ``u(s)`` with all intermediate derivatives."""
        state = self.state(subsidies)
        providers = self._market.providers
        phi = state.utilization
        dm_ds = np.array(
            [
                -cp.demand.d_population(state.effective_prices[i])
                for i, cp in enumerate(providers)
            ]
        )
        d_rates = np.array([cp.throughput.d_rate(phi) for cp in providers])
        dphi_ds = state.rates * dm_ds / state.gap_slope
        dtheta_own = dm_ds * state.rates + state.populations * d_rates * dphi_ds
        margins = self._market.values - state.subsidies
        u = margins * dtheta_own - state.throughputs
        return MarginalDiagnostics(
            state=state,
            dm_ds=dm_ds,
            dphi_ds=dphi_ds,
            dtheta_own_ds=dtheta_own,
            marginal_utilities=u,
        )

    def marginal_utilities(self, subsidies=None) -> np.ndarray:
        """Analytic marginal-utility vector ``u(s) = (∂U_i/∂s_i)_i``."""
        backend = get_backend()
        plan = (
            self._market.kernel_plan() if backend.kernels is not None else None
        )
        if plan is not None:
            s = self._market.subsidy_vector(subsidies)
            u, _ = fused_marginals(backend, plan, s[None, :], None)
            return u[0]
        return self.marginal_diagnostics(subsidies).marginal_utilities

    def marginal_utility(self, index: int, subsidies) -> float:
        """Analytic ``u_i(s)`` for one player."""
        return float(self.marginal_utilities(subsidies)[index])

    def negated_marginal_utilities(self, subsidies) -> np.ndarray:
        """The VI operator ``F(s) = −u(s)`` of Theorem 6's proof."""
        return -self.marginal_utilities(subsidies)

    # ------------------------------------------------------------------
    # batched evaluation
    # ------------------------------------------------------------------
    def marginal_diagnostics_batch(
        self, profiles, *, phi0: np.ndarray | None = None
    ) -> BatchedMarginalDiagnostics:
        """Batched ``u(s)`` with intermediates for ``B`` profiles at once.

        The same analytic chain as :meth:`marginal_diagnostics`, evaluated
        as ``(B, N)`` matrix algebra on top of one vectorized congestion
        solve. Row ``b`` agrees with the scalar path at profile ``b`` to
        well below 1e-12.
        """
        states = self._market.solve_batch(profiles, phi0=phi0)
        dm_ds = -self._market.demand_table.d_populations(states.effective_prices)
        d_rates = self._market.throughput_table.d_rates(states.utilizations)
        dphi_ds = states.rates * dm_ds / states.gap_slopes[:, None]
        dtheta_own = dm_ds * states.rates + states.populations * d_rates * dphi_ds
        margins = self._market.values[None, :] - states.subsidies
        u = margins * dtheta_own - states.throughputs
        return BatchedMarginalDiagnostics(
            states=states,
            dm_ds=dm_ds,
            dphi_ds=dphi_ds,
            dtheta_own_ds=dtheta_own,
            marginal_utilities=u,
        )

    def marginal_utilities_batch(
        self, profiles, *, phi0: np.ndarray | None = None
    ) -> np.ndarray:
        """Analytic marginal utilities ``u_i(s_b)`` as a ``(B, N)`` matrix.

        When the active backend carries compiled kernels and the market is
        kernel-eligible, the whole chain (population, congestion solve,
        derivative algebra) runs in one fused per-row kernel. Under the
        same backend it is bitwise identical to the lockstep path on the
        exponential family and within a few ulps on the other families.
        """
        backend = get_backend()
        plan = (
            self._market.kernel_plan() if backend.kernels is not None else None
        )
        if plan is not None:
            s = self._market.subsidy_matrix(profiles)
            u, _ = fused_marginals(backend, plan, s, phi0)
            return u
        return self.marginal_diagnostics_batch(
            profiles, phi0=phi0
        ).marginal_utilities


class BatchedProfileEvaluator:
    """Repeated batched evaluation with warm-started congestion roots.

    The vectorized best-response sweep evaluates many nearby profile batches
    in a row (one per root-finding iteration); this helper carries the last
    batch's utilizations forward as the next solve's Newton warm start.
    Warm starts affect iteration counts only — converged roots are
    start-independent to machine precision — so results are identical to
    cold evaluation.
    """

    def __init__(self, game: "SubsidizationGame") -> None:
        self._game = game
        self._phi: np.ndarray | None = None

    def reset(self) -> None:
        """Drop the warm start (e.g. when the batch shape changes)."""
        self._phi = None

    def diagnostics(self, profiles) -> BatchedMarginalDiagnostics:
        """Batched marginal diagnostics, warm-starting from the last call."""
        profiles = np.asarray(profiles, dtype=float)
        phi0 = self._phi
        if phi0 is not None and phi0.shape[0] != profiles.shape[0]:
            phi0 = None
        diagnostics = self._game.marginal_diagnostics_batch(profiles, phi0=phi0)
        self._phi = diagnostics.states.utilizations
        return diagnostics

    def marginal_utilities(self, profiles) -> np.ndarray:
        """Batched ``u`` matrix, warm-starting from the last call."""
        backend = get_backend()
        plan = (
            self._game.market.kernel_plan()
            if backend.kernels is not None
            else None
        )
        if plan is None:
            return self.diagnostics(profiles).marginal_utilities
        s = self._game.market.subsidy_matrix(profiles)
        phi0 = self.warm_start(s.shape[0])
        u, phi = fused_marginals(backend, plan, s, phi0)
        self._phi = phi
        return u

    def warm_start(self, batch_size: int) -> np.ndarray | None:
        """The carried utilization chain if it matches ``batch_size``."""
        phi0 = self._phi
        if phi0 is not None and phi0.shape[0] != batch_size:
            return None
        return phi0

    def set_warm_start(self, phi: np.ndarray) -> None:
        """Replace the carried utilization chain (fused paths use this)."""
        self._phi = phi
