"""§5.1 / Theorem 7: ISP revenue and its price derivative.

Theorem 7 decomposes the marginal revenue under equilibrium subsidization:

    dR/dp = Σ_i θ_i + Υ · Σ_i ε^{m_i}_p · θ_i                      (13)
    Υ = 1 + Σ_j ε^{λ_j}_{m_j},
    ε^{λ_j}_{m_j} = m_j·λ'_j(φ)/(dg/dφ)                            (14)
    ε^{m_i}_p = (p/m_i)·(dm_i/dt_i)·(1 − ∂s_i/∂p)

with ``∂s_i/∂p`` from Theorem 6 — and ``∂s_i/∂p = 0`` recovering the
one-sided-pricing case of §3.2. :func:`revenue_slope` adds the share term
of a carrier whose demands all scale with its market share ``w(p)`` (the
oligopoly's best-response search runs on it). The module also provides
the ISP's revenue-optimal price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.backend import get_backend
from repro.backend.dispatch import fused_revenue_slope
from repro.core.dynamics import EquilibriumSensitivity, equilibrium_sensitivity
from repro.core.equilibrium import EquilibriumResult, solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.network.demand import ScaledDemand
from repro.providers.market import Market, MarketState
from repro.solvers.differentiation import _STEP_SCALE
from repro.solvers.scalar_opt import ScalarMaxResult, grid_polish_maximize

__all__ = [
    "MarginalRevenue",
    "marginal_revenue_one_sided",
    "marginal_revenue_decomposition",
    "revenue_slope",
    "share_revenue_derivative",
    "optimal_price",
    "OptimalPrice",
]


@dataclass(frozen=True)
class MarginalRevenue:
    """The Theorem 7 decomposition evaluated at one price.

    Attributes
    ----------
    total:
        ``dR/dp`` from equation (13).
    direct_term:
        ``Σ_i θ_i`` — revenue gained on existing traffic.
    demand_term:
        ``Υ·Σ_i ε^{m_i}_p·θ_i`` — revenue lost to departing demand,
        amplified by the congestion-relief factor ``Υ``.
    upsilon:
        The physical factor ``Υ = 1 + Σ_j ε^{λ_j}_{m_j}``.
    demand_elasticities:
        Per-CP ``ε^{m_i}_p`` including the subsidy feedback ``∂s_i/∂p``.
    """

    total: float
    direct_term: float
    demand_term: float
    upsilon: float
    demand_elasticities: np.ndarray


def _upsilon(state: MarketState, market: Market) -> float:
    phi = state.utilization
    eps_lambda_m = np.array(
        [
            state.populations[j] * cp.throughput.d_rate(phi) / state.gap_slope
            for j, cp in enumerate(market.providers)
        ]
    )
    return 1.0 + float(np.sum(eps_lambda_m))


def _decomposition(
    market: Market,
    state: MarketState,
    ds_dp: np.ndarray,
) -> MarginalRevenue:
    p = market.isp.price
    upsilon = _upsilon(state, market)
    eps_m_p = np.zeros(market.size)
    for i, cp in enumerate(market.providers):
        m = state.populations[i]
        if m == 0.0:
            continue
        eps_m_p[i] = (
            (p / m)
            * cp.demand.d_population(state.effective_prices[i])
            * (1.0 - ds_dp[i])
        )
    direct = float(np.sum(state.throughputs))
    demand = upsilon * float(np.dot(eps_m_p, state.throughputs))
    return MarginalRevenue(
        total=direct + demand,
        direct_term=direct,
        demand_term=demand,
        upsilon=upsilon,
        demand_elasticities=eps_m_p,
    )


def marginal_revenue_one_sided(market: Market) -> MarginalRevenue:
    """Theorem 7 with no subsidization feedback (``∂s_i/∂p = 0``, §3.2)."""
    state = market.solve()
    return _decomposition(market, state, np.zeros(market.size))


def marginal_revenue_decomposition(
    game: SubsidizationGame,
    subsidies,
    sensitivity: EquilibriumSensitivity | None = None,
) -> MarginalRevenue:
    """Theorem 7 at an equilibrium, with ``∂s/∂p`` from Theorem 6."""
    s = np.asarray(subsidies, dtype=float)
    if sensitivity is None:
        sensitivity = equilibrium_sensitivity(game, s)
    state = game.state(s)
    return _decomposition(game.market, state, sensitivity.ds_dp)


def _demand_scaled(market: Market, factor: float) -> Market:
    """``market`` with every CP's demand multiplied by ``factor``."""
    return Market(
        [
            replace(cp, demand=ScaledDemand(cp.demand, factor))
            for cp in market.providers
        ],
        market.isp,
    )


def share_revenue_derivative(
    game: SubsidizationGame,
    subsidies,
    sensitivity: EquilibriumSensitivity | None = None,
) -> float:
    """``∂R/∂ln w`` at an equilibrium, for a common demand weight ``w``.

    Scaling every demand by ``w`` (a carrier's market share) moves the
    populations at fixed prices, ``∂m_j/∂ln w = m_j``, and the interior
    subsidies with them: ``∂s̃/∂ln w = −Ψ·∂ũ/∂ln w`` by the same Theorem 6
    solve as ``∂s/∂p`` (``∂ũ/∂ln w`` a central difference). Equation (4)
    then aggregates as in eq. (13):
    ``∂R/∂ln w = Υ·p·Σ_j λ_j·(m_j − m'_j·∂s_j/∂ln w)``.
    """
    s = np.asarray(subsidies, dtype=float)
    if sensitivity is None:
        sensitivity = equilibrium_sensitivity(game, s)
    market = game.market
    state = game.state(s)
    h = _STEP_SCALE
    up = SubsidizationGame(_demand_scaled(market, math.exp(h)), game.cap)
    down = SubsidizationGame(_demand_scaled(market, math.exp(-h)), game.cap)
    du = (up.marginal_utilities(s) - down.marginal_utilities(s)) / (2.0 * h)
    ds = np.zeros(market.size)
    interior = list(sensitivity.partition.interior)
    if interior:
        ds[interior] = -np.linalg.solve(
            sensitivity.interior_jacobian, du[interior]
        )
    dm = np.array(
        [
            state.populations[j]
            - cp.demand.d_population(state.effective_prices[j]) * ds[j]
            for j, cp in enumerate(market.providers)
        ]
    )
    upsilon = _upsilon(state, market)
    return upsilon * market.isp.price * float(np.dot(state.rates, dm))


def revenue_slope(
    game: SubsidizationGame, subsidies, share_rate: float = 0.0
) -> float:
    """``dR/dp`` at an equilibrium along a move that also scales every
    demand by a share ``w(p)`` with ``d ln w/dp = share_rate``.

    That is Theorem 7's eq. (13) plus the share term
    ``share_rate·∂R/∂ln w`` (:func:`share_revenue_derivative`); for an
    oligopoly carrier's logit share, ``share_rate = −σ(1 − w)``. Under a
    kernel backend an eligible market's slope comes from the kernel
    (:func:`~repro.backend.dispatch.fused_revenue_slope`), the same value
    the compiled equilibrium call reports for this profile; otherwise it
    is computed here from :func:`marginal_revenue_decomposition` and
    :func:`~repro.core.dynamics.equilibrium_sensitivity`.
    """
    s = np.asarray(subsidies, dtype=float)
    backend = get_backend()
    plan = game.market.kernel_plan() if backend.kernels is not None else None
    if plan is not None:
        return fused_revenue_slope(backend, plan, s, game.cap, share_rate)
    sensitivity = equilibrium_sensitivity(game, s)
    slope = marginal_revenue_decomposition(game, s, sensitivity).total
    if share_rate != 0.0:
        slope += share_rate * share_revenue_derivative(game, s, sensitivity)
    return slope


@dataclass(frozen=True)
class OptimalPrice:
    """Revenue-maximizing price and the equilibrium it induces."""

    price: float
    revenue: float
    equilibrium: EquilibriumResult


def optimal_price(
    market: Market,
    *,
    cap: float = 0.0,
    price_range: tuple[float, float] = (0.0, 5.0),
    grid_points: int = 48,
    xtol: float = 1e-8,
) -> OptimalPrice:
    """ISP's revenue-optimal price given CPs' equilibrium response.

    The revenue curve is single-peaked in the paper's scenarios but has no
    global concavity guarantee (equilibrium kinks at partition changes), so
    a coarse grid scan precedes the golden-section polish.
    """

    def revenue_at(p: float) -> float:
        game = SubsidizationGame(market.with_price(p), cap)
        return solve_equilibrium(game).state.revenue

    best: ScalarMaxResult = grid_polish_maximize(
        revenue_at, price_range[0], price_range[1],
        grid_points=grid_points, xtol=xtol,
    )
    game = SubsidizationGame(market.with_price(best.x), cap)
    equilibrium = solve_equilibrium(game)
    return OptimalPrice(price=best.x, revenue=best.value, equilibrium=equilibrium)
