"""Corollary 2: system welfare and its response to deregulation.

The paper measures welfare as the CPs' gross profit ``W = Σ_i v_i·θ_i``
(it internalizes the subsidy transfer and proxies user value). Corollary 2:
when ``dφ/dq > 0``, the marginal welfare ``dW/dq`` is positive iff

    Σ_i (w_i/Σ_k w_k)·v_i  >  Σ_i (−ε^{λ_i}_{m_i})·v_i,
    w_i = λ_i·dm_i/dq,   ε^{λ_i}_{m_i} = m_i·λ'_i(φ)/(dg/dφ)    (14)

i.e. the population-driven welfare gain (left) must outweigh the
congestion-driven loss (right).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import PolicyEffect
from repro.exceptions import ModelError
from repro.providers.market import Market

__all__ = [
    "welfare",
    "WelfareCriterion",
    "marginal_welfare_criterion",
]


def welfare(throughputs, values) -> float:
    """Gross-profit welfare ``W = Σ_i v_i·θ_i`` (the paper's metric)."""
    theta = np.asarray(throughputs, dtype=float)
    v = np.asarray(values, dtype=float)
    if theta.shape != v.shape:
        raise ModelError(
            f"throughputs {theta.shape} and values {v.shape} must align"
        )
    return float(np.dot(v, theta))


@dataclass(frozen=True)
class WelfareCriterion:
    """The two sides of Corollary 2's inequality plus the direct derivative.

    Attributes
    ----------
    gain_term:
        ``Σ_i (w_i/Σ w)·v_i`` — normalized welfare gain from population
        shifts.
    loss_term:
        ``Σ_i (−ε^{λ_i}_{m_i})·v_i`` — normalized congestion loss.
    dwelfare_dq:
        The direct marginal welfare ``Σ v_i·dθ_i/dq``.
    applicable:
        Corollary 2 assumes ``dφ/dq > 0``; ``False`` when it is not, in
        which case the inequality carries no sign information.
    """

    gain_term: float
    loss_term: float
    dwelfare_dq: float
    applicable: bool

    def predicts_increase(self) -> bool:
        """Corollary 2's verdict: welfare rises iff gain exceeds loss."""
        return self.gain_term > self.loss_term


def marginal_welfare_criterion(
    market: Market,
    effect: PolicyEffect,
) -> WelfareCriterion:
    """Evaluate Corollary 2 at a solved :class:`PolicyEffect`."""
    state = effect.state
    phi = state.utilization
    w = state.rates * effect.dm_dq
    w_total = float(np.sum(w))
    values = market.values
    eps_lambda_m = np.array(
        [
            state.populations[i] * cp.throughput.d_rate(phi) / state.gap_slope
            for i, cp in enumerate(market.providers)
        ]
    )
    loss = float(np.dot(-eps_lambda_m, values))
    gain = float(np.dot(w / w_total, values)) if w_total != 0.0 else 0.0
    return WelfareCriterion(
        gain_term=gain,
        loss_term=loss,
        dwelfare_dq=effect.dwelfare_dq,
        applicable=effect.dphi_dq > 0.0,
    )
