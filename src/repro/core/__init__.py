"""The paper's primary contribution: the subsidization competition game.

Layer map (paper section → module):

* §4.1 game definition, utilities, marginal utilities —
  :mod:`repro.core.game`
* Lemma 3 / Definition 3 best responses — :mod:`repro.core.best_response`
* Nash solvers (best-response iteration + variational inequality) —
  :mod:`repro.core.equilibrium`
* Theorem 3 threshold/KKT characterization —
  :mod:`repro.core.characterization`
* Theorem 4 uniqueness (P-function condition (10)) —
  :mod:`repro.core.uniqueness`
* Theorems 5–6, Corollary 1 equilibrium dynamics —
  :mod:`repro.core.dynamics`
* §5.1 / Theorem 7 ISP revenue — :mod:`repro.core.revenue`
* §5.2 / Theorem 8 policy effect — :mod:`repro.core.policy`
* Corollary 2 welfare — :mod:`repro.core.welfare`
"""

from repro.core.best_response import (
    best_response,
    best_response_profile,
    best_response_profile_vectorized,
)
from repro.core.characterization import (
    classify_providers,
    is_equilibrium,
    kkt_residual,
    thresholds,
)
from repro.core.dynamics import (
    EquilibriumSensitivity,
    equilibrium_sensitivity,
    profitability_comparative_static,
)
from repro.core.equilibrium import (
    EquilibriumResult,
    solve_equilibrium,
    solve_equilibrium_best_response,
    solve_equilibrium_vi,
)
from repro.core.game import (
    BatchedMarginalDiagnostics,
    BatchedProfileEvaluator,
    SubsidizationGame,
)
from repro.core.investment import (
    InvestmentOutcome,
    investment_incentive,
    optimal_capacity,
    optimal_price_and_capacity,
)
from repro.core.policy import PolicyEffect, policy_effect
from repro.core.regulation import (
    RegulatedOutcome,
    constrained_welfare_optimal_price,
    price_cap_analysis,
)
from repro.core.revenue import (
    marginal_revenue_decomposition,
    marginal_revenue_one_sided,
    optimal_price,
)
from repro.core.uniqueness import (
    is_off_diagonally_monotone,
    p_function_violations,
)
from repro.core.welfare import (
    marginal_welfare_criterion,
    welfare,
)

__all__ = [
    "BatchedMarginalDiagnostics",
    "BatchedProfileEvaluator",
    "EquilibriumResult",
    "EquilibriumSensitivity",
    "InvestmentOutcome",
    "PolicyEffect",
    "RegulatedOutcome",
    "SubsidizationGame",
    "constrained_welfare_optimal_price",
    "investment_incentive",
    "optimal_capacity",
    "optimal_price_and_capacity",
    "price_cap_analysis",
    "best_response",
    "best_response_profile",
    "best_response_profile_vectorized",
    "classify_providers",
    "equilibrium_sensitivity",
    "is_equilibrium",
    "is_off_diagonally_monotone",
    "kkt_residual",
    "marginal_revenue_decomposition",
    "marginal_revenue_one_sided",
    "marginal_welfare_criterion",
    "optimal_price",
    "p_function_violations",
    "policy_effect",
    "profitability_comparative_static",
    "solve_equilibrium",
    "solve_equilibrium_best_response",
    "solve_equilibrium_vi",
    "thresholds",
    "welfare",
]
