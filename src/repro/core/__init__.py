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

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.core.best_response": (
        "best_response",
        "best_response_profile",
        "best_response_profile_vectorized",
    ),
    "repro.core.characterization": (
        "classify_providers",
        "is_equilibrium",
        "kkt_residual",
        "thresholds",
    ),
    "repro.core.dynamics": (
        "EquilibriumSensitivity",
        "equilibrium_sensitivity",
        "profitability_comparative_static",
    ),
    "repro.core.equilibrium": (
        "EquilibriumResult",
        "solve_equilibrium",
        "solve_equilibrium_best_response",
        "solve_equilibrium_vi",
    ),
    "repro.core.game": (
        "BatchedMarginalDiagnostics",
        "BatchedProfileEvaluator",
        "SubsidizationGame",
    ),
    "repro.core.investment": (
        "InvestmentOutcome",
        "investment_incentive",
        "optimal_capacity",
        "optimal_price_and_capacity",
    ),
    "repro.core.policy": ("PolicyEffect", "policy_effect"),
    "repro.core.regulation": (
        "RegulatedOutcome",
        "constrained_welfare_optimal_price",
        "price_cap_analysis",
    ),
    "repro.core.revenue": (
        "marginal_revenue_decomposition",
        "marginal_revenue_one_sided",
        "optimal_price",
    ),
    "repro.core.uniqueness": (
        "is_off_diagonally_monotone",
        "p_function_violations",
    ),
    "repro.core.welfare": ("marginal_welfare_criterion", "welfare"),
})
