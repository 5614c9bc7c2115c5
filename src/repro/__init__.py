"""repro — a reproduction of *Subsidization Competition: Vitalizing the
Neutral Internet* (Richard T. B. Ma, ACM CoNEXT 2014).

The library models a neutral access ISP serving content providers (CPs) who
may voluntarily subsidize their users' usage-based fees, and implements the
paper's full analytical apparatus: the congestion fixed point (§3), the
subsidization competition game and its Nash equilibria (§4), equilibrium
sensitivity analysis, ISP revenue and system welfare (§5), plus
off-equilibrium simulation and capacity planning extensions (§6).

Quickstart — build the smallest §5-style market, solve its subsidization
equilibrium, and read the certified state (runnable: the test suite
collects this module's doctests):

>>> from repro import (AccessISP, Market, SubsidizationGame,
...                    exponential_cp, solve_equilibrium)
>>> market = Market(
...     [exponential_cp(alpha=2, beta=2, value=1.0),
...      exponential_cp(alpha=5, beta=5, value=0.5)],
...     AccessISP(price=1.0, capacity=1.0),
... )
>>> eq = solve_equilibrium(SubsidizationGame(market, cap=1.0))
>>> eq.subsidies.shape, bool(eq.kkt_residual <= 1e-6)
((2,), True)
>>> bool(eq.state.revenue > 0) and bool(eq.state.welfare > 0)
True
"""

from repro.core import (
    EquilibriumResult,
    SubsidizationGame,
    best_response,
    classify_providers,
    equilibrium_sensitivity,
    is_equilibrium,
    kkt_residual,
    marginal_revenue_decomposition,
    marginal_revenue_one_sided,
    marginal_welfare_criterion,
    optimal_price,
    policy_effect,
    solve_equilibrium,
    solve_equilibrium_best_response,
    solve_equilibrium_vi,
    thresholds,
    welfare,
)
from repro.competition import (
    IterationPolicy,
    OligopolyGame,
    solve_oligopoly_competition,
)
from repro.engine import (
    SolveCache,
    SolveService,
    SolveStore,
    SolveTask,
    solve_grid,
)
from repro.exceptions import (
    BracketError,
    ConvergenceError,
    EquilibriumError,
    ModelError,
    ReproError,
)
from repro.network import (
    CongestionSystem,
    ExponentialDemand,
    ExponentialThroughput,
    LinearDemand,
    LinearUtilization,
    LogitDemand,
    MM1Utilization,
    PowerLawThroughput,
    PowerLawUtilization,
    RationalThroughput,
    ShiftedPowerDemand,
    SystemState,
    TrafficClass,
)
from repro.providers import (
    AccessISP,
    ContentProvider,
    Market,
    MarketState,
    MarketStateBatch,
    exponential_cp,
)

__version__ = "1.0.0"

__all__ = [
    "AccessISP",
    "BracketError",
    "CongestionSystem",
    "ContentProvider",
    "ConvergenceError",
    "EquilibriumError",
    "EquilibriumResult",
    "IterationPolicy",
    "OligopolyGame",
    "ExponentialDemand",
    "ExponentialThroughput",
    "LinearDemand",
    "LinearUtilization",
    "LogitDemand",
    "MM1Utilization",
    "Market",
    "MarketState",
    "MarketStateBatch",
    "ModelError",
    "SolveCache",
    "SolveService",
    "SolveStore",
    "SolveTask",
    "PowerLawThroughput",
    "PowerLawUtilization",
    "RationalThroughput",
    "ReproError",
    "ShiftedPowerDemand",
    "SubsidizationGame",
    "SystemState",
    "TrafficClass",
    "best_response",
    "classify_providers",
    "equilibrium_sensitivity",
    "exponential_cp",
    "is_equilibrium",
    "kkt_residual",
    "marginal_revenue_decomposition",
    "marginal_revenue_one_sided",
    "marginal_welfare_criterion",
    "optimal_price",
    "policy_effect",
    "solve_equilibrium",
    "solve_equilibrium_best_response",
    "solve_equilibrium_vi",
    "solve_grid",
    "solve_oligopoly_competition",
    "thresholds",
    "welfare",
    "__version__",
]
