"""Access-ISP competition (§6 extension).

The paper studies a single access ISP and conjectures in §6 that
"competition between ISPs will also incentivize them to adopt subsidization
schemes, through which users can obtain subsidized services". This package
models that conjecture as an *N-carrier oligopoly*
(:mod:`repro.competition.oligopoly`): ``N`` access ISPs serve a common
user base that splits between them by a logit rule on prices, and the CPs
play independent subsidization games on each carrier because market shares
depend only on prices. ``N = 1`` is the §5 monopoly and ``N = 2`` the
duopoly; prices iterate by Jacobi or Gauss-Seidel damped best response.
"""

from repro.competition.oligopoly import (
    COMPETITION_DEFAULTS,
    CarrierStats,
    CompetitionSettings,
    IterationPolicy,
    OligopolyCompetitionResult,
    OligopolyGame,
    OligopolyState,
    competition_settings,
    oligopoly_shares,
    solve_oligopoly_competition,
)

__all__ = [
    "COMPETITION_DEFAULTS",
    "CarrierStats",
    "CompetitionSettings",
    "IterationPolicy",
    "OligopolyCompetitionResult",
    "OligopolyGame",
    "OligopolyState",
    "competition_settings",
    "oligopoly_shares",
    "solve_oligopoly_competition",
]
