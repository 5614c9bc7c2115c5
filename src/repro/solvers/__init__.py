"""Numerical substrate shared by every layer of the library.

The paper's model stacks three nested numerical problems:

1. a *congestion fixed point* for the system utilization (Lemma 1) — a
   monotone scalar root-finding problem (:mod:`repro.solvers.rootfind`),
2. a *Nash equilibrium* of the subsidization game (Theorem 3/4) — a box-
   constrained variational inequality (:mod:`repro.solvers.vi`) also solvable
   by best-response iteration built on bounded scalar maximization
   (:mod:`repro.solvers.scalar_opt`),
3. *sensitivity analysis* of that equilibrium (Theorem 6) — which needs
   Jacobians of marginal-utility maps (:mod:`repro.solvers.differentiation`).

Everything here depends on numpy alone and is deterministic.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.solvers.batch_rootfind": (
        "bracketed_root_batch",
        "expand_bracket_batch",
        "newton_polish_batch",
    ),
    "repro.solvers.differentiation": ("derivative", "jacobian"),
    "repro.solvers.projection": ("clip_scalar", "project_box"),
    "repro.solvers.rootfind": (
        "BracketResult",
        "bracket_increasing",
        "root_in_bracket",
        "solve_increasing",
    ),
    "repro.solvers.scalar_opt": (
        "CertifiedMax",
        "ScalarMaxResult",
        "bisect_interval",
        "certified_maximize",
        "golden_section_maximize",
        "grid_polish_maximize",
    ),
    "repro.solvers.vi": ("VIResult", "extragradient_box"),
})
