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

Everything here is deliberately dependency-light (numpy + scipy only) and
deterministic.
"""

from repro.solvers.batch_rootfind import (
    bracketed_root_batch,
    expand_bracket_batch,
    newton_polish_batch,
)
from repro.solvers.differentiation import derivative, jacobian
from repro.solvers.projection import clip_scalar, project_box
from repro.solvers.rootfind import (
    BracketResult,
    bracket_increasing,
    solve_increasing,
)
from repro.solvers.scalar_opt import (
    CertifiedMax,
    ScalarMaxResult,
    bisect_interval,
    certified_maximize,
    golden_section_maximize,
    grid_polish_maximize,
)
from repro.solvers.vi import VIResult, extragradient_box

__all__ = [
    "BracketResult",
    "CertifiedMax",
    "ScalarMaxResult",
    "VIResult",
    "bisect_interval",
    "bracket_increasing",
    "bracketed_root_batch",
    "certified_maximize",
    "clip_scalar",
    "derivative",
    "expand_bracket_batch",
    "extragradient_box",
    "golden_section_maximize",
    "grid_polish_maximize",
    "jacobian",
    "newton_polish_batch",
    "project_box",
    "solve_increasing",
]
