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
from repro.solvers.differentiation import (
    derivative,
    gradient,
    jacobian,
    second_derivative,
)
from repro.solvers.fixed_point import (
    FixedPointResult,
    anderson_fixed_point,
    damped_fixed_point,
)
from repro.solvers.projection import clip_scalar, project_box
from repro.solvers.rootfind import (
    BracketResult,
    bisect_increasing,
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
from repro.solvers.vi import VIResult, extragradient_box, projection_method_box

__all__ = [
    "BracketResult",
    "CertifiedMax",
    "FixedPointResult",
    "ScalarMaxResult",
    "VIResult",
    "anderson_fixed_point",
    "bisect_increasing",
    "bisect_interval",
    "bracket_increasing",
    "bracketed_root_batch",
    "certified_maximize",
    "clip_scalar",
    "damped_fixed_point",
    "derivative",
    "expand_bracket_batch",
    "extragradient_box",
    "golden_section_maximize",
    "gradient",
    "grid_polish_maximize",
    "jacobian",
    "newton_polish_batch",
    "project_box",
    "projection_method_box",
    "second_derivative",
    "solve_increasing",
]
