"""Solvers for box-constrained variational inequalities VI(F, [lo, hi]^n).

Theorem 6's proof recasts the Nash equilibrium of the subsidization game as
the solution of ``VI(F, K)`` with ``F = −u`` (negated marginal utilities) and
``K = [0, q]^N``, following Facchinei & Pang. We implement the
*extragradient method* of Korpelevich — convergent under plain
monotonicity, used as the robust fallback and as an independent
cross-check of the best-response solver.

Convergence is measured by the step-size-independent *natural residual*
``‖x − Π_K(x − F(x))‖_∞``, which is zero exactly at solutions. The step
halves (down to ``min_step``) only when an iteration *increases* that
residual — a divergence guard, not a progress heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConvergenceError
from repro.solvers.projection import project_box

__all__ = [
    "VIResult",
    "natural_residual",
    "extragradient_box",
]


@dataclass(frozen=True)
class VIResult:
    """Outcome of a variational-inequality solve.

    Attributes
    ----------
    x:
        Final iterate (a point of the box).
    iterations:
        Number of outer iterations performed.
    residual:
        Final natural residual ``‖x − Π_K(x − F(x))‖_∞``.
    converged:
        Whether the residual tolerance was met.
    """

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def natural_residual(
    fx: np.ndarray,
    x: np.ndarray,
    lo: np.ndarray | float,
    hi: np.ndarray | float,
) -> float:
    """Infinity norm of the natural map ``x − Π_K(x − F(x))``.

    Takes the pre-computed operator value ``fx = F(x)`` so callers never pay
    an extra operator evaluation. Zero exactly at VI solutions.
    """
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(x - project_box(x - fx, lo, hi))))


def extragradient_box(
    operator: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lo: np.ndarray | float,
    hi: np.ndarray | float,
    *,
    step: float = 0.25,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    shrink: float = 0.5,
    min_step: float = 1e-6,
    raise_on_failure: bool = True,
) -> VIResult:
    """Korpelevich extragradient method for VI(F, box).

    Each iteration takes a predictor step ``y = Π_K(x − γF(x))`` followed by
    the corrector ``x ← Π_K(x − γF(y))``; convergent for monotone ``F``
    whenever ``γ < 1/L`` (``L`` the Lipschitz constant), which the
    divergence guard enforces adaptively.
    """
    x = project_box(np.asarray(x0, dtype=float), lo, hi)
    gamma = step
    previous_residual = np.inf
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        fx = np.asarray(operator(x), dtype=float)
        residual = natural_residual(fx, x, lo, hi)
        if residual <= tol:
            return VIResult(x, iteration, residual, True)
        if residual > previous_residual * 1.5 and gamma > min_step:
            gamma = max(gamma * shrink, min_step)
        previous_residual = residual
        y = project_box(x - gamma * fx, lo, hi)
        fy = np.asarray(operator(y), dtype=float)
        x = project_box(x - gamma * fy, lo, hi)
    if raise_on_failure:
        raise ConvergenceError(
            f"extragradient method not converged in {max_iter} iterations "
            f"(residual {residual:.3e})",
            iterations=max_iter,
            residual=residual,
        )
    return VIResult(x, max_iter, residual, False)
