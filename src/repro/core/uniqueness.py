"""Theorem 4: uniqueness of the Nash equilibrium.

The sufficient condition (10) — for every distinct pair of profiles there is
a player whose strategy/marginal-utility differences have opposite signs —
makes ``−u`` a *P-function* (Moré & Rheinboldt). The condition is over an
uncountable set, so we provide:

* :func:`p_function_violations` — randomized/deterministic sampling search
  for counterexamples (absence of violations over many samples is the
  practical certificate the paper's numerical sections rely on);
* :func:`jacobian_p_matrix_margin` — at a point, the P-matrix test on the
  Jacobian ``∇(−u)`` (every principal minor positive), the differential
  version of the condition;
* :func:`is_off_diagonally_monotone` — Corollary 1's Leontief condition
  ``∂u_i/∂s_j ≥ 0`` for ``i ≠ j``, which upgrades ``∇(−u)`` to an M-matrix
  and yields the deregulation monotonicity results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.core.game import SubsidizationGame
from repro.solvers.differentiation import jacobian

__all__ = [
    "PFunctionViolation",
    "p_function_violations",
    "jacobian_p_matrix_margin",
    "marginal_utility_jacobian",
    "is_off_diagonally_monotone",
]


@dataclass(frozen=True)
class PFunctionViolation:
    """A sampled pair of profiles violating condition (10)."""

    s_a: np.ndarray
    s_b: np.ndarray
    products: np.ndarray


def _sample_profiles(game: SubsidizationGame, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, game.cap, size=(count, game.size))


def p_function_violations(
    game: SubsidizationGame,
    *,
    samples: int = 30,
    seed: int = 0,
    tol: float = 1e-12,
) -> list[PFunctionViolation]:
    """Search sampled profile pairs for violations of condition (10).

    For each pair ``(s, s')`` we need *some* player ``i`` with
    ``(s'_i − s_i)·(u_i(s') − u_i(s)) < 0``. A pair is a violation when the
    product is ≥ ``−tol`` for every player whose strategies differ.

    Returns the (possibly empty) list of violations. An empty list over many
    samples is evidence — not proof — of uniqueness; combine with
    :func:`jacobian_p_matrix_margin` at candidate equilibria.
    """
    if game.cap == 0.0:
        return []
    profiles = _sample_profiles(game, samples, seed)
    marginals = [game.marginal_utilities(s) for s in profiles]
    violations: list[PFunctionViolation] = []
    for a, b in combinations(range(len(profiles)), 2):
        ds = profiles[b] - profiles[a]
        if np.all(np.abs(ds) <= tol):
            continue
        du = marginals[b] - marginals[a]
        products = ds * du
        # Only players with actually-different strategies matter.
        relevant = np.abs(ds) > tol
        if np.all(products[relevant] >= -tol):
            violations.append(
                PFunctionViolation(profiles[a].copy(), profiles[b].copy(), products)
            )
    return violations


def marginal_utility_jacobian(
    game: SubsidizationGame,
    subsidies,
    *,
    rel_step: float | None = None,
) -> np.ndarray:
    """Finite-difference Jacobian ``∇_s u`` of the marginal-utility map.

    Row ``i``, column ``j`` is ``∂u_i/∂s_j``. Central differences over the
    *analytic* ``u`` (one congestion solve per probe), accurate to ~1e-8 on
    the exponential family; probes stay inside ``[0, q]`` via one-sided
    differences at the boundary.
    """
    s = np.asarray(subsidies, dtype=float)
    return jacobian(
        game.marginal_utilities, s, rel_step=rel_step, lo=0.0, hi=game.cap
    )


def jacobian_p_matrix_margin(
    game: SubsidizationGame,
    subsidies,
    *,
    rel_step: float | None = None,
) -> float:
    """Smallest principal minor of ``∇(−u)`` at a profile.

    A matrix is a P-matrix iff all ``2^n − 1`` principal minors are
    positive; a positive return value certifies the differential version of
    condition (10) locally. Exponential in ``n`` — fine for the paper's
    8–9 CP instances.
    """
    neg_jac = -marginal_utility_jacobian(game, subsidies, rel_step=rel_step)
    n = neg_jac.shape[0]
    indices = list(range(n))
    smallest = np.inf
    for size in range(1, n + 1):
        for subset in combinations(indices, size):
            sub = neg_jac[np.ix_(subset, subset)]
            smallest = min(smallest, float(np.linalg.det(sub)))
    return smallest


def is_off_diagonally_monotone(
    game: SubsidizationGame,
    subsidies,
    *,
    tol: float = 1e-9,
    rel_step: float | None = None,
) -> bool:
    """Corollary 1's stability condition: ``∂u_i/∂s_j ≥ 0`` for ``i ≠ j``.

    Intuitively: a rival's extra subsidy hurts my utility but *raises* my
    marginal benefit of subsidizing (strategic complementarity), the
    Leontief-type condition that makes ``∇(−u)`` an M-matrix and the
    deregulation comparative statics monotone.
    """
    jac = marginal_utility_jacobian(game, subsidies, rel_step=rel_step)
    off_diagonal = jac[~np.eye(jac.shape[0], dtype=bool)]
    return bool(np.all(off_diagonal >= -tol))
