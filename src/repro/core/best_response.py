"""Best responses of the subsidization game (Definition 3).

Player ``i`` maximizes ``U_i(s_i; s_-i) = (v_i − s_i)·θ_i(s)`` over
``s_i ∈ [0, q]``. Two facts shape the solver:

* the maximizer never exceeds ``v_i`` (utility is non-positive there while
  ``s_i = 0`` guarantees ``U_i ≥ 0``), so the search interval is
  ``[0, min(q, v_i)]``;
* under the paper's concavity condition the marginal utility ``u_i`` is
  decreasing in own strategy, so the best response is the root of ``u_i``
  clipped to the interval — found by Brent's method
  (:func:`repro.solvers.rootfind.root_in_bracket`) in a handful of solves.

The root path is the fast default; when ``u_i`` fails the monotonicity
sanity checks (possible for exotic functional families) we fall back to
golden-section/grid maximization of the utility itself.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend
from repro.backend.dispatch import fused_best_response
from repro.core.game import BatchedProfileEvaluator, SubsidizationGame
from repro.exceptions import EquilibriumError
from repro.solvers.batch_rootfind import bracketed_root_batch
from repro.solvers.rootfind import root_in_bracket
from repro.solvers.scalar_opt import grid_polish_maximize

__all__ = [
    "best_response",
    "best_response_profile",
    "best_response_profile_vectorized",
]


def _own_marginal(game: SubsidizationGame, index: int, profile: np.ndarray):
    """Return ``u_i`` as a function of own strategy with others frozen."""

    def u_of_own(si: float) -> float:
        trial = profile.copy()
        trial[index] = si
        return game.marginal_utility(index, trial)

    return u_of_own


def _utility_of_own(game: SubsidizationGame, index: int, profile: np.ndarray):
    def value(si: float) -> float:
        trial = profile.copy()
        trial[index] = si
        return game.utility(index, trial)

    return value


def best_response(
    game: SubsidizationGame,
    index: int,
    profile,
    *,
    xtol: float = 1e-12,
    method: str = "auto",
) -> float:
    """Best response of player ``index`` against ``profile``.

    Parameters
    ----------
    game:
        The subsidization game.
    index:
        Player whose response is computed.
    profile:
        Current full strategy profile (own entry is ignored).
    xtol:
        Root/maximization tolerance.
    method:
        ``"root"`` — solve ``u_i(s_i) = 0`` (requires concavity),
        ``"maximize"`` — grid + golden-section on the utility,
        ``"auto"`` — root path with automatic fallback (default).
    """
    if method not in {"root", "maximize", "auto"}:
        raise ValueError(f"unknown best-response method {method!r}")
    s = np.asarray(profile, dtype=float).copy()
    value = game.market.providers[index].value
    hi = min(game.cap, value)
    if hi <= 0.0:
        return 0.0

    if method in {"root", "auto"}:
        u = _own_marginal(game, index, s)
        u_lo = u(0.0)
        if not np.isfinite(u_lo):
            raise EquilibriumError(
                f"marginal utility of player {index} is not finite at s=0 "
                "(degenerate model parameters?)"
            )
        if u_lo <= 0.0:
            # Marginal utility non-positive already at zero subsidy: corner.
            return 0.0
        u_hi = u(hi)
        if not np.isfinite(u_hi):
            raise EquilibriumError(
                f"marginal utility of player {index} is not finite at s={hi} "
                "(degenerate model parameters?)"
            )
        if u_hi >= 0.0:
            # Still worth subsidizing at the cap (or at full margin).
            return hi
        # ``u`` falls in own strategy; the bracketed solver takes ``−u``.
        root = root_in_bracket(
            lambda si: -u(si), 0.0, hi, -u_lo, -u_hi, xtol=xtol
        )
        if method == "root":
            return root
        # Concavity sanity check: the root must beat both corners.
        utility = _utility_of_own(game, index, s)
        u_root = utility(root)
        if u_root + 1e-12 >= max(utility(0.0), utility(hi)):
            return root

    result = grid_polish_maximize(
        _utility_of_own(game, index, s), 0.0, hi, grid_points=65, xtol=xtol
    )
    return result.x


def best_response_profile(
    game: SubsidizationGame,
    profile,
    *,
    xtol: float = 1e-12,
    method: str = "auto",
) -> np.ndarray:
    """Simultaneous (Jacobi) best-response map ``s ↦ BR(s)``.

    All responses are computed against the *same* incoming profile; Nash
    equilibria are exactly the fixed points of this map.
    """
    s = np.asarray(profile, dtype=float)
    return np.array(
        [
            best_response(game, i, s, xtol=xtol, method=method)
            for i in range(game.size)
        ]
    )


def best_response_profile_vectorized(
    game: SubsidizationGame,
    profile,
    *,
    xtol: float = 1e-12,
    evaluator: BatchedProfileEvaluator | None = None,
) -> np.ndarray:
    """Simultaneous best responses via one batched root solve.

    The vectorized counterpart of :func:`best_response_profile`: all ``N``
    players' responses against the incoming profile are found together. Each
    root-finding iteration evaluates a single ``(N, N)`` trial batch — row
    ``i`` is the incoming profile with player ``i``'s strategy replaced by
    its current trial — through the batched marginal-utility path, and reads
    player ``i``'s marginal off the diagonal. Corner cases (``u_i(0) ≤ 0``
    or ``u_i`` still positive at the cap/margin) resolve from the first two
    evaluations, exactly as in the scalar root path.

    Assumes the root path's concavity condition (marginal utility decreasing
    in own strategy); the scalar :func:`best_response` retains the
    maximization fallback for exotic families.

    Parameters
    ----------
    game:
        The subsidization game.
    profile:
        The incoming full strategy profile.
    xtol:
        Root bracketing tolerance per player.
    evaluator:
        Optional :class:`~repro.core.game.BatchedProfileEvaluator` reused
        across sweeps so congestion roots warm start from the last batch.
    """
    s = np.asarray(profile, dtype=float).copy()
    n = game.size
    if s.shape != (n,):
        raise ValueError(f"profile must have shape ({n},), got {s.shape}")
    if evaluator is None:
        evaluator = BatchedProfileEvaluator(game)
    hi = np.minimum(game.cap, game.market.values)
    responses = np.zeros(n)
    playable = hi > 0.0
    if not np.any(playable):
        return responses

    index = np.arange(n)

    backend = get_backend()
    plan = game.market.kernel_plan() if backend.kernels is not None else None
    if plan is not None:
        # Same validation the lockstep path's first trial batch would run
        # (off-diagonal entries of the incoming profile; diagonal replaced).
        trials0 = np.tile(s, (n, 1))
        trials0[index, index] = 0.0
        game.market.subsidy_matrix(trials0)
        responses_k, u_zero, u_cap, phi_chain = fused_best_response(
            backend, plan, s, game.cap, evaluator.warm_start(n), xtol
        )
        if not np.all(np.isfinite(u_zero[playable])) or not np.all(
            np.isfinite(u_cap[playable])
        ):
            bad = int(
                np.flatnonzero(
                    playable & ~(np.isfinite(u_zero) & np.isfinite(u_cap))
                )[0]
            )
            raise EquilibriumError(
                f"marginal utility of player {bad} is not finite on "
                f"[0, {hi[bad]}] (degenerate model parameters?)"
            )
        evaluator.set_warm_start(phi_chain)
        return responses_k

    def own_marginals(own: np.ndarray) -> np.ndarray:
        trials = np.tile(s, (n, 1))
        trials[index, index] = np.clip(own, 0.0, None)
        return np.diagonal(evaluator.marginal_utilities(trials)).copy()

    u_zero = own_marginals(np.zeros(n))
    u_cap = own_marginals(np.where(playable, hi, 0.0))
    if not np.all(np.isfinite(u_zero[playable])) or not np.all(
        np.isfinite(u_cap[playable])
    ):
        bad = int(
            np.flatnonzero(
                playable & ~(np.isfinite(u_zero) & np.isfinite(u_cap))
            )[0]
        )
        raise EquilibriumError(
            f"marginal utility of player {bad} is not finite on [0, {hi[bad]}] "
            "(degenerate model parameters?)"
        )
    # Corners: non-positive marginal at zero pins to 0; still-positive
    # marginal at the cap (or full margin) pins to the upper end.
    at_cap = playable & (u_cap >= 0.0)
    responses[at_cap] = hi[at_cap]
    interior = playable & (u_zero > 0.0) & ~at_cap
    if np.any(interior):
        roots = bracketed_root_batch(
            own_marginals,
            np.zeros(n),
            hi,
            u_zero,
            u_cap,
            active=interior,
            xtol=xtol,
            bisect_iters=6,
            max_iter=100,
        )
        responses[interior] = roots[interior]
    return responses
