"""Nash equilibrium solvers for the subsidization game.

Primary solver: damped best-response iteration. The default sweep is the
*vectorized Jacobi* path — every player's best response against the current
profile is found in one batched root solve (one ``(N, N)`` trial batch per
root iteration, congestion roots warm-started across iterations) and the
profile moves by a damped simultaneous step. The scalar *Gauss–Seidel*
sweep (players updated in order against the freshest profile, one bracketed
root solve each) is retained both as an explicit option and as the
automatic fallback when the Jacobi iteration fails to contract; under the
paper's uniqueness condition (Theorem 4) both iterations converge to the
unique equilibrium. Secondary solver: extragradient on the equivalent
variational inequality ``VI(−u, [0, q]^N)`` (the reformulation used in
Theorem 6's proof). The public entry point :func:`solve_equilibrium` runs
the primary path and certifies the result with the Theorem 3 KKT residual,
falling back to the VI solver when certification fails.

Under a kernel backend the undamped Jacobi + Newton solve of a
kernel-eligible market, with its solved state and KKT residual, is one
compiled call (:func:`repro.backend.dispatch.fused_equilibrium`); the
Python :func:`_vector_solve` below stays the ``numpy`` backend's solver
and the reference the kernel transcribes. Python keeps the fallback
chain: Gauss–Seidel, the damped retry and the VI solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.backend import get_backend, profiling
from repro.backend.dispatch import (
    EQUILIBRIUM_BUDGET,
    LINESEARCH_SCALES,
    NEWTON_ACTIVE_TOL,
    NEWTON_MAX_ITER,
    NEWTON_TRIGGER,
    fused_equilibrium,
)
from repro.core.best_response import (
    best_response,
    best_response_profile_vectorized,
)
from repro.core.game import BatchedProfileEvaluator, SubsidizationGame
from repro.exceptions import (
    ConvergenceError,
    EquilibriumError,
    ModelError,
    ReproError,
)
from repro.providers.market import MarketState
from repro.solvers.projection import project_box
from repro.solvers.vi import extragradient_box

__all__ = [
    "EquilibriumResult",
    "FusedAttempt",
    "certified_fused_equilibrium",
    "natural_map_residuals",
    "solve_equilibrium",
    "solve_equilibrium_best_response",
    "solve_equilibrium_vi",
]

#: Default KKT-residual tolerance for certifying an equilibrium.
DEFAULT_CERTIFY_TOL = 1e-7

#: Default convergence tolerance of :func:`solve_equilibrium`.
_SOLVE_TOL = 1e-10


@dataclass(frozen=True)
class EquilibriumResult:
    """A certified Nash equilibrium.

    Attributes
    ----------
    subsidies:
        The equilibrium profile ``s*``.
    state:
        Solved market state at ``s*``.
    kkt_residual:
        Infinity-norm of the natural-map residual
        ``s − Π_{[0,q]}(s + u(s))`` (zero exactly at equilibria).
    iterations:
        Iterations used by the successful solver.
    method:
        ``"best_response"`` or ``"vi"``.
    """

    subsidies: np.ndarray
    state: MarketState
    kkt_residual: float
    iterations: int
    method: str


def natural_map_residuals(profiles: np.ndarray, marginals: np.ndarray, cap) -> np.ndarray:
    """Residual norms ``‖s − Π_{[0,q]}(s + u)‖_∞`` per profile row.

    The single definition of the Theorem 3 certification residual; every
    scalar, batched and grid-level certification path funnels through it.
    ``cap`` may be a scalar or broadcast per row (the grid audit certifies
    several policy levels at once).
    """
    if profiles.size == 0:
        return np.zeros(profiles.shape[0])
    projected = project_box(profiles + marginals, 0.0, cap)
    return np.abs(profiles - projected).max(axis=-1)


def _kkt_residual(game: SubsidizationGame, subsidies: np.ndarray) -> float:
    u = game.marginal_utilities(subsidies)
    return float(
        natural_map_residuals(subsidies[None, :], u[None, :], game.cap)[0]
    )


def _zero_cap_result(game: SubsidizationGame) -> EquilibriumResult:
    """The degenerate ``q = 0`` equilibrium (the regulated baseline).

    With a zero cap the strategy space collapses to the origin, so the
    equilibrium needs no iteration — just a solved state and its residual.
    The returned profile is a fresh array owned by the caller.
    """
    s = np.zeros(game.size)
    return EquilibriumResult(
        subsidies=s.copy(),
        state=game.state(s),
        kkt_residual=_kkt_residual(game, s),
        iterations=0,
        method="best_response",
    )


#: Line-search scales evaluated in a single batched residual check, as
#: the ``(scales, 1)`` column each Newton step is multiplied by.
_LINESEARCH_SCALES = np.array(LINESEARCH_SCALES)[:, None]
_LINESEARCH_SCALES.setflags(write=False)

#: Jacobi sweep budget before ``sweep="auto"`` falls back to Gauss–Seidel.
_JACOBI_BUDGET = 120

#: Default sweep budget of the best-response solver.
_MAX_SWEEPS = 500


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """A read-only ``np.eye(n)``, built once per game size."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _batched_residuals(
    evaluator: BatchedProfileEvaluator, cap: float, profiles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Natural-map residual norms (and ``u``) for ``(B, N)`` profiles."""
    u = evaluator.marginal_utilities(profiles)
    return natural_map_residuals(profiles, u, cap), u


def _newton_polish(
    game: SubsidizationGame,
    evaluator: BatchedProfileEvaluator,
    s: np.ndarray,
    *,
    tol: float,
    max_iter: int = NEWTON_MAX_ITER,
    active_tol: float = NEWTON_ACTIVE_TOL,
) -> tuple[np.ndarray, int] | None:
    """Semismooth Newton on the natural map with batched linear algebra.

    The whole Jacobian is one ``(N, N)`` batched evaluation (row ``j``
    perturbs player ``j``) and the backtracking line search checks every
    candidate scale in a second. Returns ``(profile, evaluations)`` once
    the residual is at or below ``tol``, or ``None`` if Newton stalls
    (caller resumes sweeping).
    """
    n = game.size
    q = game.cap
    identity = _identity(n)
    residuals, u = _batched_residuals(evaluator, q, s[None, :])
    residual = float(residuals[0])
    u = u[0]
    for iteration in range(1, max_iter + 1):
        if residual <= tol:
            return s, iteration - 1
        shifted = s + u
        lower_active = shifted <= active_tol
        upper_active = shifted >= q - active_tol
        inactive = ~(lower_active | upper_active)

        step = np.zeros(n)
        step[lower_active] = -s[lower_active]
        step[upper_active] = q - s[upper_active]
        # Forward-difference Jacobian from one batched evaluation; probes
        # flip direction where a forward step would leave the box.
        h = 1e-7 * (1.0 + np.abs(s))
        h = np.where(s + h <= q, h, -h)
        perturbed = evaluator.marginal_utilities(s[None, :] + h[:, None] * identity)
        jac = (perturbed - u[None, :]).T / h[None, :]
        if np.any(inactive):
            idx = np.flatnonzero(inactive)
            active_idx = np.flatnonzero(~inactive)
            # The broadcast index np.ix_ builds, without its overhead: the
            # blocks keep its memory layout, so matmul sums in its order.
            rows = idx[:, None]
            rhs = -u[idx]
            if active_idx.size:
                rhs = rhs - jac[rows, active_idx] @ step[active_idx]
            block = jac[rows, idx]
            try:
                step[idx] = np.linalg.solve(block, rhs)
            except np.linalg.LinAlgError:
                # Singular inactive block: projected gradient step instead.
                step[idx] = u[idx]

        trials = project_box(
            s[None, :] + _LINESEARCH_SCALES * step[None, :], 0.0, q
        )
        trial_residuals, trial_u = _batched_residuals(evaluator, q, trials)
        improving = np.flatnonzero(trial_residuals < residual)
        if improving.size == 0:
            return None
        best = int(improving[0])
        s, u, residual = trials[best], trial_u[best], float(trial_residuals[best])
    return (s, max_iter) if residual <= tol else None


def _vector_solve(
    game: SubsidizationGame,
    s: np.ndarray,
    *,
    damping: float,
    tol: float,
    max_sweeps: int,
) -> tuple[np.ndarray, int] | None:
    """The vectorized Jacobi + Newton hybrid.

    Damped Jacobi sweeps (all best responses from one batched root solve
    per iteration) globalize and identify the active sets; root tolerances
    are coarsened to the current sweep change so early sweeps stay cheap.
    Once the iteration is inside Newton's basin the batched semismooth
    polish finishes quadratically. Returns ``(profile, sweeps)`` on
    convergence — certified by the natural-map residual at ``tol`` — or
    ``None`` when the sweep budget runs out.
    """
    evaluator = BatchedProfileEvaluator(game)
    residual_tol = max(tol, 1e-12)
    # The initial residual seeds the change estimate so a warm start lands
    # straight in the Newton polish instead of paying a first full sweep.
    initial_residuals, _ = _batched_residuals(evaluator, game.cap, s[None, :])
    largest_change = float(initial_residuals[0])
    newton_barrier = np.inf
    for sweep in range(1, max_sweeps + 1):
        if largest_change <= min(NEWTON_TRIGGER, newton_barrier):
            polished = _newton_polish(game, evaluator, s, tol=residual_tol)
            if polished is not None:
                solution, newton_iters = polished
                return solution, sweep - 1 + newton_iters
            # Newton stalled: keep sweeping until the change shrinks a lot
            # before paying for another polish attempt.
            newton_barrier = largest_change / 4.0
        root_xtol = float(np.clip(0.05 * largest_change, 1e-12, 5e-4))
        responses = best_response_profile_vectorized(
            game, s, evaluator=evaluator, xtol=root_xtol
        )
        step = damping * (responses - s)
        largest_change = float(np.max(np.abs(step))) if step.size else 0.0
        s = s + step
        if largest_change <= tol:
            residuals, _ = _batched_residuals(evaluator, game.cap, s[None, :])
            if float(residuals[0]) <= residual_tol:
                return s, sweep
    return None


def _fused_attempt(
    plan,
    s: np.ndarray,
    cap: float,
    *,
    tol: float,
    max_sweeps: int,
    share_rate: float | None = None,
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """One compiled equilibrium solve from the in-box profile ``s``.

    Returns ``(subsidies, state_row, iterations)``, or ``None`` when the
    sweep budget runs out.
    """
    subsidies, row, iterations, status = fused_equilibrium(
        get_backend(), plan, s, cap, tol, max_sweeps, share_rate
    )
    if status == EQUILIBRIUM_BUDGET:
        return None
    return subsidies, row, iterations


@dataclass(frozen=True)
class FusedAttempt:
    """:func:`solve_equilibrium`'s first attempt, made as one compiled call
    on a kernel plan (see :func:`certified_fused_equilibrium`).

    Attributes
    ----------
    solved:
        ``(subsidies, state_row, iterations)`` as
        :func:`~repro.backend.dispatch.fused_equilibrium` lays them out;
        ``None`` when the sweep budget ran out or the call raised.
    error:
        The :class:`~repro.exceptions.ReproError` the call raised, if any.
    """

    solved: tuple[np.ndarray, np.ndarray, int] | None
    error: ReproError | None = None

    @property
    def certified(self) -> bool:
        """Solved with a KKT residual within :data:`DEFAULT_CERTIFY_TOL`."""
        if self.solved is None:
            return False
        subsidies, row, _ = self.solved
        return bool(row[6 * subsidies.shape[0] + 4] <= DEFAULT_CERTIFY_TOL)

    def replay(self) -> tuple[np.ndarray, np.ndarray, int] | None:
        """The attempt's outcome as the call gave it: raises its error."""
        if self.error is not None:
            raise self.error
        return self.solved


def _fused_solve(
    game: SubsidizationGame,
    plan,
    s: np.ndarray,
    *,
    tol: float,
    max_sweeps: int,
    attempt: FusedAttempt | None = None,
) -> EquilibriumResult | None:
    """:func:`_vector_solve` at damping 1 as one compiled call.

    The kernel also returns the solved state and KKT residual at the
    solution, so no second market solve or certificate runs here. Returns
    ``None`` when the sweep budget runs out. A given ``attempt`` is that
    call, already made.
    """
    if attempt is not None:
        solved = attempt.replay()
    else:
        solved = _fused_attempt(
            plan, s, game.cap, tol=tol, max_sweeps=max_sweeps
        )
    if solved is None:
        return None
    subsidies, row, iterations = solved
    n = game.size
    utilization, gap_slope, revenue, welfare, residual = (
        row[6 * n:6 * n + 5].tolist()
    )
    state = MarketState(
        subsidies=row[:n],
        effective_prices=row[n:2 * n],
        populations=row[2 * n:3 * n],
        utilization=utilization,
        rates=row[3 * n:4 * n],
        throughputs=row[4 * n:5 * n],
        utilities=row[5 * n:6 * n],
        revenue=revenue,
        welfare=welfare,
        gap_slope=gap_slope,
        price=plan.price,
        capacity=game.market.isp.capacity,
    )
    return EquilibriumResult(
        subsidies=subsidies,
        state=state,
        kkt_residual=residual,
        iterations=iterations,
        method="best_response",
    )


def _initial_profile(n: int, cap: float, initial) -> np.ndarray:
    """The starting profile: zeros, or ``initial`` clipped into ``[0, cap]``.

    ``initial`` must have shape ``(n,)`` and hold no NaN; ``±inf`` entries
    clip to the box edges.
    """
    if initial is None:
        return np.zeros(n)
    s = np.asarray(initial, dtype=float)
    if s.shape != (n,):
        raise ModelError(f"initial profile must have shape ({n},), got {s.shape}")
    if np.isnan(s).any():
        raise ModelError("initial profile must not contain NaN")
    return project_box(s, 0.0, cap)


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ModelError(f"tol must be finite and non-negative, got {tol}")


def _gauss_seidel_sweeps(
    game: SubsidizationGame,
    s: np.ndarray,
    *,
    damping: float,
    tol: float,
    max_sweeps: int,
) -> tuple[np.ndarray, int]:
    """Damped Gauss–Seidel iteration with scalar per-player best responses."""
    s = s.copy()
    largest_change = float("inf")
    for sweep in range(1, max_sweeps + 1):
        largest_change = 0.0
        for i in range(game.size):
            response = best_response(game, i, s)
            step = damping * (response - s[i])
            largest_change = max(largest_change, abs(step))
            s[i] += step
        if largest_change <= tol:
            return s, sweep
    raise ConvergenceError(
        f"best-response iteration not converged in {max_sweeps} sweeps "
        f"(last change {largest_change:.3e})",
        iterations=max_sweeps,
        residual=largest_change,
    )


def solve_equilibrium_best_response(
    game: SubsidizationGame,
    *,
    initial=None,
    damping: float = 1.0,
    tol: float = 1e-10,
    max_sweeps: int = _MAX_SWEEPS,
    sweep: str = "auto",
) -> EquilibriumResult:
    """Damped best-response iteration (vectorized Jacobi / Gauss–Seidel).

    Under a kernel backend an undamped Jacobi solve of a kernel-eligible
    market runs as one compiled call; Gauss–Seidel (``"auto"``) takes
    over in Python if that call spends its sweep budget.

    Parameters
    ----------
    game:
        The subsidization game.
    initial:
        Starting profile; defaults to all zeros (the regulated baseline).
    damping:
        Fraction of the best-response step taken per update, in (0, 1].
    tol:
        Convergence threshold on the per-sweep maximum strategy change.
    max_sweeps:
        Sweep budget; :class:`~repro.exceptions.ConvergenceError` beyond it.
    sweep:
        ``"vector"`` — batched Jacobi sweeps only,
        ``"scalar"`` — the classic per-player Gauss–Seidel iteration,
        ``"auto"`` — Jacobi first, Gauss–Seidel on non-contraction (default).
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if sweep not in {"auto", "vector", "scalar"}:
        raise ValueError(f"unknown sweep mode {sweep!r}")
    _check_tol(tol)
    return _best_response_solve(
        game,
        _initial_profile(game.size, game.cap, initial),
        damping=damping,
        tol=tol,
        max_sweeps=max_sweeps,
        sweep=sweep,
    )


def _best_response_solve(
    game: SubsidizationGame,
    s: np.ndarray,
    *,
    damping: float,
    tol: float,
    max_sweeps: int,
    sweep: str,
    attempt: FusedAttempt | None = None,
) -> EquilibriumResult:
    """:func:`solve_equilibrium_best_response` on validated arguments
    (``attempt``: the compiled first call, already made)."""
    if game.cap == 0.0:
        return _zero_cap_result(game)
    iterations = 0
    solution = None
    if sweep in {"auto", "vector"}:
        # The Jacobi map can cycle where Gauss–Seidel contracts, so a spent
        # budget falls through rather than raising when fallback is allowed.
        jacobi_budget = (
            max_sweeps if sweep == "vector" else min(max_sweeps, _JACOBI_BUDGET)
        )
        plan = (
            game.market.kernel_plan()
            if damping == 1.0 and get_backend().kernels is not None
            else None
        )
        if plan is not None:
            result = _fused_solve(
                game, plan, s, tol=tol, max_sweeps=jacobi_budget,
                attempt=attempt,
            )
            if result is not None:
                return result
        else:
            outcome = _vector_solve(
                game, s, damping=damping, tol=tol, max_sweeps=jacobi_budget
            )
            if outcome is not None:
                solution, iterations = outcome
        if solution is None and sweep == "vector":
            raise ConvergenceError(
                f"vectorized best-response iteration not converged in "
                f"{jacobi_budget} sweeps",
                iterations=jacobi_budget,
            )
    if solution is None:
        if sweep == "auto" and profiling.enabled:
            profiling.record_equilibrium_fallback()
        solution, iterations = _gauss_seidel_sweeps(
            game, s, damping=damping, tol=tol, max_sweeps=max_sweeps
        )
    return EquilibriumResult(
        subsidies=solution.copy(),
        state=game.state(solution),
        kkt_residual=_kkt_residual(game, solution),
        iterations=iterations,
        method="best_response",
    )


def solve_equilibrium_vi(
    game: SubsidizationGame,
    *,
    initial=None,
    step: float = 0.25,
    tol: float = 1e-10,
    max_iter: int = 200_000,
) -> EquilibriumResult:
    """Extragradient solve of the equivalent ``VI(−u, [0, q]^N)``.

    Slower than best-response iteration but convergent under plain
    monotonicity of ``−u``; used as the independent cross-check and as the
    fallback when best-response certification fails.
    """
    if game.cap == 0.0:
        result = _zero_cap_result(game)
        return EquilibriumResult(
            subsidies=result.subsidies,
            state=result.state,
            kkt_residual=result.kkt_residual,
            iterations=0,
            method="vi",
        )
    n = game.size
    x0 = np.zeros(n) if initial is None else np.asarray(initial, dtype=float)
    result = extragradient_box(
        game.negated_marginal_utilities,
        x0,
        0.0,
        game.cap,
        step=step,
        tol=tol,
        max_iter=max_iter,
    )
    s = result.x
    return EquilibriumResult(
        subsidies=s,
        state=game.state(s),
        kkt_residual=_kkt_residual(game, s),
        iterations=result.iterations,
        method="vi",
    )


def solve_equilibrium(
    game: SubsidizationGame,
    *,
    initial=None,
    tol: float = _SOLVE_TOL,
    certify_tol: float = DEFAULT_CERTIFY_TOL,
    attempt: FusedAttempt | None = None,
) -> EquilibriumResult:
    """Solve and certify a Nash equilibrium.

    Runs best-response iteration (vectorized Jacobi with Gauss–Seidel
    fallback); if the resulting profile's KKT residual exceeds
    ``certify_tol``, retries with damping, then falls back to the
    extragradient VI solver. Raises
    :class:`~repro.exceptions.EquilibriumError` if no solver produces a
    certified equilibrium, and :class:`~repro.exceptions.ModelError` up
    front for an ``initial`` that is not a NaN-free ``(N,)`` profile, a
    ``tol`` that is not finite and non-negative, or a ``certify_tol`` that
    is not finite and positive.

    ``attempt`` is the compiled first attempt
    :func:`certified_fused_equilibrium` already made from ``initial`` on
    this market's kernel plan, at the default ``tol``; it stands in for
    that call, so a failed attempt is not repeated.
    """
    _check_tol(tol)
    if not (np.isfinite(certify_tol) and certify_tol > 0.0):
        raise ModelError(
            f"certify_tol must be finite and positive, got {certify_tol}"
        )
    s = _initial_profile(game.size, game.cap, initial)
    attempts = []
    for damping in (1.0, 0.5):
        if damping != 1.0 and profiling.enabled:
            profiling.record_equilibrium_fallback()
        try:
            result = _best_response_solve(
                game,
                s,
                damping=damping,
                tol=tol,
                max_sweeps=_MAX_SWEEPS,
                sweep="auto",
                attempt=attempt if damping == 1.0 else None,
            )
        except ReproError as exc:
            # Any library failure (non-convergence, degenerate marginals,
            # model errors surfaced by probe points) moves to the next
            # attempt; the collected reasons go into the final report.
            attempts.append(f"best_response(damping={damping}): {exc}")
            continue
        if result.kkt_residual <= certify_tol:
            return result
        attempts.append(
            f"best_response(damping={damping}): KKT residual "
            f"{result.kkt_residual:.3e} > {certify_tol:.1e}"
        )
    if profiling.enabled:
        profiling.record_equilibrium_fallback()
    try:
        result = solve_equilibrium_vi(game, initial=s, tol=tol)
    except ReproError as exc:
        attempts.append(f"vi: {exc}")
    else:
        if result.kkt_residual <= certify_tol:
            return result
        attempts.append(
            f"vi: KKT residual {result.kkt_residual:.3e} > {certify_tol:.1e}"
        )
    raise EquilibriumError(
        "no solver produced a certified equilibrium: " + "; ".join(attempts)
    )


def certified_fused_equilibrium(
    plan, cap: float, initial, share_rate: float | None = None
) -> FusedAttempt:
    """:func:`solve_equilibrium`'s first attempt, without a market or game.

    For a kernel-eligible market's ``plan`` under a kernel backend and a
    positive ``cap``, that attempt is one compiled call at the default
    ``tol`` and the Jacobi sweep budget; ``share_rate`` asks the call for
    the revenue slope as well (see
    :func:`~repro.backend.dispatch.fused_equilibrium`). When the attempt
    is :attr:`~FusedAttempt.certified` it is the answer. Otherwise the
    caller passes it to :func:`solve_equilibrium` on the market as
    ``attempt``, which goes on down the fallback chain without repeating
    the call, so every outcome stays its outcome. An ``initial`` that is
    not a NaN-free profile raises :func:`solve_equilibrium`'s
    :class:`~repro.exceptions.ModelError`.
    """
    s = _initial_profile(plan.values.shape[0], cap, initial)
    try:
        solved = _fused_attempt(
            plan, s, cap, tol=_SOLVE_TOL,
            max_sweeps=min(_MAX_SWEEPS, _JACOBI_BUDGET),
            share_rate=share_rate,
        )
    except ReproError as exc:
        return FusedAttempt(None, exc)
    return FusedAttempt(solved)
