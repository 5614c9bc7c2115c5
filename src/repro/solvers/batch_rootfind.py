"""Vectorized root finding over batches of independent scalar problems.

The array-native evaluation stack solves many one-dimensional root problems
at once: one congestion fixed point per profile in a batch, one best-response
root per player in a sweep. Each row of a batch is an independent monotone
(or at least sign-bracketed) scalar problem; the routines here run them in
lockstep with per-row masks so that every row follows exactly the trajectory
it would follow if solved alone — batching never changes the answer, only
the wall clock.

Three primitives:

* :func:`expand_bracket_batch` — geometric bracket expansion for rows of
  increasing functions (the batched analogue of
  :func:`repro.solvers.rootfind.bracket_increasing`);
* :func:`bracketed_root_batch` — bisection warm-up followed by Illinois
  (modified regula falsi) iterations on per-row sign-change brackets;
* :func:`newton_polish_batch` — safeguarded Newton refinement to machine
  precision given an analytic slope, used to make batched congestion roots
  agree with the scalar bracketed path to well below 1e-12.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backend import profiling
from repro.exceptions import BracketError

__all__ = [
    "expand_bracket_batch",
    "bracketed_root_batch",
    "newton_polish_batch",
]


def expand_bracket_batch(
    func: Callable[[np.ndarray], np.ndarray],
    size: int,
    *,
    lo: float = 0.0,
    initial_width: float = 1.0,
    growth: float = 2.0,
    max_expansions: int = 200,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bracket the roots of ``size`` increasing functions evaluated jointly.

    ``func`` maps a ``(size,)`` vector of abscissae to the ``(size,)`` vector
    of per-row function values. Rows whose value at ``lo`` is already
    non-negative are treated as rooted at ``lo`` (boundary roots), matching
    the scalar :func:`~repro.solvers.rootfind.bracket_increasing` contract.

    Returns ``(lo, hi, f_lo, f_hi)`` arrays. Rows that expanded have a sign
    change (``f_lo <= 0 <= f_hi``); boundary-rooted rows collapse to
    ``lo == hi`` (with ``f_lo == f_hi >= 0``), which
    :func:`bracketed_root_batch` resolves as a root at ``lo``.
    """
    if growth <= 1.0:
        raise ValueError(f"growth must exceed 1, got {growth}")
    if initial_width <= 0.0:
        raise ValueError(f"initial_width must be positive, got {initial_width}")
    lo_vec = np.full(size, float(lo))
    f_lo = np.asarray(func(lo_vec), dtype=float)
    at_boundary = f_lo >= 0.0
    width = np.full(size, float(initial_width))
    hi_vec = np.where(at_boundary, lo_vec, lo_vec + width)
    f_hi = f_lo.copy()
    open_rows = ~at_boundary
    if profiling.enabled:
        profiling.add_residual_evals(size)
    for _ in range(max_expansions):
        if not np.any(open_rows):
            break
        probe = np.where(open_rows, hi_vec, lo_vec)
        f_probe = np.asarray(func(probe), dtype=float)
        if profiling.enabled:
            profiling.add_residual_evals(size)
            profiling.add_brackets_expanded(int(np.count_nonzero(open_rows)))
        f_hi = np.where(open_rows, f_probe, f_hi)
        closed = open_rows & (f_probe >= 0.0)
        still = open_rows & ~closed
        # Shift the bracket up on rows still below zero.
        lo_vec = np.where(still, hi_vec, lo_vec)
        f_lo = np.where(still, f_probe, f_lo)
        width = np.where(still, width * growth, width)
        hi_vec = np.where(still, lo_vec + width, hi_vec)
        open_rows = still
    if np.any(open_rows):
        rows = [int(r) for r in np.flatnonzero(open_rows)]
        intervals = [(float(lo_vec[r]), float(hi_vec[r])) for r in rows]
        raise BracketError.unbracketed(max_expansions, rows, intervals)
    return lo_vec, hi_vec, f_lo, f_hi


def bracketed_root_batch(
    func: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
    *,
    active: np.ndarray | None = None,
    xtol: float = 1e-12,
    bisect_iters: int = 12,
    max_iter: int = 100,
) -> np.ndarray:
    """Solve per-row bracketed roots by bisection then Illinois iterations.

    Every active row must satisfy ``sign(f_lo) != sign(f_hi)`` (zeros count
    as roots at the endpoint). Rows follow independent trajectories — the
    result of one row never depends on which other rows share the batch —
    so batched and row-at-a-time solves agree bitwise.

    Parameters
    ----------
    func:
        Maps a full ``(B,)`` abscissa vector to per-row values. It is called
        on the whole vector each iteration; inactive or converged rows are
        evaluated at their current best point (the evaluations are ignored).
    lo, hi, f_lo, f_hi:
        Per-row brackets and cached endpoint values.
    active:
        Optional mask of rows to solve; inactive rows return ``lo`` as-is.
    xtol:
        Bracket-width convergence threshold.
    bisect_iters:
        Number of plain bisection warm-up rounds before Illinois.
    max_iter:
        Total iteration budget (bisection + Illinois).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = np.array(f_lo, dtype=float)
    f_hi = np.array(f_hi, dtype=float)
    size = lo.shape[0]
    if active is None:
        active = np.ones(size, dtype=bool)
    else:
        active = np.asarray(active, dtype=bool).copy()

    root = lo.copy()
    # Endpoint roots and collapsed (boundary) brackets resolve immediately;
    # the latter is how expand_bracket_batch reports rows rooted at ``lo``.
    hit_lo = active & ((f_lo == 0.0) | (hi == lo))
    hit_hi = active & (f_hi == 0.0)
    root = np.where(hit_hi & ~hit_lo, hi, root)
    pending = active & ~hit_lo & ~hit_hi
    if np.any(pending & (np.sign(f_lo) == np.sign(f_hi))):
        raise BracketError("bracketed_root_batch requires a sign change per row")

    for iteration in range(max_iter):
        pending &= (hi - lo) > xtol
        if not np.any(pending):
            break
        if iteration < bisect_iters:
            x = 0.5 * (lo + hi)
        else:
            # Illinois candidate: secant through the bracket endpoints.
            denom = f_hi - f_lo
            with np.errstate(divide="ignore", invalid="ignore"):
                secant = (lo * f_hi - hi * f_lo) / denom
            mid = 0.5 * (lo + hi)
            bad = ~np.isfinite(secant) | (secant <= lo) | (secant >= hi)
            x = np.where(bad, mid, secant)
        probe = np.where(pending, x, root)
        fx = np.asarray(func(probe), dtype=float)
        if profiling.enabled:
            profiling.add_residual_evals(size)

        exact = pending & (fx == 0.0)
        root = np.where(exact, probe, root)
        lo = np.where(exact, probe, lo)
        hi = np.where(exact, probe, hi)
        pending &= ~exact

        same_as_lo = pending & (np.sign(fx) == np.sign(f_lo))
        opposite = pending & ~same_as_lo
        # Move the matching endpoint; halve the stale endpoint's weight on
        # the Illinois side so neither end can stagnate (regula falsi fix).
        lo = np.where(same_as_lo, probe, lo)
        f_lo = np.where(same_as_lo, fx, f_lo)
        f_hi = np.where(same_as_lo & (iteration >= bisect_iters), 0.5 * f_hi, f_hi)
        hi = np.where(opposite, probe, hi)
        f_hi = np.where(opposite, fx, f_hi)
        f_lo = np.where(opposite & (iteration >= bisect_iters), 0.5 * f_lo, f_lo)

    # Width-converged rows settle on the bracket midpoint; rows that
    # exhausted the budget return their midpoint as well (callers polish).
    settled = active & ~hit_lo & ~hit_hi
    root = np.where(settled, 0.5 * (lo + hi), root)
    return root


def newton_polish_batch(
    value_and_slope: Callable[
        [np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
    ],
    x: np.ndarray,
    *,
    lower: float = 0.0,
    rtol: float = 1e-15,
    max_iter: int = 40,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine per-row roots to machine precision with safeguarded Newton.

    ``value_and_slope(x_active, rows)`` receives only the rows still
    iterating — ``x_active = x[rows]`` with ``rows`` the sorted integer
    indices of unconverged rows — and returns the matching ``(g, dg)``
    subvectors; slopes must be strictly positive (monotone increasing
    rows). Converged rows are masked out of the callback entirely, so no
    work is spent re-evaluating settled roots; since every row's update
    depends only on that row's values, the trajectories (and results) are
    bit-for-bit those of full-batch lockstep iteration.

    Iterates are clamped at ``lower`` — rows whose root sits on the
    boundary converge there.

    Returns ``(x, converged)``; non-converged rows keep their last iterate
    and should be re-solved through the bracketed path by the caller.
    """
    x = np.array(x, dtype=float)
    converged = np.zeros(x.shape[0], dtype=bool)
    for _ in range(max_iter):
        rows = np.flatnonzero(~converged)
        x_active = x[rows]
        g, slope = value_and_slope(x_active, rows)
        g = np.asarray(g, dtype=float)
        slope = np.asarray(slope, dtype=float)
        if profiling.enabled:
            profiling.add_residual_evals(rows.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / slope
        # A degenerate slope (non-finite or non-positive) yields a zero or
        # nonsense step whose tiny delta says nothing about g — such rows
        # must stay unconverged so callers re-solve them by bracketing.
        informative = np.isfinite(step) & np.isfinite(slope) & (slope > 0.0)
        proposal = np.maximum(x_active - step, lower)
        proposal = np.where(informative, proposal, x_active)
        delta = np.abs(proposal - x_active)
        x[rows] = proposal
        newly = informative & (delta <= rtol * (1.0 + np.abs(proposal)))
        converged[rows[newly]] = True
        if np.all(converged):
            break
    return x, converged
