"""Root finding for strictly increasing scalar functions.

Lemma 1 of the paper proves the throughput gap ``g(φ) = Θ(φ, µ) − Σ m_k
λ_k(φ)`` is strictly increasing with a unique root — the system utilization.
We *bracket* the root by geometric expansion from zero, then shrink the
bracket with Brent's method (:func:`root_in_bracket`), which is also the
scalar best response's root finder (on the negated marginal utility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import BracketError, ConvergenceError

__all__ = [
    "BracketResult",
    "bracket_increasing",
    "root_in_bracket",
    "solve_increasing",
]

_DEFAULT_XTOL = 1e-12
_DEFAULT_MAX_EXPANSIONS = 200
#: Brent's step budget and the relative part of its bracket-width
#: tolerance (100 steps and 4·eps, as in ``brentq``).
_MAX_ITER = 100
_RTOL = 4.0 * 2.220446049250313e-16


def _checked(func: Callable[[float], float], x: float) -> float:
    """``func(x)`` as a float; a NaN or infinite value raises."""
    value = float(func(x))
    if not math.isfinite(value):
        raise BracketError(f"function value is {value!r} at x={x!r}")
    return value


@dataclass(frozen=True)
class BracketResult:
    """A sign-change bracket ``[lo, hi]`` with cached function values."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def contains_root(self) -> bool:
        """Return ``True`` when the bracket encloses a sign change."""
        return self.f_lo <= 0.0 <= self.f_hi


def bracket_increasing(
    func: Callable[[float], float],
    *,
    lo: float = 0.0,
    initial_width: float = 1.0,
    growth: float = 2.0,
    max_expansions: int = _DEFAULT_MAX_EXPANSIONS,
) -> BracketResult:
    """Bracket the root of a strictly increasing function.

    Starting from ``lo`` (where ``func`` must be non-positive for a root to
    exist at or above ``lo``), the upper end expands geometrically until the
    function becomes non-negative.

    Parameters
    ----------
    func:
        Strictly increasing callable.
    lo:
        Left end of the search; ``func(lo)`` may be any sign, but if it is
        positive the root is taken to be at ``lo`` (useful for boundary
        utilization 0).
    initial_width:
        First trial width of the bracket.
    growth:
        Geometric expansion factor (> 1).
    max_expansions:
        Abort with :class:`~repro.exceptions.BracketError` after this many
        doublings — guards against functions that never cross zero.
    """
    if growth <= 1.0:
        raise ValueError(f"growth must exceed 1, got {growth}")
    if initial_width <= 0.0:
        raise ValueError(f"initial_width must be positive, got {initial_width}")

    f_lo = _checked(func, lo)
    if f_lo >= 0.0:
        # Root at (or numerically below) the left boundary.
        return BracketResult(lo=lo, hi=lo, f_lo=f_lo, f_hi=f_lo)

    width = initial_width
    hi = lo + width
    for _ in range(max_expansions):
        f_hi = _checked(func, hi)
        if f_hi >= 0.0:
            return BracketResult(lo=lo, hi=hi, f_lo=f_lo, f_hi=f_hi)
        lo, f_lo = hi, f_hi
        width *= growth
        hi = lo + width
    raise BracketError(
        f"no sign change found after {max_expansions} expansions "
        f"(last interval [{lo}, {hi}])"
    )


# Follows SciPy's brentq.c; its BSD-3-Clause licence notice is in NOTICE.
def root_in_bracket(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    *,
    xtol: float = _DEFAULT_XTOL,
) -> float:
    """Root of ``func`` on ``[lo, hi]`` given ``f_lo <= 0 <= f_hi``.

    Brent's method (Brent 1973, ch. 4): secant or inverse quadratic steps,
    bisecting whenever they would not shrink fast enough. The arithmetic is
    SciPy's ``brentq`` step for step, so the roots are bit for bit the ones
    ``brentq`` returns. Stops once the bracket is narrower than
    ``xtol + 4·eps·|x|``; an endpoint zero comes back exactly. A NaN or
    infinite value or a missing sign change raises ``BracketError``;
    ``_MAX_ITER`` steps without convergence raise ``ConvergenceError``.
    """
    if not -math.inf < f_lo <= 0.0 <= f_hi < math.inf:
        raise BracketError(
            f"no finite sign change on [{lo!r}, {hi!r}] "
            f"(values {f_lo!r}, {f_hi!r})"
        )
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # ``cur`` is the best iterate, ``blk`` the opposite end of the bracket
    # and ``pre`` the previous iterate; ``scur``/``spre`` the last steps.
    xpre, fpre, xcur, fcur = lo, f_lo, hi, f_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        interp = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interp:
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            # Accept the step only if it is short; otherwise bisect.
            interp = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if interp else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _checked(func, xcur)
    raise ConvergenceError(
        f"bracket [{xcur!r}, {xblk!r}] still open after {_MAX_ITER} steps",
        iterations=_MAX_ITER, residual=abs(xblk - xcur),
    )


def solve_increasing(
    func: Callable[[float], float],
    *,
    lo: float = 0.0,
    initial_width: float = 1.0,
    xtol: float = _DEFAULT_XTOL,
    max_expansions: int = _DEFAULT_MAX_EXPANSIONS,
) -> float:
    """Find the unique root of a strictly increasing function above ``lo``.

    Brackets by geometric expansion, then shrinks the bracket with
    :func:`root_in_bracket`. This is the workhorse behind every scalar
    utilization fixed point in the library.
    """
    bracket = bracket_increasing(
        func, lo=lo, initial_width=initial_width, max_expansions=max_expansions
    )
    if bracket.lo == bracket.hi:
        return bracket.lo
    return root_in_bracket(
        func, bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi, xtol=xtol
    )
