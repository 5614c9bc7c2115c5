"""Root finding for strictly increasing scalar functions.

Lemma 1 of the paper proves the throughput gap ``g(φ) = Θ(φ, µ) − Σ m_k
λ_k(φ)`` is strictly increasing with a unique root — the system utilization.
The functions here exploit that monotonicity: we *bracket* the root by
geometric expansion from zero and then hand the bracket to Brent's method.

These helpers are generic (any strictly increasing function) so they are also
reused for best-response thresholds and inverse-elasticity computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import BracketError

__all__ = [
    "BracketResult",
    "bracket_increasing",
    "solve_increasing",
]

_DEFAULT_XTOL = 1e-12
_DEFAULT_MAX_EXPANSIONS = 200


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

    f_lo = func(lo)
    if f_lo >= 0.0:
        # Root at (or numerically below) the left boundary.
        return BracketResult(lo=lo, hi=lo, f_lo=f_lo, f_hi=f_lo)

    width = initial_width
    hi = lo + width
    for _ in range(max_expansions):
        f_hi = func(hi)
        if f_hi >= 0.0:
            return BracketResult(lo=lo, hi=hi, f_lo=f_lo, f_hi=f_hi)
        lo, f_lo = hi, f_hi
        width *= growth
        hi = lo + width
    raise BracketError(
        f"no sign change found after {max_expansions} expansions "
        f"(last interval [{lo}, {hi}])"
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

    Brackets by geometric expansion, then solves with Brent's method. This is
    the workhorse behind every utilization fixed point in the library.
    """
    bracket = bracket_increasing(
        func, lo=lo, initial_width=initial_width, max_expansions=max_expansions
    )
    if bracket.lo == bracket.hi:
        return bracket.lo
    if bracket.f_lo == 0.0:
        return bracket.lo
    if bracket.f_hi == 0.0:
        return bracket.hi
    # Imported here: scipy costs ~0.2 s to load and no fused-kernel run
    # reaches this scalar path.
    from scipy.optimize import brentq

    return float(brentq(func, bracket.lo, bracket.hi, xtol=xtol))
