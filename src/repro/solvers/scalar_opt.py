"""Bounded scalar maximization.

Two consumers inside the library:

* **Best responses** (Definition 3): each CP maximizes ``U_i(s_i; s_-i)``
  over ``s_i ∈ [0, q]``. Under condition (10) the utility is concave in own
  strategy, so the best response is a root of the marginal utility; the
  golden-section search here is the fallback when that root fails.
* **ISP pricing** (Section 5): the ISP maximizes its revenue ``R(p)`` which
  is single-peaked in the paper's examples (Figure 4) but not guaranteed
  concave — hence :func:`grid_polish_maximize`, a coarse-grid scan followed
  by local refinement, robust to mild multimodality. When the slope
  ``R'(p)`` comes with each value (Theorem 7), :func:`certified_maximize`
  polishes on it instead and certifies the maximizer it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

__all__ = [
    "BOUND",
    "CertifiedMax",
    "INTERIOR",
    "KINK",
    "ScalarMaxResult",
    "bisect_interval",
    "certified_maximize",
    "golden_section_maximize",
    "grid_polish_maximize",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/φ ≈ 0.618


@dataclass(frozen=True)
class ScalarMaxResult:
    """Maximizer and value returned by the scalar optimizers."""

    x: float
    value: float
    evaluations: int


def golden_section_maximize(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> ScalarMaxResult:
    """Golden-section search for the maximum of a unimodal function.

    Exact (to ``xtol``) for concave/unimodal objectives — which covers each
    CP's own-strategy utility under the paper's concavity condition. For
    non-unimodal objectives use :func:`grid_polish_maximize`.
    """
    if hi < lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    if hi == lo:
        return ScalarMaxResult(lo, func(lo), 1)
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = func(c), func(d)
    evals = 2
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = func(d)
        evals += 1
    x = 0.5 * (a + b)
    # The true maximizer may sit exactly on the original boundary; compare.
    candidates = [(x, func(x)), (lo, func(lo)), (hi, func(hi))]
    evals += 3
    best_x, best_v = max(candidates, key=lambda pair: pair[1])
    return ScalarMaxResult(best_x, best_v, evals)


def grid_polish_maximize(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    grid_points: int = 64,
    xtol: float = 1e-10,
) -> ScalarMaxResult:
    """Coarse grid scan followed by golden-section polishing.

    Evaluates ``func`` on a uniform grid, then runs golden-section search on
    the bracket around the best grid point. Robust to objectives with a few
    local maxima (e.g. revenue curves under kinked equilibrium responses).
    """
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    if hi < lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    if hi == lo:
        return ScalarMaxResult(lo, func(lo), 1)
    step = (hi - lo) / (grid_points - 1)
    xs = [lo + k * step for k in range(grid_points)]
    values = [func(x) for x in xs]
    best = max(range(grid_points), key=values.__getitem__)
    left = xs[max(best - 1, 0)]
    right = xs[min(best + 1, grid_points - 1)]
    polished = golden_section_maximize(func, left, right, xtol=xtol)
    evals = grid_points + polished.evaluations
    if values[best] > polished.value:
        return ScalarMaxResult(xs[best], values[best], evals)
    return ScalarMaxResult(polished.x, polished.value, evals)


def bisect_interval(
    keeps_lo: Callable[[float], bool], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Halve ``[lo, hi]`` until it is at most ``tol`` wide.

    Each midpoint replaces ``lo`` where ``keeps_lo(mid)`` holds (it lies
    on ``lo``'s side of the change being located) and ``hi`` otherwise.
    Returns the final interval.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if keeps_lo(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


#: Certificate kinds of :class:`CertifiedMax`.
INTERIOR = "interior"
BOUND = "bound"
KINK = "kink"

#: Step budgets of the slope polish and of the local bracket search.
_POLISH_STEPS = 100
_LOCAL_STEPS = 12

#: The golden-section fraction ``1 − 1/φ ≈ 0.382``.
_GOLDEN = 1.0 - _INV_PHI

#: A point's evaluation: ``(value, slope, piece)``.
Evaluation = tuple[float, float, Hashable]


@dataclass(frozen=True)
class CertifiedMax:
    """A maximizer found from values and slopes, with its certificate.

    Attributes
    ----------
    x, value, slope:
        The maximizer, and the objective and its slope there.
    certificate:
        :data:`INTERIOR` — ``|slope| ≤ tol``; :data:`BOUND` — ``x`` is an
        end of the range and the slope does not point into it (beyond
        ``tol``); :data:`KINK` — the slope changes sign from ``+`` to
        ``−`` across a bracket at most ``xtol`` wide with ``x`` its better
        end; ``None`` — not certified.
    evaluations:
        Distinct points evaluated.
    grid:
        Whether the full grid scan ran.
    """

    x: float
    value: float
    slope: float
    certificate: str | None
    evaluations: int
    grid: bool


class _Search:
    """One certified search: the evaluation cache and the range."""

    def __init__(self, evaluate, lo, hi, xtol, tol):
        self._evaluate = evaluate
        self.points: dict[float, Evaluation] = {}
        self.lo, self.hi, self.xtol, self.tol = lo, hi, xtol, tol

    def at(self, x: float) -> Evaluation:
        """``evaluate(x)``, once per point: a grid point or bracket end
        is never solved twice."""
        if x not in self.points:
            self.points[x] = self._evaluate(x)
        return self.points[x]

    def certify(self, x: float) -> str | None:
        """The certificate ``x`` earns on its own, or ``None``."""
        slope = self.at(x)[1]
        if (x == self.lo and slope <= self.tol) or (
            x == self.hi and slope >= -self.tol
        ):
            return BOUND
        return INTERIOR if abs(slope) <= self.tol else None

    def better(self, a: float, b: float) -> float:
        return a if self.at(a)[0] >= self.at(b)[0] else b

    def polish(self, a: float, b: float):
        """Polish a ``+``/``−`` slope bracket ``[a, b]``: ``(x, kind)``.

        Ends on different pieces (a partition change inside) are bisected
        on the slope sign first: a sign change still across pieces once
        the bracket is ``xtol`` wide is a kink maximum. On one piece,
        safeguarded secant steps on the slope run until it certifies,
        falling back to a golden-section point whenever a step would
        leave the bracket or the slope stops halving every two steps.
        """
        if not self.at(a)[1] > 0.0 > self.at(b)[1]:
            # No slope bracket (the slope rises again before b): fall
            # back to the values.
            x = golden_section_maximize(
                lambda x: self.at(x)[0], a, b, xtol=self.xtol
            ).x
            return x, self.certify(x)
        if self.at(a)[2] != self.at(b)[2]:
            a, b = bisect_interval(lambda x: self.at(x)[1] > 0.0, a, b,
                                   self.xtol)
            for end in (self.better(a, b), a, b):
                if abs(self.at(end)[1]) <= self.tol:
                    return end, INTERIOR
            if self.at(a)[2] != self.at(b)[2]:
                return self.better(a, b), KINK
        (x0, g0), (x1, g1) = (a, self.at(a)[1]), (b, self.at(b)[1])
        sizes = [abs(g0), abs(g1)]
        for _ in range(_POLISH_STEPS):
            x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else math.nan
            stalled = sizes[-1] > 0.5 * sizes[-3] if len(sizes) > 2 else False
            if stalled or not a < x < b:
                near_a = abs(self.at(a)[1]) <= abs(self.at(b)[1])
                x = a + _GOLDEN * (b - a) if near_a else b - _GOLDEN * (b - a)
            g = self.at(x)[1]
            if abs(g) <= self.tol:
                return x, INTERIOR
            if g > 0.0:
                a = x
            else:
                b = x
            sizes.append(abs(g))
            x0, g0, x1, g1 = x1, g1, x, g
        return self.better(a, b), None

    def local(self, start: float, guess: float, reach: float):
        """A bracketed search from ``start``: ``(x, kind)`` or ``None``.

        Secant steps from ``start`` and ``guess`` look for a ``+``/``−``
        slope bracket within ``reach`` of either and hand it to
        :meth:`polish`. ``None`` when a step leaves that window, the
        slopes bracket a minimum, or nothing certifies in the budget.
        """
        kind = self.certify(start)
        if kind is not None:
            return start, kind
        lo = max(self.lo, min(start, guess) - reach)
        hi = min(self.hi, max(start, guess) + reach)
        g0 = self.at(start)[1]
        x0 = start
        x1 = min(max(guess, lo), hi)
        if x1 == x0:
            x1 = min(max(x0 + math.copysign(reach / 16.0, g0), lo), hi)
        for _ in range(_LOCAL_STEPS):
            if x1 == x0:
                return None
            kind = self.certify(x1)
            if kind is not None:
                return x1, kind
            g1 = self.at(x1)[1]
            if (g0 > 0.0) != (g1 > 0.0):
                a, b = (x0, x1) if x0 < x1 else (x1, x0)
                if self.at(a)[1] < 0.0:
                    return None
                x, kind = self.polish(a, b)
                return None if kind is None else (x, kind)
            if g1 == g0:
                return None
            x2 = min(max(x1 - g1 * (x1 - x0) / (g1 - g0), self.lo), self.hi)
            if not lo <= x2 <= hi:
                return None
            x0, g0, x1 = x1, g1, x2
        return None


def certified_maximize(
    evaluate: Callable[[float], Evaluation],
    lo: float,
    hi: float,
    *,
    grid_points: int,
    xtol: float,
    tol: float,
    start: float | None = None,
    guess: float | None = None,
) -> CertifiedMax:
    """Maximize on ``[lo, hi]`` from values and slopes, and certify it.

    ``evaluate(x)`` returns ``(value, slope, piece)``: the objective, its
    derivative, and a label of the smooth piece ``x`` lies on (a kink
    separates pieces; ``None`` everywhere when there are none).

    The full search scans ``grid_points`` uniform points and polishes the
    slope's ``+``/``−`` bracket next to the best one (:meth:`_Search.polish`),
    unless that point certifies on its own. Given a ``start`` inside that
    bracket, ``start`` itself is returned when it certifies and is worth
    at least the best grid point, and also when a bound or kink
    certificate lies within ``xtol`` of it. Given a ``guess`` too, a
    bracketed local search from ``start`` runs first (within one grid step
    of ``start`` or ``guess``) and the grid scan only when that fails.
    """
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    if hi < lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    search = _Search(evaluate, lo, hi, xtol, tol)

    def done(x: float, kind, grid: bool) -> CertifiedMax:
        if kind in (BOUND, KINK) and start is not None and abs(x - start) <= xtol:
            # A bound or kink is located to xtol: a start that close to
            # it is the same certified maximizer.
            x = start
        value, slope, _ = search.at(x)
        return CertifiedMax(x, value, slope, kind, len(search.points), grid)

    if hi == lo:
        return done(lo, BOUND, False)
    step = (hi - lo) / (grid_points - 1)
    if start is not None and guess is not None and lo <= start <= hi:
        found = search.local(start, guess, step)
        if found is not None:
            return done(*found, False)
    xs = [lo + k * step for k in range(grid_points - 1)] + [hi]
    values = [search.at(x)[0] for x in xs]
    best = max(range(grid_points), key=values.__getitem__)
    left = xs[max(best - 1, 0)]
    right = xs[min(best + 1, grid_points - 1)]
    if start is not None and left <= start <= right:
        kind = search.certify(start)
        if kind is not None and search.at(start)[0] >= values[best]:
            return done(start, kind, True)
    x = xs[best]
    kind = search.certify(x)
    if kind is None:
        if search.at(x)[1] > 0.0:
            x, kind = search.polish(x, right)
        else:
            x, kind = search.polish(left, x)
    return done(x, kind, True)
