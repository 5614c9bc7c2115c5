"""Finite-difference derivatives and Jacobians.

Theorems 1, 2, 6, 7 and 8 of the paper are comparative-statics formulas. The
library implements each formula analytically *and* validates it against the
central differences implemented here; Theorem 6 additionally needs the
Jacobian ``∇_s̃ ũ`` of the marginal-utility map to invert.

Central differences with a curvature-scaled step give ~1e-8 relative accuracy
on the smooth exponential-family maps used throughout, which is far below the
tolerances the tests assert.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["derivative", "jacobian"]

#: Cube root of machine epsilon — the optimal central-difference step scale.
_STEP_SCALE = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _step_for(x: float, rel_step: float | None) -> float:
    scale = rel_step if rel_step is not None else _STEP_SCALE
    return scale * max(1.0, abs(x))


def derivative(
    func: Callable[[float], float],
    x: float,
    *,
    rel_step: float | None = None,
) -> float:
    """Central-difference first derivative ``f'(x)``."""
    h = _step_for(x, rel_step)
    return (func(x + h) - func(x - h)) / (2.0 * h)


def jacobian(
    func: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    *,
    rel_step: float | None = None,
    lo: np.ndarray | float | None = None,
    hi: np.ndarray | float | None = None,
) -> np.ndarray:
    """Finite-difference Jacobian ``J[i, j] = ∂f_i/∂x_j``.

    When box bounds ``lo``/``hi`` are given (the subsidization game's
    strategy space, where ``func`` may be undefined outside ``[0, q]``),
    coordinates too close to a bound switch from central to one-sided
    differences so every probe stays feasible.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    lo_arr = (
        np.full(x.shape, -np.inf)
        if lo is None
        else np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    )
    hi_arr = (
        np.full(x.shape, np.inf)
        if hi is None
        else np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    )
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = _step_for(x[j], rel_step)
        room_up = hi_arr[j] - x[j]
        room_down = x[j] - lo_arr[j]
        if room_up + room_down < 2e-15:
            # Degenerate box (lo == hi): no variation possible.
            jac[:, j] = 0.0
            continue
        h = min(h, max(room_up, room_down))
        forward = x.copy()
        backward = x.copy()
        if room_up >= h and room_down >= h:
            forward[j] += h
            backward[j] -= h
            denominator = 2.0 * h
        elif room_up >= h:
            forward[j] += h
            denominator = h
        else:
            backward[j] -= h
            denominator = h
        f_fwd = (
            np.asarray(func(forward), dtype=float) if forward[j] != x[j] else f0
        )
        f_bwd = (
            np.asarray(func(backward), dtype=float) if backward[j] != x[j] else f0
        )
        jac[:, j] = (f_fwd - f_bwd) / denominator
    return jac
