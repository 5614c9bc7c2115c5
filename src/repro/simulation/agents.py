"""CP decision rules for the off-equilibrium simulator.

Each strategy maps the CP's local view (the game, its index, the current
profile) to a *proposed* next subsidy. The simulator projects proposals onto
``[0, q]`` and applies them per its update schedule. Strategies may be
deliberately non-optimal — that is the point of §6's "off-equilibrium"
discussion.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.best_response import best_response
from repro.core.game import SubsidizationGame
from repro.exceptions import ModelError
from repro.solvers.projection import clip_scalar

__all__ = [
    "SubsidyStrategy",
    "BestResponseStrategy",
]


class SubsidyStrategy(ABC):
    """A CP's subsidy update rule."""

    @abstractmethod
    def propose(
        self,
        game: SubsidizationGame,
        index: int,
        profile: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        """Propose the CP's next subsidy given the current profile."""


class BestResponseStrategy(SubsidyStrategy):
    """Damped (possibly noisy, possibly stale) best response.

    Parameters
    ----------
    damping:
        Fraction of the gap to the exact best response closed per update;
        1.0 is full best response.
    noise:
        Standard deviation of additive Gaussian decision noise — models
        imperfect knowledge of demand/congestion. Proposals are clipped to
        the strategy space afterwards.
    """

    def __init__(self, damping: float = 1.0, noise: float = 0.0) -> None:
        if not 0.0 < damping <= 1.0:
            raise ModelError(f"damping must lie in (0, 1], got {damping}")
        if noise < 0.0:
            raise ModelError(f"noise must be non-negative, got {noise}")
        self._damping = damping
        self._noise = noise

    def propose(
        self,
        game: SubsidizationGame,
        index: int,
        profile: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        target = best_response(game, index, profile)
        proposal = profile[index] + self._damping * (target - profile[index])
        if self._noise > 0.0:
            proposal += rng.normal(0.0, self._noise)
        return clip_scalar(proposal, 0.0, game.cap)
