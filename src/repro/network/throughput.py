"""Per-user throughput families ``λ(φ)`` (Assumption 1) — array-native.

Assumption 1 requires each ``λ_i(φ)`` to be differentiable, strictly
decreasing in the utilization ``φ`` and to vanish as ``φ → ∞``: users obtain
less throughput the more congested the system is.

All families accept a scalar utilization or an ndarray of utilizations and
return a matching scalar or array; :class:`ThroughputTable` stacks a
market's throughput laws for single-shot ``(B, N)`` rate evaluation with a
closed-form fast path when every law is exponential.

* :class:`ExponentialThroughput` — ``λ(φ) = λ(0)·e^{−βφ}``, the paper's
  numerical family. Its φ-elasticity is the closed form ``ε^λ_φ = −βφ``
  used throughout §3–§5.
* :class:`PowerLawThroughput` — ``λ(φ) = λ(0)/(1 + φ)^β``, heavier tail.
* :class:`RationalThroughput` — ``λ(φ) = λ(0)/(1 + βφ)``, the TCP-like
  inverse-congestion law.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from repro.backend import dispatch, ops
from repro.exceptions import ModelError

__all__ = [
    "ThroughputFunction",
    "ThroughputTable",
    "ExponentialThroughput",
    "PowerLawThroughput",
    "RationalThroughput",
]


def _is_scalar(x) -> bool:
    """Whether ``x`` should take the scalar ``math`` fast path."""
    return isinstance(x, (int, float))


class ThroughputFunction(ABC):
    """Interface for per-user throughput as a function of utilization.

    All methods accept either a scalar utilization or an ndarray and return
    a matching scalar or ndarray.
    """

    @abstractmethod
    def rate(self, phi):
        """Per-user throughput ``λ(φ)`` at utilization ``φ ≥ 0``."""

    @abstractmethod
    def d_rate(self, phi):
        """Derivative ``dλ/dφ`` (strictly negative under Assumption 1)."""

    def elasticity(self, phi):
        """φ-elasticity of throughput ``ε^λ_φ = (dλ/dφ)·(φ/λ)`` (Def. 2).

        This is the congestion-sensitivity measure entering condition (7)
        of Theorem 2 and the threshold ``τ_i`` of Theorem 3.
        """
        lam = self.rate(phi)
        if _is_scalar(phi):
            if lam == 0.0:
                return float("-inf")
            return self.d_rate(phi) * phi / lam
        phi = np.asarray(phi, dtype=float)
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(lam == 0.0, -np.inf, self.d_rate(phi) * phi / lam)

    def peak_rate(self) -> float:
        """Uncongested throughput ``λ(0)``."""
        return self.rate(0.0)

    @staticmethod
    def _require_utilization(phi) -> None:
        if _is_scalar(phi):
            if phi < 0.0 or math.isnan(phi):
                raise ModelError(f"utilization must be non-negative, got {phi}")
        elif np.any(np.asarray(phi) < 0.0) or np.any(np.isnan(np.asarray(phi))):
            raise ModelError(f"utilization must be non-negative, got {phi}")


@dataclass(frozen=True)
class ExponentialThroughput(ThroughputFunction):
    """Exponential congestion decay ``λ(φ) = peak·e^{−βφ}``.

    ``beta`` is the congestion sensitivity (the paper's ``β_i``); larger
    values mean user throughput collapses faster as the system loads up.
    φ-elasticity is exactly ``−βφ``.
    """

    beta: float
    peak: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ModelError(f"beta must be positive, got {self.beta}")
        if self.peak <= 0.0:
            raise ModelError(f"peak rate must be positive, got {self.peak}")

    def rate(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return self.peak * math.exp(-self.beta * phi)
        return self.peak * ops.exp(-self.beta * np.asarray(phi, dtype=float))

    def d_rate(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return -self.beta * self.peak * math.exp(-self.beta * phi)
        return -self.beta * self.rate(phi)

    def elasticity(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return -self.beta * phi
        return -self.beta * np.asarray(phi, dtype=float)

    def with_peak(self, peak: float) -> "ExponentialThroughput":
        """Copy with a different uncongested rate (used by Lemma 2 rescaling)."""
        return ExponentialThroughput(beta=self.beta, peak=peak)


@dataclass(frozen=True)
class PowerLawThroughput(ThroughputFunction):
    """Power-law decay ``λ(φ) = peak·(1 + φ)^{−β}``.

    Decays slower than exponential at high utilization; its elasticity
    ``−βφ/(1 + φ)`` saturates at ``−β`` instead of growing without bound.
    """

    beta: float
    peak: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ModelError(f"beta must be positive, got {self.beta}")
        if self.peak <= 0.0:
            raise ModelError(f"peak rate must be positive, got {self.peak}")

    def rate(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return self.peak * (1.0 + phi) ** (-self.beta)
        return self.peak * (1.0 + np.asarray(phi, dtype=float)) ** (-self.beta)

    def d_rate(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return -self.beta * self.peak * (1.0 + phi) ** (-self.beta - 1.0)
        phi = np.asarray(phi, dtype=float)
        return -self.beta * self.peak * (1.0 + phi) ** (-self.beta - 1.0)

    def elasticity(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return -self.beta * phi / (1.0 + phi)
        phi = np.asarray(phi, dtype=float)
        return -self.beta * phi / (1.0 + phi)

    def with_peak(self, peak: float) -> "PowerLawThroughput":
        """Copy with a different uncongested rate (used by Lemma 2 rescaling)."""
        return PowerLawThroughput(beta=self.beta, peak=peak)


@dataclass(frozen=True)
class RationalThroughput(ThroughputFunction):
    """Inverse-congestion law ``λ(φ) = peak/(1 + βφ)``.

    The hyperbolic decay characteristic of rate-fair congestion control:
    per-user rate inversely proportional to (an affine function of) load.
    """

    beta: float
    peak: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ModelError(f"beta must be positive, got {self.beta}")
        if self.peak <= 0.0:
            raise ModelError(f"peak rate must be positive, got {self.peak}")

    def rate(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return self.peak / (1.0 + self.beta * phi)
        return self.peak / (1.0 + self.beta * np.asarray(phi, dtype=float))

    def d_rate(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return -self.beta * self.peak / (1.0 + self.beta * phi) ** 2
        phi = np.asarray(phi, dtype=float)
        return -self.beta * self.peak / (1.0 + self.beta * phi) ** 2

    def elasticity(self, phi):
        self._require_utilization(phi)
        if _is_scalar(phi):
            return -self.beta * phi / (1.0 + self.beta * phi)
        phi = np.asarray(phi, dtype=float)
        return -self.beta * phi / (1.0 + self.beta * phi)

    def with_peak(self, peak: float) -> "RationalThroughput":
        """Copy with a different uncongested rate (used by Lemma 2 rescaling)."""
        return RationalThroughput(beta=self.beta, peak=peak)


#: Fused-kernel tag per family; every family's row is ``(beta, peak)``.
_KERNEL_TAGS = {
    ExponentialThroughput: dispatch.RATE_EXPONENTIAL,
    PowerLawThroughput: dispatch.RATE_POWER,
    RationalThroughput: dispatch.RATE_RATIONAL,
}


def _kernel_columns(
    throughputs: Sequence[ThroughputFunction],
) -> tuple[np.ndarray, np.ndarray] | None:
    tags = [_KERNEL_TAGS.get(type(fn)) for fn in throughputs]
    if None in tags:
        return None
    params = np.array([[fn.beta, fn.peak] for fn in throughputs])
    return np.array(tags, dtype=np.int64), params


class ThroughputTable:
    """Stacked rate evaluation for a fixed list of throughput laws.

    The batched congestion solver evaluates all ``N`` classes' rates at a
    ``(B,)`` utilization vector every iteration; this table turns that into
    one ``(B, N)`` matrix operation. When every law is an
    :class:`ExponentialThroughput` the whole matrix is a single ``np.exp``
    of an outer product (bitwise identical to the per-law array path);
    otherwise each column dispatches to its law's own array-native methods.
    """

    def __init__(self, throughputs: Sequence[ThroughputFunction]) -> None:
        self._throughputs: tuple[ThroughputFunction, ...] = tuple(throughputs)
        if not self._throughputs:
            raise ModelError("a throughput table needs at least one law")
        self._exponential = all(
            type(fn) is ExponentialThroughput for fn in self._throughputs
        )
        if self._exponential:
            self._betas = np.array([fn.beta for fn in self._throughputs])
            self._peaks = np.array([fn.peak for fn in self._throughputs])
        self._kernel_columns: tuple[np.ndarray, np.ndarray] | None | bool = (
            False  # False = not computed yet
        )

    @property
    def size(self) -> int:
        """Number of columns (throughput laws)."""
        return len(self._throughputs)

    @property
    def throughputs(self) -> tuple[ThroughputFunction, ...]:
        """The underlying laws, in column order."""
        return self._throughputs

    def kernel_columns(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Fused-kernel family tags and parameters, or ``None``.

        Returns ``(tags, params)``: an ``int64`` tag per column and an
        ``(N, 2)`` matrix of ``(beta, peak)`` rows (see
        :mod:`repro.backend.dispatch`), or ``None`` if any column is not
        exactly one of the three built-in families. Computed once and
        cached.
        """
        if self._kernel_columns is False:
            self._kernel_columns = _kernel_columns(self._throughputs)
        return self._kernel_columns

    def rates(self, phi: np.ndarray) -> np.ndarray:
        """Rates ``λ_i(φ_b)`` as a ``(B, N)`` matrix for ``φ`` of shape ``(B,)``."""
        phi = np.asarray(phi, dtype=float)
        if self._exponential:
            return self._peaks * ops.exp(-self._betas * phi[:, None])
        return np.stack([fn.rate(phi) for fn in self._throughputs], axis=1)

    def d_rates(self, phi: np.ndarray) -> np.ndarray:
        """Derivatives ``λ'_i(φ_b)`` as a ``(B, N)`` matrix."""
        phi = np.asarray(phi, dtype=float)
        if self._exponential:
            return -self._betas * self.rates(phi)
        return np.stack([fn.d_rate(phi) for fn in self._throughputs], axis=1)
