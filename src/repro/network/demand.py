"""User-population demand families ``m(t)`` (Assumption 2) — array-native.

Assumption 2 requires ``m_i(t_i)`` — the population of CP ``i``'s users as a
function of the *effective* per-unit usage price ``t_i = p − s_i`` — to be
continuously differentiable, decreasing, with ``m(t) → 0`` as ``t → ∞``.

Because a CP's subsidy may exceed the ISP price, demand functions must accept
*negative* effective prices (users are then paid to consume; demand exceeds
the ``t = 0`` level). All families below are defined on the whole real line.

Every family is **array-native**: ``population``, ``d_population`` and
``elasticity`` accept a scalar or a NumPy array of effective prices and
return a matching scalar or array, so a whole subsidy profile — or a whole
``(B, N)`` batch of profiles — evaluates in one call. Scalar calls keep the
cheap ``math``-based fast path; array calls broadcast through ``numpy``.
:class:`DemandTable` stacks the demand functions of a market column-wise for
single-shot ``(B, N)`` evaluation, with a closed-form fast path when every
column is exponential (the batched demand-collection idiom).

* :class:`ExponentialDemand` — ``m(t) = scale·e^{−αt}``, the paper's family;
  t-elasticity is the closed form ``−αt``.
* :class:`LogitDemand` — ``m(t) = scale/(1 + e^{α(t − t₀)})``, a saturating
  population with a finite user base.
* :class:`LinearDemand` — ``m(t) = max(0, base − slope·t)``, the textbook
  linear demand (smoothly clamped near zero to preserve differentiability).
* :class:`ShiftedPowerDemand` — ``m(t) = scale·(1 + softplus(t))^{−α}``,
  a heavy-tail alternative; see class docstring.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.backend import dispatch, ops
from repro.exceptions import ModelError

__all__ = [
    "DemandFunction",
    "DemandTable",
    "ExponentialDemand",
    "LogitDemand",
    "LinearDemand",
    "ScaledDemand",
    "ShiftedPowerDemand",
]

#: Exponent magnitude beyond which ``e^z`` over/underflows a float64.
_EXP_LIMIT = 700.0


def _is_scalar(x) -> bool:
    """Whether ``x`` should take the scalar ``math`` fast path."""
    return isinstance(x, (int, float))


class DemandFunction(ABC):
    """Interface for user-population demand versus effective price.

    All methods accept either a scalar effective price or an ndarray of
    prices and return a matching scalar or ndarray.
    """

    @abstractmethod
    def population(self, price):
        """Population ``m(t)`` at effective per-unit price ``t`` (any real)."""

    @abstractmethod
    def d_population(self, price):
        """Derivative ``dm/dt`` (non-positive under Assumption 2)."""

    def elasticity(self, price):
        """t-elasticity of demand ``ε^m_t = (dm/dt)·(t/m)`` (Definition 2)."""
        m = self.population(price)
        if _is_scalar(price):
            if m == 0.0:
                return float("-inf")
            return self.d_population(price) * price / m
        price = np.asarray(price, dtype=float)
        m = np.asarray(m, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                m == 0.0, -np.inf, self.d_population(price) * price / m
            )
        return out


@dataclass(frozen=True)
class ExponentialDemand(DemandFunction):
    """Exponential demand ``m(t) = scale·e^{−αt}`` (the paper's family).

    ``alpha`` is the price sensitivity (the paper's ``α_i``). Elasticity is
    exactly ``−αt``. Defined for all real ``t``; a negative effective price
    (subsidy above the ISP price) yields population above ``scale``.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ModelError(f"alpha must be positive, got {self.alpha}")
        if self.scale <= 0.0:
            raise ModelError(f"scale must be positive, got {self.scale}")

    def population(self, price):
        if _is_scalar(price):
            return self.scale * math.exp(-self.alpha * price)
        return self.scale * ops.exp(-self.alpha * np.asarray(price, dtype=float))

    def d_population(self, price):
        if _is_scalar(price):
            return -self.alpha * self.scale * math.exp(-self.alpha * price)
        return -self.alpha * self.population(price)

    def elasticity(self, price):
        if _is_scalar(price):
            return -self.alpha * price
        return -self.alpha * np.asarray(price, dtype=float)


@dataclass(frozen=True)
class LogitDemand(DemandFunction):
    """Logit demand ``m(t) = scale/(1 + e^{α(t − midpoint)})``.

    Models a finite addressable user base ``scale``: essentially everyone
    subscribes at deeply subsidized prices, essentially nobody at prices far
    above ``midpoint``. Strictly decreasing and smooth on all of ℝ.
    """

    alpha: float
    midpoint: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ModelError(f"alpha must be positive, got {self.alpha}")
        if self.scale <= 0.0:
            raise ModelError(f"scale must be positive, got {self.scale}")

    def population(self, price):
        if _is_scalar(price):
            z = self.alpha * (price - self.midpoint)
            # Guard exp overflow for very large prices.
            if z > _EXP_LIMIT:
                return 0.0
            return self.scale / (1.0 + math.exp(z))
        z = self.alpha * (np.asarray(price, dtype=float) - self.midpoint)
        overflow = z > _EXP_LIMIT
        safe = np.where(overflow, 0.0, z)
        return np.where(overflow, 0.0, self.scale / (1.0 + np.exp(safe)))

    def d_population(self, price):
        if _is_scalar(price):
            z = self.alpha * (price - self.midpoint)
            if abs(z) > _EXP_LIMIT:
                return 0.0
            ez = math.exp(z)
            return -self.alpha * self.scale * ez / (1.0 + ez) ** 2
        z = self.alpha * (np.asarray(price, dtype=float) - self.midpoint)
        overflow = np.abs(z) > _EXP_LIMIT
        ez = np.exp(np.where(overflow, 0.0, z))
        return np.where(
            overflow, 0.0, -self.alpha * self.scale * ez / (1.0 + ez) ** 2
        )


@dataclass(frozen=True)
class LinearDemand(DemandFunction):
    """Linear demand ``m(t) = base − slope·t``, smoothly clamped at zero.

    The hard kink of ``max(0, ·)`` would violate Assumption 2's
    differentiability exactly where solvers probe, so below population level
    ``smoothing`` the line is replaced by an exponential tail matched in
    value and slope at the switch point. The tail keeps ``m`` positive,
    decreasing and C¹ while converging to 0 as ``t → ∞``.
    """

    base: float
    slope: float
    smoothing: float = 1e-3

    def __post_init__(self) -> None:
        if self.base <= 0.0:
            raise ModelError(f"base must be positive, got {self.base}")
        if self.slope <= 0.0:
            raise ModelError(f"slope must be positive, got {self.slope}")
        if not 0.0 < self.smoothing < self.base:
            raise ModelError(
                f"smoothing must lie in (0, base), got {self.smoothing}"
            )

    def _switch_price(self) -> float:
        """Price at which the line reaches the smoothing level."""
        return (self.base - self.smoothing) / self.slope

    def population(self, price):
        t_star = self._switch_price()
        if _is_scalar(price):
            if price <= t_star:
                return self.base - self.slope * price
            # Exponential tail m = smoothing·exp(−slope·(t − t*)/smoothing):
            # value and first derivative match the line at t*.
            return self.smoothing * math.exp(
                -self.slope * (price - t_star) / self.smoothing
            )
        price = np.asarray(price, dtype=float)
        exponent = np.minimum(-self.slope * (price - t_star) / self.smoothing, 0.0)
        return np.where(
            price <= t_star,
            self.base - self.slope * price,
            self.smoothing * np.exp(exponent),
        )

    def d_population(self, price):
        t_star = self._switch_price()
        if _is_scalar(price):
            if price <= t_star:
                return -self.slope
            return -self.slope * math.exp(
                -self.slope * (price - t_star) / self.smoothing
            )
        price = np.asarray(price, dtype=float)
        exponent = np.minimum(-self.slope * (price - t_star) / self.smoothing, 0.0)
        return np.where(
            price <= t_star, -self.slope, -self.slope * np.exp(exponent)
        )


@dataclass(frozen=True)
class ShiftedPowerDemand(DemandFunction):
    """Heavy-tailed demand ``m(t) = scale·(1 + softplus(t))^{−α}``.

    ``softplus(t) = log(1 + e^t)`` maps ℝ onto (0, ∞) smoothly, so the
    composite is defined for all real prices, strictly decreasing, and decays
    like ``t^{−α}`` for large ``t`` — much slower than the exponential
    family. Captures markets with a long tail of price-insensitive users.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ModelError(f"alpha must be positive, got {self.alpha}")
        if self.scale <= 0.0:
            raise ModelError(f"scale must be positive, got {self.scale}")

    @staticmethod
    def _softplus(t):
        if _is_scalar(t):
            if t > _EXP_LIMIT:
                return t
            return math.log1p(math.exp(t))
        t = np.asarray(t, dtype=float)
        return np.where(
            t > _EXP_LIMIT, t, np.log1p(np.exp(np.minimum(t, _EXP_LIMIT)))
        )

    @staticmethod
    def _sigmoid(t):
        if _is_scalar(t):
            if t >= 0.0:
                z = math.exp(-t)
                return 1.0 / (1.0 + z)
            z = math.exp(t)
            return z / (1.0 + z)
        t = np.asarray(t, dtype=float)
        z_neg = np.exp(np.minimum(-np.abs(t), 0.0))
        return np.where(t >= 0.0, 1.0 / (1.0 + z_neg), z_neg / (1.0 + z_neg))

    def population(self, price):
        return self.scale * (1.0 + self._softplus(price)) ** (-self.alpha)

    def d_population(self, price):
        sp = self._softplus(price)
        return (
            -self.alpha
            * self.scale
            * (1.0 + sp) ** (-self.alpha - 1.0)
            * self._sigmoid(price)
        )


@dataclass(frozen=True)
class ScaledDemand(DemandFunction):
    """A demand function multiplied by a constant market-share weight.

    Used by the ISP-competition extension: when a fraction ``weight`` of
    the user base subscribes to a given access ISP, each CP's demand on
    that ISP is the base demand scaled by that share. Elasticities are
    unchanged (the weight cancels), which is why the per-ISP subsidization
    games decouple given the shares.
    """

    inner: DemandFunction
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight or not math.isfinite(self.weight):
            raise ModelError(f"weight must be finite and non-negative, got {self.weight}")

    def population(self, price):
        return self.weight * self.inner.population(price)

    def d_population(self, price):
        return self.weight * self.inner.d_population(price)


#: Fused-kernel tag and parameter row (without the weight) per family.
_KERNEL_FAMILIES = {
    ExponentialDemand: lambda d: (
        dispatch.DEMAND_EXPONENTIAL, (d.alpha, d.scale)
    ),
    LogitDemand: lambda d: (
        dispatch.DEMAND_LOGIT, (d.alpha, d.midpoint, d.scale)
    ),
    LinearDemand: lambda d: (
        dispatch.DEMAND_LINEAR,
        (d.base, d.slope, d.smoothing, d._switch_price()),
    ),
    ShiftedPowerDemand: lambda d: (dispatch.DEMAND_POWER, (d.alpha, d.scale)),
}


def _kernel_columns(
    demands: Sequence[DemandFunction],
) -> tuple[np.ndarray, np.ndarray] | None:
    tags = np.empty(len(demands), dtype=np.int64)
    params = np.zeros((len(demands), dispatch.DEMAND_WIDTH))
    for i, d in enumerate(demands):
        weight = 1.0
        if type(d) is ScaledDemand:
            weight = d.weight
            d = d.inner
        family = _KERNEL_FAMILIES.get(type(d))
        if family is None:
            return None
        tag, row = family(d)
        tags[i] = tag
        params[i, : len(row)] = row
        params[i, -1] = weight
    return tags, params


class DemandTable:
    """Column-stacked demand evaluation for a fixed list of demand laws.

    Given the ``N`` demand functions of a market, evaluates populations and
    their price derivatives for a whole ``(B, N)`` matrix of effective
    prices in one shot. When every column is an :class:`ExponentialDemand`
    the closed form ``m = scale·e^{−α t}``, ``m' = −α·m`` evaluates with a
    single ``np.exp`` over the matrix; otherwise each column dispatches to
    its function's own array-native methods.
    """

    def __init__(self, demands: Sequence[DemandFunction]) -> None:
        self._demands: tuple[DemandFunction, ...] = tuple(demands)
        if not self._demands:
            raise ModelError("a demand table needs at least one demand function")
        self._exponential = all(
            type(d) is ExponentialDemand for d in self._demands
        )
        if self._exponential:
            self._alphas = np.array([d.alpha for d in self._demands])
            self._scales = np.array([d.scale for d in self._demands])
        self._kernel_columns: tuple[np.ndarray, np.ndarray] | None | bool = (
            False  # False = not computed yet
        )

    @property
    def size(self) -> int:
        """Number of columns (demand functions)."""
        return len(self._demands)

    @property
    def demands(self) -> tuple[DemandFunction, ...]:
        """The underlying demand functions, in column order."""
        return self._demands

    def kernel_columns(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Fused-kernel family tags and parameters, or ``None``.

        Returns ``(tags, params)``: an ``int64`` tag per column and a
        ``(N, DEMAND_WIDTH)`` float matrix laid out as in
        :mod:`repro.backend.dispatch`. A column qualifies if it is exactly
        one of the four built-in families, or one :class:`ScaledDemand`
        level over one (its weight fills the last slot; bare columns
        carry ``1.0``). Computed once and cached.
        """
        if self._kernel_columns is False:
            self._kernel_columns = _kernel_columns(self._demands)
        return self._kernel_columns

    def _columns(self, method: str, prices: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                getattr(d, method)(prices[..., i])
                for i, d in enumerate(self._demands)
            ],
            axis=-1,
        )

    def populations(self, prices) -> np.ndarray:
        """Populations ``m_i(t_{b,i})`` for a ``(..., N)`` price matrix."""
        prices = np.asarray(prices, dtype=float)
        if self._exponential:
            return self._scales * ops.exp(-self._alphas * prices)
        return self._columns("population", prices)

    def d_populations(self, prices) -> np.ndarray:
        """Derivatives ``m'_i(t_{b,i})`` for a ``(..., N)`` price matrix."""
        prices = np.asarray(prices, dtype=float)
        if self._exponential:
            return -self._alphas * self.populations(prices)
        return self._columns("d_population", prices)
