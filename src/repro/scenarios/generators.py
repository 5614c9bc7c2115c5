"""Parameterized scenario generators: beyond the paper's two markets.

The paper evaluates two hand-built markets (9 and 8 CP types). By Lemma 2
every "type" is an aggregate of CPs with similar traffic characteristics,
so nothing stops the same machinery running markets of arbitrary size and
heterogeneity. This module generates them:

* :func:`scaled_market` — a deterministic large-N lattice over the
  ``(α, β)`` sensitivity plane, total demand held constant so the
  congestion operating point stays comparable as ``n_types`` grows from
  8 to thousands (the Lemma 2 dis-aggregation story).
* :func:`random_market` — a seeded heterogeneous population drawing every
  CP's demand family, throughput family, parameters and profitability at
  random over all families in :mod:`repro.network`. Same seed, same
  market — the seed is recorded in the spec metadata and survives the
  ``repro-scenario/1`` round trip.
* :func:`capacity_variant` / :func:`utilization_variant` — derived
  scenarios swapping the ISP's capacity or utilization metric while
  keeping the CP population, with lineage recorded in metadata.

A few canonical instances (``scaled-64``, ``scaled-256``, ``scaled-1024``,
``random-12``) are registered for direct CLI use.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
# NumPy loads ``np.random`` lazily; load it with this module so a
# campaign does not pay for it inside its first generated market.
import numpy.random  # noqa: F401

from repro.exceptions import ModelError
from repro.network.demand import (
    DemandFunction,
    ExponentialDemand,
    LinearDemand,
    LogitDemand,
    ScaledDemand,
    ShiftedPowerDemand,
)
from repro.network.throughput import (
    ExponentialThroughput,
    PowerLawThroughput,
    RationalThroughput,
    ThroughputFunction,
)
from repro.network.utilization import UtilizationFunction
from repro.providers.content_provider import ContentProvider, exponential_cp
from repro.providers.isp import AccessISP
from repro.providers.market import Market
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.trajectory import Shock, dynamics_settings

__all__ = [
    "DEMAND_FAMILIES",
    "THROUGHPUT_FAMILIES",
    "scaled_market",
    "random_market",
    "capacity_variant",
    "utilization_variant",
    "oligopoly",
    "trajectory_variant",
    "shocked_market",
]

#: Default sweep axis for generated scenarios: the paper's range, thinned.
_GENERATOR_PRICES: tuple[float, ...] = tuple(
    float(x) for x in np.round(np.linspace(0.0, 2.0, 21), 10)
)

#: Demand families :func:`random_market` can draw from.
DEMAND_FAMILIES: tuple[str, ...] = ("exponential", "logit", "linear", "power")

#: Throughput families :func:`random_market` can draw from.
THROUGHPUT_FAMILIES: tuple[str, ...] = ("exponential", "power", "rational")


def scaled_market(
    n_types: int,
    *,
    price: float = 1.0,
    capacity: float = 1.0,
    total_demand: float = 1.0,
    alpha_span: tuple[float, float] = (1.0, 5.0),
    beta_span: tuple[float, float] = (1.0, 5.0),
    value_levels: Sequence[float] = (0.5, 1.0),
    prices: Sequence[float] | None = None,
    policy_levels: Sequence[float] = (0.0, 0.5, 1.0),
    scenario_id: str | None = None,
) -> ScenarioSpec:
    """A deterministic ``n_types``-CP market on the ``(α, β)`` lattice.

    CP ``i`` sits on a ``⌈√n⌉ × ⌈√n⌉`` grid over ``alpha_span × beta_span``
    (row-major, first ``n_types`` nodes), with profitability cycling over
    ``value_levels`` and per-CP demand scale ``total_demand / n_types`` so
    aggregate demand — and hence the congestion operating point — is
    invariant in ``n_types``. This is the stress family for the engine:
    the same scenario shape from 8 CPs to thousands.
    """
    if n_types < 1:
        raise ModelError(f"n_types must be at least 1, got {n_types}")
    if total_demand <= 0.0:
        raise ModelError(f"total_demand must be positive, got {total_demand}")
    if not value_levels:
        raise ModelError("value_levels must be non-empty")
    side = math.ceil(math.sqrt(n_types))
    alphas = np.linspace(alpha_span[0], alpha_span[1], side)
    betas = np.linspace(beta_span[0], beta_span[1], side)
    scale = total_demand / n_types
    providers = []
    for i in range(n_types):
        alpha = float(alphas[i // side])
        beta = float(betas[i % side])
        value = float(value_levels[i % len(value_levels)])
        providers.append(
            exponential_cp(
                alpha,
                beta,
                value=value,
                demand_scale=scale,
                name=f"cp{i:04d}-a{alpha:.3g}b{beta:.3g}",
            )
        )
    spec_id = scenario_id if scenario_id is not None else f"scaled-{n_types}"
    return ScenarioSpec(
        scenario_id=spec_id,
        title=f"Scaled lattice market: {n_types} exponential CP types",
        market=Market(providers, AccessISP(price=price, capacity=capacity)),
        prices=tuple(prices) if prices is not None else _GENERATOR_PRICES,
        policy_levels=tuple(policy_levels),
        metadata={
            "generator": "scaled_market",
            "n_types": n_types,
            "total_demand": total_demand,
            "alpha_span": list(alpha_span),
            "beta_span": list(beta_span),
            "value_levels": [float(v) for v in value_levels],
        },
    )


def _draw_demand(
    rng: np.random.Generator,
    family: str,
    scale: float,
    alpha_span: tuple[float, float],
) -> DemandFunction:
    alpha = float(rng.uniform(*alpha_span))
    if family == "exponential":
        return ExponentialDemand(alpha=alpha, scale=scale)
    if family == "logit":
        return LogitDemand(
            alpha=alpha, midpoint=float(rng.uniform(0.4, 1.2)), scale=scale
        )
    if family == "linear":
        # Choose the slope so the line hits zero at a price in [1.5, 3].
        slope = scale / float(rng.uniform(1.5, 3.0))
        return LinearDemand(
            base=scale, slope=slope, smoothing=min(1e-3, scale / 10.0)
        )
    if family == "power":
        return ShiftedPowerDemand(alpha=float(rng.uniform(1.0, 4.0)), scale=scale)
    raise ModelError(
        f"unknown demand family {family!r}; choose from {DEMAND_FAMILIES}"
    )


def _draw_throughput(
    rng: np.random.Generator, family: str, beta_span: tuple[float, float]
) -> ThroughputFunction:
    beta = float(rng.uniform(*beta_span))
    peak = float(rng.uniform(0.8, 1.2))
    if family == "exponential":
        return ExponentialThroughput(beta=beta, peak=peak)
    if family == "power":
        return PowerLawThroughput(beta=beta, peak=peak)
    if family == "rational":
        return RationalThroughput(beta=beta, peak=peak)
    raise ModelError(
        f"unknown throughput family {family!r}; choose from {THROUGHPUT_FAMILIES}"
    )


def random_market(
    seed: int,
    n_types: int = 8,
    *,
    families: Sequence[str] = DEMAND_FAMILIES,
    throughput_families: Sequence[str] = THROUGHPUT_FAMILIES,
    scaled_share: float = 0.25,
    value_range: tuple[float, float] = (0.0, 1.0),
    alpha_span: tuple[float, float] = (1.0, 5.0),
    beta_span: tuple[float, float] = (1.0, 5.0),
    price: float = 1.0,
    capacity: float = 1.0,
    total_demand: float = 1.0,
    prices: Sequence[float] | None = None,
    policy_levels: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    scenario_id: str | None = None,
) -> ScenarioSpec:
    """A seeded heterogeneous CP population over all functional families.

    Every CP draws a demand family from ``families`` (with probability
    ``scaled_share`` additionally wrapped in :class:`ScaledDemand`, the
    market-share wrapper — exercising nested serialization), a throughput
    family from ``throughput_families``, parameters within the given spans
    and a profitability in ``value_range``. The construction is a pure
    function of the arguments: the same ``seed`` rebuilds the same market,
    and the seed is recorded in metadata so a round-tripped scenario keeps
    its provenance.
    """
    if n_types < 1:
        raise ModelError(f"n_types must be at least 1, got {n_types}")
    if not families:
        raise ModelError("families must be non-empty")
    if not throughput_families:
        raise ModelError("throughput_families must be non-empty")
    if not 0.0 <= scaled_share <= 1.0:
        raise ModelError(f"scaled_share must lie in [0, 1], got {scaled_share}")
    rng = np.random.default_rng(seed)
    providers = []
    for i in range(n_types):
        family = str(families[int(rng.integers(len(families)))])
        tfamily = str(
            throughput_families[int(rng.integers(len(throughput_families)))]
        )
        scale = total_demand / n_types * float(rng.uniform(0.5, 1.5))
        demand = _draw_demand(rng, family, scale, alpha_span)
        if rng.random() < scaled_share:
            demand = ScaledDemand(demand, weight=float(rng.uniform(0.3, 0.9)))
        providers.append(
            ContentProvider(
                demand=demand,
                throughput=_draw_throughput(rng, tfamily, beta_span),
                value=float(rng.uniform(*value_range)),
                name=f"cp{i:03d}-{family}-{tfamily}",
            )
        )
    spec_id = scenario_id if scenario_id is not None else f"random-{n_types}-s{seed}"
    return ScenarioSpec(
        scenario_id=spec_id,
        title=f"Random heterogeneous market: {n_types} CP types (seed {seed})",
        market=Market(providers, AccessISP(price=price, capacity=capacity)),
        prices=tuple(prices) if prices is not None else _GENERATOR_PRICES,
        policy_levels=tuple(policy_levels),
        metadata={
            "generator": "random_market",
            "seed": int(seed),
            "n_types": n_types,
            "families": [str(f) for f in families],
            "throughput_families": [str(f) for f in throughput_families],
            "scaled_share": scaled_share,
            "value_range": list(value_range),
            "total_demand": total_demand,
        },
    )


def _derived(
    base: ScenarioSpec,
    isp: AccessISP,
    *,
    scenario_id: str,
    title: str,
    extra_metadata: dict,
) -> ScenarioSpec:
    metadata = dict(base.metadata)
    metadata.update(extra_metadata)
    metadata["variant_of"] = base.scenario_id
    return ScenarioSpec(
        scenario_id=scenario_id,
        title=title,
        market=Market(base.market.providers, isp),
        prices=base.prices,
        policy_levels=base.policy_levels,
        metadata=metadata,
    )


def capacity_variant(
    base: ScenarioSpec, capacity: float, *, scenario_id: str | None = None
) -> ScenarioSpec:
    """The same scenario under a different access capacity ``µ``."""
    isp = base.market.isp.with_capacity(capacity)
    return _derived(
        base,
        isp,
        scenario_id=scenario_id
        if scenario_id is not None
        else f"{base.scenario_id}-mu{capacity:g}",
        title=f"{base.title} at capacity {capacity:g}",
        extra_metadata={"capacity": float(capacity)},
    )


def utilization_variant(
    base: ScenarioSpec,
    utilization: UtilizationFunction,
    *,
    scenario_id: str | None = None,
) -> ScenarioSpec:
    """The same scenario under a different utilization metric ``Φ``."""
    old = base.market.isp
    isp = AccessISP(
        price=old.price,
        capacity=old.capacity,
        utilization=utilization,
        name=old.name,
    )
    metric = type(utilization).__name__
    return _derived(
        base,
        isp,
        scenario_id=scenario_id
        if scenario_id is not None
        else f"{base.scenario_id}-{metric.lower()}",
        title=f"{base.title} under {metric}",
        extra_metadata={"utilization": metric},
    )


def oligopoly(
    base: ScenarioSpec,
    carriers: int,
    *,
    switching: float = 2.0,
    cap: float = 0.0,
    split_capacity: bool = True,
    iteration_mode: str = "gauss-seidel",
    scenario_id: str | None = None,
) -> ScenarioSpec:
    """An N-carrier competition scenario over ``base``'s CP population.

    The market itself is unchanged — its ISP becomes the per-carrier
    *template*: :meth:`repro.competition.OligopolyGame.from_scenario`
    replicates it ``carriers`` times, splitting the access capacity evenly
    when ``split_capacity`` holds (so total industry capacity — and hence
    the congestion operating point under equal shares — is invariant in
    ``N``, mirroring the :func:`scaled_market` invariance story on the
    carrier axis). Competition parameters (``switching`` sensitivity σ,
    subsidization ``cap`` q, the ``iteration_mode`` of the damped
    best-response iteration) are recorded as metadata alongside the
    lineage (``variant_of``), so the scenario round-trips through
    ``repro-scenario/1`` with its full provenance and the CLI's
    ``oligopoly`` verb can rebuild the exact game from the file.
    """
    if carriers < 1:
        raise ModelError(f"carriers must be at least 1, got {carriers}")
    if switching < 0.0 or not np.isfinite(switching):
        raise ModelError(
            f"switching must be finite and non-negative, got {switching}"
        )
    if cap < 0.0 or not np.isfinite(cap):
        raise ModelError(f"cap must be finite and non-negative, got {cap}")
    if iteration_mode not in ("gauss-seidel", "jacobi"):
        raise ModelError(
            f"iteration_mode must be 'gauss-seidel' or 'jacobi', "
            f"got {iteration_mode!r}"
        )
    metadata = dict(base.metadata)
    metadata.update(
        {
            "generator": "oligopoly",
            "carriers": int(carriers),
            "switching": float(switching),
            "cap": float(cap),
            "split_capacity": bool(split_capacity),
            "iteration_mode": str(iteration_mode),
            "variant_of": base.scenario_id,
        }
    )
    return ScenarioSpec(
        scenario_id=scenario_id
        if scenario_id is not None
        else f"{base.scenario_id}-oligopoly-{carriers}",
        title=f"{base.title} under {carriers}-carrier competition",
        market=base.market,
        prices=base.prices,
        policy_levels=base.policy_levels,
        metadata=metadata,
    )


def trajectory_variant(
    base: ScenarioSpec,
    *,
    scenario_id: str | None = None,
    **dynamics,
) -> ScenarioSpec:
    """A time-dynamics scenario over ``base``'s market.

    The market, axes and provenance are unchanged; a validated
    ``repro-dynamics/1`` block (see
    :class:`~repro.simulation.DynamicsSpec`) is recorded under
    ``metadata["dynamics"]`` so the ``dynamics`` sweep kind, the CLI's
    ``dynamics`` verb and a round-tripped scenario file all rebuild the
    exact trajectory. Keyword arguments override any block ``base``
    already carries, which falls back to the defaults — e.g.
    ``trajectory_variant(spec, kind="capacity", horizon=30)``.
    """
    dspec = dynamics_settings(base.metadata, overrides=dynamics)
    metadata = dict(base.metadata)
    metadata.update(
        {
            "generator": "trajectory_variant",
            "dynamics": dspec.to_metadata(),
            "variant_of": base.scenario_id,
        }
    )
    return ScenarioSpec(
        scenario_id=scenario_id
        if scenario_id is not None
        else f"{base.scenario_id}-dyn-{dspec.kind}-{dspec.horizon}",
        title=f"{base.title} over {dspec.horizon} {dspec.kind} period(s)",
        market=base.market,
        prices=base.prices,
        policy_levels=base.policy_levels,
        metadata=metadata,
    )


def shocked_market(
    base: ScenarioSpec,
    seed: int,
    *,
    n_shocks: int = 2,
    fields: Sequence[str] = ("capacity", "price"),
    scale_range: tuple[float, float] = (0.7, 1.3),
    scenario_id: str | None = None,
    **dynamics,
) -> ScenarioSpec:
    """A seeded shocked trajectory over ``base``'s market.

    Draws ``n_shocks`` multiplicative market shocks — landing step
    (distinct, within the horizon), shocked field and scale — from a
    seeded generator and records them in the scenario's
    ``repro-dynamics/1`` block. Same seed, same schedule: the seed is
    recorded in metadata and survives the scenario round trip, so a
    shocked trajectory is as pinnable as a
    :func:`random_market`. Keyword arguments configure the underlying
    trajectory exactly as in :func:`trajectory_variant`.
    """
    if n_shocks < 1:
        raise ModelError(f"n_shocks must be at least 1, got {n_shocks}")
    if not fields:
        raise ModelError("fields must be non-empty")
    if not 0.0 < scale_range[0] < scale_range[1]:
        raise ModelError(
            f"scale_range must be an increasing positive pair, "
            f"got {scale_range}"
        )
    dspec = dynamics_settings(base.metadata, overrides=dynamics)
    if n_shocks > dspec.horizon:
        raise ModelError(
            f"cannot place {n_shocks} shock(s) on distinct steps of a "
            f"{dspec.horizon}-period horizon"
        )
    rng = np.random.default_rng(seed)
    steps = rng.choice(np.arange(1, dspec.horizon + 1), size=n_shocks, replace=False)
    shocks = tuple(
        Shock(
            step=int(step),
            field=str(fields[int(rng.integers(len(fields)))]),
            scale=float(rng.uniform(*scale_range)),
        )
        for step in sorted(int(s) for s in steps)
    )
    dspec = dynamics_settings(
        base.metadata, overrides={**dynamics, "shocks": shocks}
    )
    metadata = dict(base.metadata)
    metadata.update(
        {
            "generator": "shocked_market",
            "seed": int(seed),
            "dynamics": dspec.to_metadata(),
            "variant_of": base.scenario_id,
        }
    )
    return ScenarioSpec(
        scenario_id=scenario_id
        if scenario_id is not None
        else f"{base.scenario_id}-shocked-s{seed}",
        title=f"{base.title} under {len(shocks)} seeded shock(s)",
        market=base.market,
        prices=base.prices,
        policy_levels=base.policy_levels,
        metadata=metadata,
    )


register_scenario(
    "scaled-64",
    lambda: scaled_market(
        64,
        prices=tuple(float(x) for x in np.round(np.linspace(0.0, 2.0, 9), 10)),
        policy_levels=(0.0, 0.5, 1.0),
        scenario_id="scaled-64",
    ),
    summary="64-CP lattice stress market (full subsidization grid)",
)
register_scenario(
    "scaled-256",
    lambda: scaled_market(
        256,
        prices=tuple(float(x) for x in np.round(np.linspace(0.0, 2.0, 9), 10)),
        policy_levels=(0.0, 1.0),
        scenario_id="scaled-256",
    ),
    summary="256-CP lattice stress market (regulated + q=1 rows)",
)
register_scenario(
    "scaled-1024",
    lambda: scaled_market(
        1024,
        prices=tuple(float(x) for x in np.round(np.linspace(0.0, 2.0, 9), 10)),
        policy_levels=(0.0,),
        scenario_id="scaled-1024",
    ),
    summary="1024-CP lattice stress market (regulated price sweep)",
)
register_scenario(
    "random-12",
    lambda: random_market(
        2014,
        12,
        policy_levels=(0.0, 1.0, 2.0),
        scenario_id="random-12",
    ),
    summary="12-CP seeded heterogeneous market over all families",
)


def _oligopoly4() -> ScenarioSpec:
    # Lazy import: repro.scenarios.paper loads after this module in the
    # package __init__, and reaches back through repro.experiments.
    from repro.scenarios.paper import section5_scenario

    return oligopoly(
        section5_scenario(), 4, cap=0.5, scenario_id="oligopoly-4"
    )


register_scenario(
    "oligopoly-4",
    _oligopoly4,
    summary="4-carrier oligopoly on the §5 market (capacity split evenly)",
)


def _dynamics20() -> ScenarioSpec:
    # Lazy import: repro.scenarios.paper loads after this module in the
    # package __init__, and reaches back through repro.experiments.
    from repro.scenarios.paper import section5_scenario

    return trajectory_variant(
        section5_scenario(),
        kind="capacity",
        horizon=20,
        cap=1.0,
        reinvestment_rate=0.25,
        scenario_id="dynamics-20",
    )


register_scenario(
    "dynamics-20",
    _dynamics20,
    summary="20-period capacity-expansion trajectory on the §5 market (q=1)",
)
