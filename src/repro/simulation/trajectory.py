"""Service-backed market trajectories: the time-dynamics subsystem.

The paper's equilibrium analysis is a snapshot; its economic story —
subsidization shifting demand, carriers expanding capacity, welfare
evolving under policy — is a *trajectory*. This module runs those
trajectories through the shared solve service the same way grids and
oligopoly competitions already do:

* a :class:`DynamicsSpec` declares the trajectory as *data* — the step
  policy (``"subsidies"``: §6 off-equilibrium best-response play;
  ``"capacity"``: the revenue → investment → capacity loop), the horizon,
  the capacity/investment rule and an optional :class:`Shock` schedule —
  and round-trips through scenario metadata as the versioned
  ``repro-dynamics/1`` block (:func:`repro.io.dynamics_from_dict`);
* :func:`run_trajectory` resolves the whole horizon as one content-keyed
  :class:`~repro.engine.service.SolveTask` (``dynamics/1``) on the
  :class:`~repro.engine.service.SolveService`, keyed on the market, the
  spec and the initial state, so a warm persistent store replays a
  trajectory with **zero** recomputed equilibrium solves — the counters
  the CLI's ``dynamics --json`` verb and the CI resume smoke assert;
* the per-step inner solves are vectorized: the ``"subsidies"`` kind
  resolves the congestion records of each shock-free window in one
  :meth:`~repro.network.system.CongestionSystem.solve_population_batch`
  call, and the ``"capacity"`` kind's per-period equilibria run through
  :func:`~repro.core.equilibrium.solve_equilibrium`'s batched sweep.

Because the task replays the exact straight-line recursion of
:class:`~repro.simulation.dynamics.MarketSimulation` (``"subsidies"``) or
of :func:`~repro.simulation.capacity.expansion_step` (``"capacity"``), a
store-round-tripped trajectory is **bitwise-identical** to the
straight-line loops and, up to its first shock, to
:meth:`MarketSimulation.run` — the tests in
``tests/simulation/test_trajectory.py`` hold this equality exactly against
frozen ``float.hex`` values.

Example — declare a five-period capacity trajectory and inspect its
canonical metadata block:

>>> from repro.simulation.trajectory import DynamicsSpec
>>> spec = DynamicsSpec(kind="capacity", horizon=5)
>>> block = spec.to_metadata()
>>> block["format"], block["horizon"]
('repro-dynamics/1', 5)
>>> DynamicsSpec.from_dict(block) == spec
True
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from repro.competition.oligopoly import whole_number
from repro.engine.cache import market_fingerprint
from repro.engine.service import SolveService, SolveTask, default_service
from repro.exceptions import ModelError
from repro.providers.content_provider import ContentProvider
from repro.providers.isp import AccessISP
from repro.providers.market import Market
from repro.simulation.agents import BestResponseStrategy
from repro.simulation.capacity import expansion_step, validate_expansion_params
from repro.simulation.dynamics import MarketSimulation, SimulationConfig
from repro.simulation.trace import DynamicsTrajectory

__all__ = [
    "DYNAMICS_FORMAT",
    "DYNAMICS_DEFAULTS",
    "Shock",
    "DynamicsSpec",
    "DynamicsTrajectory",
    "dynamics_settings",
    "run_trajectory",
    "solve_trajectory",
    "trajectory_task",
]

#: Format tag of the dynamics metadata block (``repro.io`` re-exports it).
DYNAMICS_FORMAT = "repro-dynamics/1"

#: Shockable market fields: the access capacity µ and the ISP price p.
_SHOCK_FIELDS = ("capacity", "price")

#: The float columns of a trajectory task's result, besides ``steps``.
_RECORD_COLUMNS = (
    "subsidies", "populations", "utilizations", "throughputs",
    "utilities", "revenues", "welfares", "capacities", "prices",
)

#: The trajectory parameter defaults, in one place: the spec constructor,
#: the metadata funnel and the CLI all resolve through
#: :func:`dynamics_settings`, so changing a default here changes it
#: everywhere (the keys double as the ``repro-dynamics/1`` field names).
DYNAMICS_DEFAULTS: Mapping[str, Any] = {
    "kind": "capacity",
    "horizon": 20,
    "cap": 0.0,
    "inertia": 1.0,
    "update": "sequential",
    "damping": 1.0,
    "reinvestment_rate": 0.2,
    "capacity_cost": 1.0,
    "depreciation": 0.0,
    "reoptimize_price": False,
    "price_range": (0.0, 3.0),
    "shocks": (),
}


def _positive_whole(name: str, value: Any) -> int:
    """``value`` as a positive ``int``: booleans, strings, NaN and
    fractions raise :class:`~repro.exceptions.ModelError`."""
    try:
        number = whole_number(name, value)
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    if number < 1:
        raise ModelError(f"{name} must be positive, got {number}")
    return number


@dataclass(frozen=True)
class Shock:
    """A multiplicative market disturbance landing at one trajectory step.

    Attributes
    ----------
    step:
        The period the shock lands on (``1 ≤ step``; the initial condition
        is never shocked). It is applied *before* that period's update.
    field:
        ``"capacity"`` (the access capacity µ) or ``"price"`` (the ISP
        price p).
    scale:
        The multiplicative factor (``0.8`` = a 20% outage/discount).
    """

    step: int
    field: str
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "step", _positive_whole("shock step", self.step)
        )
        if self.field not in _SHOCK_FIELDS:
            raise ModelError(
                f"shock field must be one of {_SHOCK_FIELDS}, "
                f"got {self.field!r}"
            )
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ModelError(
                f"shock scale must be finite and positive, got {self.scale}"
            )
        object.__setattr__(self, "scale", float(self.scale))


@dataclass(frozen=True)
class DynamicsSpec:
    """A declarative market trajectory: step policy, horizon, rules, shocks.

    Attributes
    ----------
    kind:
        ``"subsidies"`` — §6 off-equilibrium play: CPs adapt subsidies by
        damped best responses while populations adjust with inertia
        (:class:`~repro.simulation.dynamics.MarketSimulation` semantics,
        noiseless); ``"capacity"`` — the revenue-funded expansion loop,
        one :func:`~repro.simulation.capacity.expansion_step` per period.
    horizon:
        Number of simulated periods ``T`` (the trajectory holds ``T + 1``
        records; record 0 is the initial condition).
    cap:
        Policy cap ``q`` in force throughout.
    inertia / update / damping:
        The ``"subsidies"`` kind's population inertia ``ρ``, update
        schedule (``"sequential"``/``"simultaneous"``) and best-response
        damping.
    reinvestment_rate / capacity_cost / depreciation / reoptimize_price /
    price_range:
        The ``"capacity"`` kind's investment rule (see
        :func:`~repro.simulation.capacity.expansion_step`).
    shocks:
        Optional :class:`Shock` schedule, normalized to (step, field)
        order; duplicate (step, field) pairs are rejected, as are price
        shocks on a ``"capacity"`` trajectory with ``reoptimize_price``
        (the per-period re-optimization would discard them silently).
    """

    kind: str = DYNAMICS_DEFAULTS["kind"]
    horizon: int = DYNAMICS_DEFAULTS["horizon"]
    cap: float = DYNAMICS_DEFAULTS["cap"]
    inertia: float = DYNAMICS_DEFAULTS["inertia"]
    update: str = DYNAMICS_DEFAULTS["update"]
    damping: float = DYNAMICS_DEFAULTS["damping"]
    reinvestment_rate: float = DYNAMICS_DEFAULTS["reinvestment_rate"]
    capacity_cost: float = DYNAMICS_DEFAULTS["capacity_cost"]
    depreciation: float = DYNAMICS_DEFAULTS["depreciation"]
    reoptimize_price: bool = DYNAMICS_DEFAULTS["reoptimize_price"]
    price_range: tuple[float, float] = DYNAMICS_DEFAULTS["price_range"]
    shocks: tuple[Shock, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in ("subsidies", "capacity"):
            raise ModelError(
                f"kind must be 'subsidies' or 'capacity', got {self.kind!r}"
            )
        object.__setattr__(
            self, "horizon", _positive_whole("horizon", self.horizon)
        )
        if self.cap < 0.0 or not np.isfinite(self.cap):
            raise ModelError(
                f"cap must be finite and non-negative, got {self.cap}"
            )
        object.__setattr__(self, "cap", float(self.cap))
        if not 0.0 < self.inertia <= 1.0:
            raise ModelError(f"inertia must lie in (0, 1], got {self.inertia}")
        object.__setattr__(self, "inertia", float(self.inertia))
        if self.update not in ("sequential", "simultaneous"):
            raise ModelError(
                f"update must be 'sequential' or 'simultaneous', "
                f"got {self.update!r}"
            )
        if not 0.0 < self.damping <= 1.0:
            raise ModelError(f"damping must lie in (0, 1], got {self.damping}")
        object.__setattr__(self, "damping", float(self.damping))
        validate_expansion_params(
            self.reinvestment_rate, self.capacity_cost, self.depreciation
        )
        object.__setattr__(
            self, "reinvestment_rate", float(self.reinvestment_rate)
        )
        object.__setattr__(self, "capacity_cost", float(self.capacity_cost))
        object.__setattr__(self, "depreciation", float(self.depreciation))
        if not isinstance(self.reoptimize_price, bool):
            raise ModelError(
                f"reoptimize_price must be true or false, "
                f"got {self.reoptimize_price!r}"
            )
        price_range = tuple(float(x) for x in self.price_range)
        if len(price_range) != 2 or not (
            0.0 <= price_range[0] < price_range[1] < math.inf
        ):
            raise ModelError(
                f"price_range must be a finite (lo, hi) pair with "
                f"0 <= lo < hi, got {self.price_range!r}"
            )
        object.__setattr__(self, "price_range", price_range)
        for shock in self.shocks:
            if not isinstance(shock, Shock):
                raise ModelError(
                    f"shocks must be Shock instances, got {shock!r}"
                )
        shocks = tuple(
            sorted(self.shocks, key=lambda k: (k.step, k.field))
        )
        seen = set()
        for shock in shocks:
            if shock.step > self.horizon:
                raise ModelError(
                    f"shock at step {shock.step} lies beyond the horizon "
                    f"{self.horizon}"
                )
            if (shock.step, shock.field) in seen:
                raise ModelError(
                    f"duplicate shock on {shock.field!r} at step {shock.step}"
                )
            seen.add((shock.step, shock.field))
            if (
                shock.field == "price"
                and self.kind == "capacity"
                and self.reoptimize_price
            ):
                # The per-period price re-optimization would silently
                # discard the shocked price — the recorded schedule would
                # claim a disturbance that never affects any output.
                raise ModelError(
                    f"price shock at step {shock.step} would be a no-op: "
                    f"a 'capacity' trajectory with reoptimize_price "
                    f"re-solves the price every period; shock 'capacity' "
                    f"instead (or disable reoptimize_price)"
                )
        object.__setattr__(self, "shocks", shocks)

    def to_metadata(self) -> dict:
        """The JSON-ready ``repro-dynamics/1`` block for scenario metadata."""
        return {
            "format": DYNAMICS_FORMAT,
            "kind": self.kind,
            "horizon": self.horizon,
            "cap": self.cap,
            "inertia": self.inertia,
            "update": self.update,
            "damping": self.damping,
            "reinvestment_rate": self.reinvestment_rate,
            "capacity_cost": self.capacity_cost,
            "depreciation": self.depreciation,
            "reoptimize_price": self.reoptimize_price,
            "price_range": list(self.price_range),
            "shocks": [
                {"step": k.step, "field": k.field, "scale": k.scale}
                for k in self.shocks
            ],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "DynamicsSpec":
        """Rebuild a spec from its :meth:`to_metadata` block.

        The one validation funnel for *untrusted* blocks (scenario files
        are user input): a wrong format tag, unknown field or malformed
        value raises :class:`~repro.exceptions.ModelError`, never a bare
        ``TypeError``/``ValueError`` mid-solve.
        """
        if not isinstance(payload, Mapping):
            raise ModelError(
                f"dynamics block must be a mapping, got {type(payload).__name__}"
            )
        data = dict(payload)
        fmt = data.pop("format", None)
        if fmt != DYNAMICS_FORMAT:
            raise ModelError(f"unsupported dynamics format {fmt!r}")
        unknown = set(data) - set(DYNAMICS_DEFAULTS)
        if unknown:
            raise ModelError(
                f"unknown dynamics field(s) {sorted(unknown)}; "
                f"known: {sorted(DYNAMICS_DEFAULTS)}"
            )
        try:
            shocks = tuple(
                Shock(step=item["step"], field=item["field"], scale=item["scale"])
                for item in data.pop("shocks", ())
            )
        except (TypeError, KeyError) as exc:
            raise ModelError(f"malformed shock entry: {exc}") from exc
        try:
            return cls(shocks=shocks, **data)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"invalid dynamics block: {exc}") from exc


def dynamics_settings(
    metadata: Mapping[str, Any] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> DynamicsSpec:
    """Resolve a trajectory spec: overrides > metadata block > defaults.

    Mirrors :func:`repro.competition.oligopoly.competition_settings`: the
    scenario's ``metadata["dynamics"]`` block (if any) is validated as a
    ``repro-dynamics/1`` payload, explicit ``overrides`` entries that are
    not ``None`` win over it, and everything else falls back to
    :data:`DYNAMICS_DEFAULTS`. Malformed values from either untrusted
    source raise :class:`~repro.exceptions.ModelError`.
    """
    meta = metadata if metadata is not None else {}
    block = meta.get("dynamics")
    spec = (
        DynamicsSpec.from_dict(block)
        if block is not None
        else DynamicsSpec()
    )
    given = {
        key: value
        for key, value in (overrides or {}).items()
        if value is not None
    }
    if not given:
        return spec
    unknown = set(given) - set(DYNAMICS_DEFAULTS)
    if unknown:
        raise ModelError(
            f"unknown dynamics setting(s) {sorted(unknown)}; "
            f"known: {sorted(DYNAMICS_DEFAULTS)}"
        )
    if "shocks" in given:
        given["shocks"] = tuple(given["shocks"])
    try:
        return replace(spec, **given)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"invalid dynamics settings: {exc}") from exc




# ----------------------------------------------------------------------
# the trajectory task (the pure unit of work shipped to the solve service)
# ----------------------------------------------------------------------

def _shocked(
    shocks: tuple[Shock, ...], step: int, capacity: float, price: float
) -> tuple[float, float]:
    """Apply every shock landing at ``step`` to the (µ, p) pair."""
    for shock in shocks:
        if shock.step != step:
            continue
        if shock.field == "capacity":
            capacity *= shock.scale
        else:
            price *= shock.scale
    return capacity, price


def _simulation(market: Market, spec: DynamicsSpec) -> MarketSimulation:
    """The noiseless simulator a ``"subsidies"`` spec plays on ``market``."""
    return MarketSimulation(
        market,
        spec.cap,
        strategies=[
            BestResponseStrategy(damping=spec.damping) for _ in market.providers
        ],
        config=SimulationConfig(
            population_inertia=spec.inertia, update=spec.update
        ),
    )


def _subsidy_rows(
    providers: tuple[ContentProvider, ...],
    isp: AccessISP,
    spec: DynamicsSpec,
    subsidies0: np.ndarray,
    populations0: np.ndarray,
) -> dict[str, np.ndarray]:
    """The ``"subsidies"`` kind: off-equilibrium play, windowed at shocks.

    Advances the exact :class:`MarketSimulation` recursion; each shock
    starts a new window (the market changes, the (s, m) state carries
    over).
    """
    s, m = subsidies0, populations0
    capacity, price = isp.capacity, isp.price
    edges = (
        [0] + sorted({k.step - 1 for k in spec.shocks}) + [spec.horizon]
    )
    chunks = []
    for i in range(len(edges) - 1):
        start, end = edges[i], edges[i + 1]
        if i > 0:
            capacity, price = _shocked(spec.shocks, start + 1, capacity, price)
        market = Market(
            providers, isp.with_capacity(capacity).with_price(price)
        )
        sim = _simulation(market, spec)
        trajectory_s, trajectory_m = sim.advance(s, m, end - start)
        chunks.append(
            sim.resolve_records(
                trajectory_s,
                trajectory_m,
                start_step=start,
                include_initial=i == 0,
            )
        )
        s, m = trajectory_s[-1], trajectory_m[-1]
    return {
        name: np.concatenate([chunk[name] for chunk in chunks])
        for name in chunks[0]
    }


def _capacity_rows(
    providers: tuple[ContentProvider, ...],
    isp: AccessISP,
    spec: DynamicsSpec,
) -> dict[str, np.ndarray]:
    """The ``"capacity"`` kind: the per-period equilibrium + reinvestment
    chain, one :func:`expansion_step` per period."""
    capacity, price = isp.capacity, isp.price
    rows = []
    for step in range(spec.horizon + 1):
        capacity, price = _shocked(spec.shocks, step, capacity, price)
        market = Market(
            providers, isp.with_capacity(capacity).with_price(price)
        )
        market, equilibrium, next_capacity = expansion_step(
            market,
            spec.cap,
            reinvestment_rate=spec.reinvestment_rate,
            capacity_cost=spec.capacity_cost,
            depreciation=spec.depreciation,
            reoptimize_price=spec.reoptimize_price,
            price_range=spec.price_range,
        )
        price = market.isp.price
        state = equilibrium.state
        rows.append((
            equilibrium.subsidies.copy(), state.populations.copy(),
            state.utilization, state.throughputs.copy(),
            state.utilities.copy(), state.revenue, state.welfare,
            capacity, price,
        ))
        capacity = next_capacity
    result = {
        name: np.array(column, dtype=float)
        for name, column in zip(_RECORD_COLUMNS, zip(*rows))
    }
    result["steps"] = np.arange(spec.horizon + 1, dtype=np.int64)
    return result


def solve_trajectory(
    providers: tuple[ContentProvider, ...],
    isp: AccessISP,
    payload: str,
    subsidies0: np.ndarray,
    populations0: np.ndarray,
) -> dict[str, np.ndarray]:
    """A whole trajectory, as a pure content-keyed task.

    Advances the market from its initial state through the spec's horizon
    and returns every recorded row (steps ``0 .. horizon``) as named
    arrays, so the result persists bit-exactly under the ``"ndarrays"``
    store codec.

    ``payload`` is the canonical JSON of the ``repro-dynamics/1`` block;
    ``isp`` is the scenario's ISP, whose capacity and price the shocks and
    the ``"capacity"`` kind's investment move. ``subsidies0`` and
    ``populations0`` seed the ``"subsidies"`` kind; the ``"capacity"``
    kind ignores them.
    """
    spec = DynamicsSpec.from_dict(json.loads(payload))
    if spec.kind == "subsidies":
        return _subsidy_rows(providers, isp, spec, subsidies0, populations0)
    return _capacity_rows(providers, isp, spec)


def trajectory_task(
    market: Market,
    spec: DynamicsSpec,
    subsidies0: np.ndarray,
    populations0: np.ndarray,
) -> SolveTask:
    """The content-keyed ``dynamics/1`` task for one trajectory.

    The single definition of the trajectory key: the market's content
    fingerprint, the canonical spec payload and the exact initial-state
    bytes.
    """
    payload = json.dumps(
        spec.to_metadata(), sort_keys=True, separators=(",", ":")
    )
    subsidies0 = np.ascontiguousarray(np.asarray(subsidies0, dtype=float))
    populations0 = np.ascontiguousarray(np.asarray(populations0, dtype=float))
    return SolveTask(
        fn=solve_trajectory,
        args=(market.providers, market.isp, payload, subsidies0, populations0),
        key=(
            "dynamics/1",
            market_fingerprint(market),
            payload,
            subsidies0.tobytes(),
            populations0.tobytes(),
        ),
        codec="ndarrays",
    )


def run_trajectory(
    market: Market,
    spec: DynamicsSpec,
    *,
    service: SolveService | None = None,
    initial_subsidies=None,
    initial_populations=None,
) -> DynamicsTrajectory:
    """Run a declared trajectory through the solve service as one task.

    The trajectory resolves as one content-keyed task on ``service``
    (``None``: the shared :func:`~repro.engine.service.default_service`,
    so a configured persistent store replays trajectories exactly like
    figure grids). Only cheap demand evaluations happen outside the task —
    every equilibrium/congestion solve is inside it, which is what makes
    the warm-replay counter claim (``computed == 0``) exact. A run killed
    mid-trajectory restarts from its initial state.

    ``initial_subsidies``/``initial_populations`` seed the ``"subsidies"``
    kind (same semantics as :meth:`MarketSimulation.run`); the
    ``"capacity"`` kind starts from the market's own capacity and price.
    """
    resolved = service if service is not None else default_service()
    if spec.kind == "subsidies":
        s, m = _simulation(market, spec).initial_state(
            initial_subsidies, initial_populations
        )
    else:
        if initial_subsidies is not None or initial_populations is not None:
            raise ModelError(
                "initial subsidies/populations only apply to the "
                "'subsidies' kind (the 'capacity' kind re-solves the "
                "equilibrium each period)"
            )
        s = np.zeros(market.size)
        m = np.zeros(market.size)
    out = resolved.run(trajectory_task(market, spec, s, m))
    trajectory = DynamicsTrajectory(
        kind=spec.kind,
        steps=out["steps"].astype(np.int64),
        **{name: out[name] for name in _RECORD_COLUMNS},
    )
    if not np.array_equal(trajectory.steps, np.arange(spec.horizon + 1)):
        raise ModelError(
            f"trajectory task returned {trajectory.steps.size} row(s) "
            f"for horizon {spec.horizon}"
        )
    return trajectory
