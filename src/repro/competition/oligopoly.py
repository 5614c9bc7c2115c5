"""N-carrier access-ISP oligopoly competition with CP subsidization.

Model
-----
``N ≥ 1`` access ISPs serve one population of users. Users pick a carrier
by a logit rule on prices:

    w_k = e^{−σ·p_k} / Σ_j e^{−σ·p_j}

where ``σ ≥ 0`` is the switching sensitivity (``σ = 0``: captive equal
shares; ``σ → ∞``: Bertrand-style winner-take-all). Within carrier ``k``,
CP ``i`` faces demand ``w_k·m_i(p_k − s_{ik})`` and chooses a per-carrier
subsidy ``s_{ik} ∈ [0, q]`` — sponsored-data deals are struck per carrier
in practice (e.g. AT&T's program). Shares depend only on prices and each
carrier runs its own congestion fixed point, so given the price vector the
CPs' subsidization games *decouple across carriers*: carrier ``k`` hosts a
standard :class:`~repro.core.game.SubsidizationGame` on a market whose
demands are scaled by ``w_k``. This module composes those per-carrier
games into the ISPs' price competition for any ``N``:

* ``N = 1`` degenerates to the monopoly pricing problem of §5
  (:func:`repro.core.revenue.optimal_price`) — the single carrier owns the
  whole population and best-responds to nobody;
* ``N = 2`` is the duopoly: two carriers splitting one user base
  (``OligopolyGame(providers, (isp_a, isp_b), ...)``);
* ``N ≥ 3`` opens the market-structure experiments the paper's §6
  conjecture gestures at: how prices, industry revenue and welfare move as
  carriers are added while total access capacity is held fixed.

Engine routing
--------------
A whole competition is one content-keyed
:class:`~repro.engine.service.SolveTask` (key ``oligopoly/1``) on the
shared :class:`~repro.engine.service.SolveService`; its entry holds the
final prices, the iteration count and residual, the per-carrier
counters and certificates, and the final warm-start profiles. The
equilibrium state at the final prices is ``N`` further tasks
(``oligopoly-eq/1``, one per carrier), seeded with those profiles. With
a persistent store configured, re-running a competition replays those
``N + 1`` entries with **zero** equilibrium solves.

Inside the competition each per-carrier best-response price search
(:func:`solve_oligopoly_sweep`) is unkeyed — a plain call, or a keyless
task of a Jacobi round — and never persisted: candidate-price revenue and revenue-slope evaluations chained through a warm-start
profile, a certified slope polish at the end. The inner equilibrium
solves go through :func:`~repro.core.equilibrium.solve_equilibrium`,
whose default vectorized sweep evaluates each CP's candidate caps
``s_i ∈ [0, q]`` as one batch — so an oligopoly sweep is a batch of
batches. Under a kernel backend each candidate reprices the sweep's
kernel plan instead and solves it, slope included, in one compiled call
(see :func:`solve_oligopoly_sweep`).

Iteration modes
---------------
:class:`IterationPolicy` selects how the damped best-response iteration
updates the price vector:

``"gauss-seidel"`` (default)
    Sequential: carrier ``k`` best-responds to the *freshest* prices,
    including this sweep's updates of carriers ``< k``.
``"jacobi"``
    Simultaneous: all carriers best-respond to the same start-of-sweep
    price vector. The ``N`` searches of a round are independent, so they
    are scheduled as one keyless
    :meth:`~repro.engine.service.SolveService.map` batch and parallelize
    across worker processes.

Two-carrier shares
------------------
For ``N = 2``, :func:`oligopoly_shares` computes the second share as the
complement ``w_B = 1 − w_A`` instead of normalizing it independently. The
two forms differ in the last ulp, and every stored ``N = 2`` result was
computed with the complement form; the frozen goldens in
``tests/competition/test_oligopoly.py`` hold it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.backend import get_backend
from repro.backend.dispatch import SLOPE_BOUNDARY_TOL
from repro.core.equilibrium import (
    EquilibriumResult,
    certified_fused_equilibrium,
    solve_equilibrium,
)
from repro.core.game import SubsidizationGame
from repro.core.revenue import revenue_slope
from repro.engine.cache import market_fingerprint
from repro.engine.service import SolveService, SolveTask, default_service
from repro.exceptions import ConvergenceError, EquilibriumError, ModelError
from repro.fields import choice, flag, interval, number, resolve, whole
from repro.network.demand import ScaledDemand
from repro.providers.content_provider import ContentProvider
from repro.providers.isp import AccessISP
from repro.providers.market import Market
from repro.solvers.scalar_opt import BOUND, INTERIOR, KINK, certified_maximize

if TYPE_CHECKING:  # type-only: the scenarios package imports back through
    # repro.experiments, so a runtime import here would close a cycle.
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "COMPETITION_DEFAULTS",
    "ITERATION_MODES",
    "OLIGOPOLY_DEFAULTS",
    "CarrierStats",
    "CompetitionSettings",
    "IterationPolicy",
    "OligopolyCompetitionResult",
    "OligopolyGame",
    "OligopolyState",
    "competition_settings",
    "oligopoly_shares",
    "scaled_carrier_market",
    "solve_oligopoly_competition",
    "solve_oligopoly_state",
    "solve_oligopoly_sweep",
]

#: The competition parameter defaults, in one place: the solver signatures,
#: the ``market_structure`` pipeline and the CLI all resolve through
#: :func:`competition_settings`, so changing a default here changes it
#: everywhere (the keys double as the scenario-metadata key names the
#: ``oligopoly(...)`` generator records).
COMPETITION_DEFAULTS: Mapping[str, Any] = {
    "iteration_mode": "gauss-seidel",
    "damping": 0.7,
    "tol": 1e-10,
    "max_sweeps": 60,
    "price_range": (0.0, 3.0),
    "grid_points": 32,
    "xtol": 1e-7,
}

#: The damped best-response iteration's update schedules.
ITERATION_MODES = ("gauss-seidel", "jacobi")

#: The game an ``oligopoly(...)`` scenario records: the generator's
#: keyword defaults and the metadata keys
#: :meth:`OligopolyGame.from_scenario` reads.
OLIGOPOLY_DEFAULTS: Mapping[str, Any] = {
    "carriers": 2,
    "switching": 2.0,
    "cap": 0.0,
    "split_capacity": True,
}

#: A sweep outcome's certificate kinds, stored as their index (the
#: ``"ndarrays"`` codec keeps numbers); ``None`` is an uncertified search.
CERTIFICATES = (None, INTERIOR, BOUND, KINK)


def oligopoly_shares(
    switching: float, prices: Sequence[float]
) -> tuple[float, ...]:
    """Logit market shares at a price vector (stabilized softmax on −σp).

    ``N = 2`` uses the two-term complement form: ``w_B`` is ``1 − w_A``
    rather than an independently normalized term. The two differ in the
    last ulp, and every stored ``N = 2`` result was computed this way.
    """
    prices = tuple(float(p) for p in prices)
    if not prices:
        raise ModelError("an oligopoly needs at least one carrier price")
    z = [-switching * p for p in prices]
    top = max(z)
    weights = [math.exp(zk - top) for zk in z]
    total = sum(weights)
    if len(prices) == 2:
        w_a = weights[0] / total
        return (w_a, 1.0 - w_a)
    return tuple(w / total for w in weights)


def scaled_carrier_market(
    providers: Sequence[ContentProvider],
    isp: AccessISP,
    share: float,
    price: float,
) -> Market:
    """One carrier's market: demands scaled by its share, ISP repriced.

    The single construction path for the in-process methods and the
    pool-schedulable tasks, so every route builds the carrier market
    identically.
    """
    scaled = [
        ContentProvider(
            demand=ScaledDemand(cp.demand, share),
            throughput=cp.throughput,
            value=cp.value,
            name=cp.name,
        )
        for cp in providers
    ]
    return Market(scaled, isp.with_price(price))


def _with_candidate(
    prices: tuple[float, ...], index: int, candidate: float
) -> tuple[float, ...]:
    return prices[:index] + (candidate,) + prices[index + 1 :]


def _piece(subsidies: np.ndarray, cap: float) -> tuple[int, ...]:
    """The ``N−``/``Ñ``/``N+`` partition of a profile as one code per CP
    (0, 1, 2): the smooth piece of the revenue curve it lies on."""
    return tuple(
        0 if s <= SLOPE_BOUNDARY_TOL
        else 2 if s >= cap - SLOPE_BOUNDARY_TOL
        else 1
        for s in subsidies.tolist()
    )


def solve_oligopoly_sweep(
    providers: tuple[ContentProvider, ...],
    isp: AccessISP,
    switching: float,
    cap: float,
    index: int,
    prices: tuple[float, ...],
    lo: float,
    hi: float,
    grid_points: int,
    xtol: float,
    tol: float,
    warm0: np.ndarray | None,
    start: float | None = None,
    guess: float | None = None,
) -> dict[str, np.ndarray]:
    """One carrier's certified best-response price search, as a pure function.

    Carrier ``index``'s equilibrium revenue and its slope ``dR/dp`` (rival
    entries of ``prices`` held fixed; its own entry is ignored) drive
    :func:`~repro.solvers.scalar_opt.certified_maximize`: the full grid
    and a slope polish of the best bracket, or — given the carrier's own
    price ``start`` and its previous certified price ``guess`` — a
    bracketed local search from ``start`` first. The slope is Theorem 7's
    eq. (13) plus the share term, ``d ln w/dp = −σ(1 − w)`` for the
    carrier's logit share ``w``. Every equilibrium solve is warm-started
    from the previous candidate's profile. Returns the certified price,
    its revenue and slope, the certificate (an index into
    :data:`CERTIFICATES`), whether the grid ran, the solve counts and the
    profile at the certified price, as arrays.

    Under a kernel backend with ``cap > 0`` the first candidate builds its
    carrier market and keeps that market's kernel plan; each candidate
    reprices the plan (:meth:`~repro.backend.dispatch.KernelPlan.repriced`)
    and solves it in one compiled call that also returns the slope
    (:func:`certified_fused_equilibrium`). A candidate whose call is not
    certified at once, and every candidate of an ineligible market, builds
    its market and runs :func:`solve_equilibrium` (handed the failed call)
    and :func:`~repro.core.revenue.revenue_slope`; both routes give the
    same bits.
    """
    state = {
        "warm": None if warm0 is None else np.asarray(warm0, dtype=float),
        "solves": 0,
        "plan": None,
        "planned": not (cap > 0.0 and get_backend().kernels is not None),
    }
    profiles: dict[float, np.ndarray] = {}
    n = len(providers)

    def evaluate(p: float) -> tuple[float, float, tuple[int, ...]]:
        at = _with_candidate(prices, index, p)
        share = oligopoly_shares(switching, at)[index]
        rate = -switching * (1.0 - share)
        state["solves"] += 1
        market = None
        if not state["planned"]:
            market = scaled_carrier_market(providers, isp, share, at[index])
            state["plan"] = market.kernel_plan()
            state["planned"] = True
        attempt = None
        if state["plan"] is not None:
            attempt = certified_fused_equilibrium(
                state["plan"].repriced(p, share), cap, state["warm"], rate
            )
        if attempt is not None and attempt.certified:
            subsidies, row, _ = attempt.solved
            revenue, slope = float(row[6 * n + 2]), float(row[6 * n + 5])
        else:
            if market is None:
                market = scaled_carrier_market(
                    providers, isp, share, at[index]
                )
            game = SubsidizationGame(market, cap)
            equilibrium = solve_equilibrium(
                game, initial=state["warm"], attempt=attempt
            )
            subsidies = equilibrium.subsidies
            revenue = equilibrium.state.revenue
            slope = revenue_slope(game, subsidies, rate)
        if not math.isfinite(slope):
            raise EquilibriumError(
                f"revenue slope of carrier {index} is not finite at price "
                f"{p} (Theorem 6 regularity fails)"
            )
        state["warm"] = profiles[p] = subsidies
        return revenue, slope, _piece(subsidies, cap)

    result = certified_maximize(
        evaluate, lo, hi, grid_points=grid_points, xtol=xtol, tol=tol,
        start=start, guess=guess,
    )
    return {
        "price": np.asarray(result.x, dtype=float),
        "value": np.asarray(result.value, dtype=float),
        "slope": np.asarray(result.slope, dtype=float),
        "certificate": np.asarray(
            CERTIFICATES.index(result.certificate), dtype=np.int64
        ),
        "grid": np.asarray(result.grid, dtype=np.int64),
        "evaluations": np.asarray(result.evaluations, dtype=np.int64),
        "solves": np.asarray(state["solves"], dtype=np.int64),
        "warm": np.asarray(profiles[result.x], dtype=float),
    }


def solve_oligopoly_state(
    providers: tuple[ContentProvider, ...],
    isp: AccessISP,
    switching: float,
    cap: float,
    index: int,
    prices: tuple[float, ...],
    warm0: np.ndarray | None,
) -> tuple[EquilibriumResult, ...]:
    """One carrier's CP equilibrium at a price vector, as a pure task.

    Returned as a 1-tuple so it persists under the engine's ``"grid-row"``
    codec — an oligopoly state is ``N`` single-node rows.
    """
    share = oligopoly_shares(switching, prices)[index]
    market = scaled_carrier_market(providers, isp, share, prices[index])
    equilibrium = solve_equilibrium(
        SubsidizationGame(market, cap),
        initial=None if warm0 is None else np.asarray(warm0, dtype=float),
    )
    return (equilibrium,)


@dataclass(frozen=True)
class OligopolyState:
    """Solved oligopoly snapshot at a price vector.

    Attributes
    ----------
    prices:
        ``(p_1, ..., p_N)``.
    shares:
        Logit market shares ``(w_1, ..., w_N)``.
    equilibria:
        Per-carrier CP equilibria (subsidies, states).
    revenues:
        Per-carrier ISP revenue.
    welfare:
        Total CP gross profit across all carriers.
    """

    prices: tuple[float, ...]
    shares: tuple[float, ...]
    equilibria: tuple[EquilibriumResult, ...]
    revenues: tuple[float, ...]
    welfare: float

    @property
    def n_carriers(self) -> int:
        """Number of carriers ``N``."""
        return len(self.prices)

    @property
    def total_revenue(self) -> float:
        """Industry revenue ``Σ_k R_k``."""
        return float(sum(self.revenues))

    @property
    def mean_price(self) -> float:
        """Average carrier price."""
        return float(sum(self.prices)) / len(self.prices)

    @property
    def utilizations(self) -> tuple[float, ...]:
        """Per-carrier link utilization ``φ_k`` at equilibrium."""
        return tuple(eq.state.utilization for eq in self.equilibria)

    @property
    def mean_utilization(self) -> float:
        """Average carrier utilization."""
        u = self.utilizations
        return float(sum(u)) / len(u)


@dataclass(frozen=True)
class IterationPolicy:
    """How the damped best-response iteration updates the price vector.

    Attributes
    ----------
    mode:
        ``"gauss-seidel"`` (sequential, freshest rival prices) or ``"jacobi"`` (simultaneous update; the ``N``
        sweeps per round are independent and pool-parallelizable).
    damping:
        Step factor in ``(0, 1]`` applied to each best-response move.
        Cycling is possible for extreme switching sensitivities — damp
        harder there.
    tol:
        Certificate tolerance on the revenue slope: an interior best
        response has ``|dR_k/dp_k| ≤ tol``. The iteration stops when every
        carrier's price is a certified best response to its rivals.
    max_sweeps:
        Iteration budget; exhausting it raises
        :class:`~repro.exceptions.ConvergenceError` (the documented
        non-convergence signal — the iteration never loops forever).
    """

    mode: str = COMPETITION_DEFAULTS["iteration_mode"]
    damping: float = COMPETITION_DEFAULTS["damping"]
    tol: float = COMPETITION_DEFAULTS["tol"]
    max_sweeps: int = COMPETITION_DEFAULTS["max_sweeps"]

    def __post_init__(self) -> None:
        choice("iteration_mode", self.mode, ITERATION_MODES)
        object.__setattr__(
            self, "damping", number("damping", self.damping, "(0, 1]")
        )
        object.__setattr__(self, "tol", number("tol", self.tol, "(0, inf)"))
        object.__setattr__(
            self,
            "max_sweeps",
            whole("max_sweeps", self.max_sweeps, at_least=1),
        )


@dataclass(frozen=True)
class CompetitionSettings:
    """Fully-resolved competition parameters (see :func:`competition_settings`)."""

    policy: IterationPolicy
    price_range: tuple[float, float]
    grid_points: int
    xtol: float


def competition_settings(
    metadata: Mapping[str, Any] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> CompetitionSettings:
    """Resolve competition parameters: overrides > metadata > defaults.

    The one funnel for *untrusted* parameter sources — scenario-file
    metadata and CLI flags — through :func:`repro.fields.resolve`:
    ``overrides`` entries that are ``None`` fall through to the metadata's
    :data:`COMPETITION_DEFAULTS` keys, which fall through to the defaults.
    A malformed value raises :class:`~repro.exceptions.ModelError` naming
    the setting. ``price_range`` may be degenerate (``lo == hi``).
    """
    meta = metadata if metadata is not None else {}
    try:
        values = resolve(
            COMPETITION_DEFAULTS,
            {key: meta[key] for key in COMPETITION_DEFAULTS if key in meta},
            overrides,
            what="competition setting",
        )
        return CompetitionSettings(
            policy=IterationPolicy(
                mode=values["iteration_mode"],
                damping=values["damping"],
                tol=values["tol"],
                max_sweeps=values["max_sweeps"],
            ),
            price_range=interval(
                "price_range", values["price_range"], "[0, inf)",
                equal_ok=True,
            ),
            grid_points=whole(
                "grid_points", values["grid_points"], at_least=3
            ),
            xtol=number("xtol", values["xtol"], "(0, inf)"),
        )
    except ModelError as exc:
        raise ModelError(f"invalid competition settings: {exc}") from exc


@dataclass
class CarrierStats:
    """Per-carrier convergence counters of one competition solve, and the
    certificate of the carrier's final price (``"interior"``,
    ``"bound"`` or ``"kink"``; ``None`` while uncertified)."""

    sweeps: int = 0
    grid_sweeps: int = 0
    solves: int = 0
    evaluations: int = 0
    certificate: str | None = None

    def as_dict(self) -> dict:
        """JSON-ready view (the CLI's per-carrier counters)."""
        return {
            "sweeps": self.sweeps,
            "grid_sweeps": self.grid_sweeps,
            "solves": self.solves,
            "evaluations": self.evaluations,
            "certificate": self.certificate,
        }


class OligopolyGame:
    """``N`` access ISPs competing for one user base.

    Parameters
    ----------
    providers:
        The CPs (shared across carriers).
    isps:
        The carriers (``N ≥ 1``). Prices on these objects are *defaults*;
        the solve methods take explicit price vectors.
    switching:
        Logit sensitivity ``σ ≥ 0`` of carrier choice to price.
    cap:
        Subsidization policy ``q`` (applies on every carrier).
    service:
        Solve service resolving the competition task, the per-carrier
        state tasks and the Jacobi rounds; ``None`` (default) resolves
        the shared :func:`~repro.engine.service.default_service` at call
        time, so a store configured process-wide makes a repeated
        competition replay without solves.

    The game holds no solve state between calls: a competition or a
    state is a pure function of the game and the call's arguments.
    """

    def __init__(
        self,
        providers: Sequence[ContentProvider],
        isps: Sequence[AccessISP],
        *,
        switching: float = 2.0,
        cap: float = 0.0,
        service: SolveService | None = None,
    ) -> None:
        self._providers = tuple(providers)
        if not self._providers:
            raise ModelError("an oligopoly needs at least one content provider")
        self._isps = tuple(isps)
        if not self._isps:
            raise ModelError("an oligopoly needs at least one carrier")
        self._switching = number("switching", switching, "[0, inf)")
        self._cap = number("cap", cap, "[0, inf)")
        self._service = service
        self._fingerprints: dict[int, str] = {}

    @classmethod
    def from_scenario(
        cls,
        scenario: "ScenarioSpec",
        carriers: int | None = None,
        *,
        switching: float | None = None,
        cap: float | None = None,
        split_capacity: bool | None = None,
        service: SolveService | None = None,
    ) -> "OligopolyGame":
        """Build the game an ``oligopoly(...)`` scenario describes.

        Explicit arguments override the scenario's metadata; metadata
        falls back to :data:`OLIGOPOLY_DEFAULTS`: ``carriers`` (2),
        ``switching`` (2.0), ``cap`` (0.0) and ``split_capacity`` (True —
        the template ISP's capacity is divided evenly so total access
        capacity is invariant in ``N``).
        """
        meta = scenario.metadata
        values = resolve(
            OLIGOPOLY_DEFAULTS,
            {key: meta[key] for key in OLIGOPOLY_DEFAULTS if key in meta},
            {
                "carriers": carriers,
                "switching": switching,
                "cap": cap,
                "split_capacity": split_capacity,
            },
        )
        n = whole("carriers", values["carriers"], at_least=1)
        base = scenario.market.isp
        split = flag("split_capacity", values["split_capacity"])
        capacity = base.capacity / n if split else base.capacity
        name = base.name or "isp"
        isps = tuple(
            AccessISP(
                price=base.price,
                capacity=capacity,
                utilization=base.utilization,
                name=f"{name}-{k + 1}",
            )
            for k in range(n)
        )
        return cls(
            scenario.market.providers,
            isps,
            switching=values["switching"],
            cap=values["cap"],
            service=service,
        )

    @property
    def n_carriers(self) -> int:
        """Number of carriers ``N``."""
        return len(self._isps)

    @property
    def switching(self) -> float:
        """Logit switching sensitivity ``σ``."""
        return self._switching

    @property
    def cap(self) -> float:
        """Subsidization policy cap ``q``."""
        return self._cap

    @property
    def isps(self) -> tuple[AccessISP, ...]:
        """The carriers."""
        return self._isps

    def _resolve_service(self) -> SolveService:
        return self._service if self._service is not None else default_service()

    def _carrier_fingerprint(self, index: int) -> str:
        """Carrier ``index``'s market-content digest (computed once).

        Rival ISP parameters never enter carrier ``index``'s revenue (only
        rival *prices* do), so this covers exactly the carrier's own
        economic content; σ, q and N join the task keys separately.
        """
        if index not in self._fingerprints:
            self._fingerprints[index] = market_fingerprint(
                Market(self._providers, self._isps[index])
            )
        return self._fingerprints[index]

    def _check_prices(self, prices: Sequence[float]) -> tuple[float, ...]:
        vector = tuple(float(p) for p in prices)
        if len(vector) != self.n_carriers:
            raise ModelError(
                f"expected {self.n_carriers} carrier price(s), got {len(vector)}"
            )
        return vector

    def shares(self, prices: Sequence[float]) -> tuple[float, ...]:
        """Logit market shares at a price vector."""
        return oligopoly_shares(self._switching, self._check_prices(prices))

    def carrier_market(self, index: int, prices: Sequence[float]) -> Market:
        """Carrier ``index``'s market: demands scaled by its share."""
        vector = self._check_prices(prices)
        w = self.shares(vector)[index]
        return scaled_carrier_market(
            self._providers, self._isps[index], w, vector[index]
        )

    def _state_task(
        self,
        index: int,
        prices: tuple[float, ...],
        warm0: np.ndarray | None,
    ) -> SolveTask:
        """The content-keyed task for one carrier's equilibrium solve,
        warm-started from ``warm0`` (``None``: a cold start)."""
        warm_arg = None if warm0 is None else np.asarray(warm0, dtype=float)
        return SolveTask(
            fn=solve_oligopoly_state,
            args=(
                self._providers,
                self._isps[index],
                self._switching,
                self._cap,
                int(index),
                prices,
                warm_arg,
            ),
            key=(
                "oligopoly-eq/1",
                self._carrier_fingerprint(index),
                float(self._switching),
                float(self._cap),
                int(self.n_carriers),
                int(index),
                prices,
                None if warm_arg is None else warm_arg.tobytes(),
            ),
            codec="grid-row",
        )

    def solve(self, prices: Sequence[float]) -> OligopolyState:
        """Full oligopoly state (CP equilibria on every carrier).

        Each carrier's game runs as a service task (the games decouple
        given the prices), so solved states replay from a warm store.
        """
        vector = self._check_prices(prices)
        return self._solve_state(vector, (None,) * self.n_carriers)

    def _solve_state(
        self,
        vector: tuple[float, ...],
        warm: Sequence[np.ndarray | None],
    ) -> OligopolyState:
        """The state at ``vector``, carrier ``k`` warm-started from
        ``warm[k]``."""
        service = self._resolve_service()
        equilibria = tuple(
            service.run(self._state_task(k, vector, warm[k]))[0]
            for k in range(self.n_carriers)
        )
        return OligopolyState(
            prices=vector,
            shares=self.shares(vector),
            equilibria=equilibria,
            revenues=tuple(eq.state.revenue for eq in equilibria),
            welfare=sum(eq.state.welfare for eq in equilibria),
        )


@dataclass(frozen=True)
class OligopolyCompetitionResult:
    """A price equilibrium of the oligopoly.

    Attributes
    ----------
    state:
        Full oligopoly state at the equilibrium prices.
    iterations:
        Best-response sweeps used.
    residual:
        The largest ``|dR_k/dp_k|`` among the carriers whose price is an
        interior certified best response (``0.0`` when none is).
    mode:
        The iteration mode that produced the equilibrium.
    carrier_stats:
        Per-carrier convergence counters (sweeps, grid sweeps, equilibrium
        solves, revenue evaluations) and each final price's certificate —
        the CLI surfaces these in ``--json``.
    """

    state: OligopolyState
    iterations: int
    residual: float
    mode: str
    carrier_stats: tuple[CarrierStats, ...]

    @property
    def total_solves(self) -> int:
        """Equilibrium solves across all carriers' sweeps."""
        return sum(stats.solves for stats in self.carrier_stats)


def solve_oligopoly_competition(
    game: OligopolyGame,
    *,
    initial_prices: Sequence[float] | None = None,
    price_range: tuple[float, float] = COMPETITION_DEFAULTS["price_range"],
    grid_points: int = COMPETITION_DEFAULTS["grid_points"],
    xtol: float = COMPETITION_DEFAULTS["xtol"],
    policy: IterationPolicy | None = None,
) -> OligopolyCompetitionResult:
    """Damped best-response iteration on the carriers' prices, stopped on
    a certificate.

    Each sweep lets every carrier re-price — against the freshest prices
    (Gauss-Seidel, the default) or the start-of-sweep vector (Jacobi,
    pool-parallel across carriers) — by a certified best-response search
    (:func:`solve_oligopoly_sweep`) that starts at the carrier's own
    price, with ``policy.tol`` the slope tolerance and ``xtol`` the price
    width that locates a kink. A carrier runs the full price grid on the
    first sweep and on verifying sweeps; in between its search is local,
    from its previous certified price. When a local sweep leaves every
    price where it was (each is already a certified best response), the
    next sweep verifies on the full grid, and the competition has
    converged when that sweep moves no price either. Exhausting
    ``policy.max_sweeps`` raises :class:`~repro.exceptions.ConvergenceError`
    — the iteration never loops forever (cycling is possible for extreme
    switching sensitivities; damp harder there). Initial prices outside
    ``price_range`` start at its nearest end. The iteration runs as one
    content-keyed service task and the final state as ``N`` more, so
    against a warm persistent store a repeated competition replays
    without equilibrium solves.
    """
    policy = policy if policy is not None else IterationPolicy()
    n = game.n_carriers
    if initial_prices is None:
        initial_prices = [1.0] * n
    if len(initial_prices) != n:
        raise ModelError(
            f"expected {n} initial price(s), got {len(initial_prices)}"
        )
    # Only prices in the range can be certified best responses.
    lo, hi = (float(x) for x in price_range)
    prices = tuple(min(max(float(p), lo), hi) for p in initial_prices)
    search = (lo, hi, int(grid_points), float(xtol))
    task = SolveTask(
        fn=_compete,
        args=(game, prices, *search, policy),
        key=(
            "oligopoly/1",
            tuple(game._carrier_fingerprint(k) for k in range(n)),
            game.switching,
            game.cap,
            n,
            prices,
            *search,
            policy.mode,
            float(policy.damping),
            float(policy.tol),
            int(policy.max_sweeps),
        ),
        codec="ndarrays",
    )
    outcome = game._resolve_service().run(task)
    return OligopolyCompetitionResult(
        state=game._solve_state(
            tuple(outcome["prices"].tolist()), outcome["warm"]
        ),
        iterations=int(outcome["iterations"]),
        residual=float(outcome["residual"]),
        mode=policy.mode,
        carrier_stats=tuple(
            CarrierStats(*counters, certificate=CERTIFICATES[code])
            for counters, code in zip(
                outcome["counters"].tolist(), outcome["certificates"].tolist()
            )
        ),
    )


def _compete(
    game: OligopolyGame,
    initial: tuple[float, ...],
    lo: float,
    hi: float,
    grid_points: int,
    xtol: float,
    policy: IterationPolicy,
) -> dict[str, np.ndarray]:
    """The competition task: the iteration of
    :func:`solve_oligopoly_competition`, from clipped initial prices.

    Returns the final prices, the sweep count, the residual, each
    carrier's counters (sweeps, grid sweeps, solves, evaluations) and
    certificate index, and the final warm-start profiles, as arrays.
    Every search of carrier ``k`` is warm-started from the profile of its
    previous search. The task runs inline under
    :meth:`~repro.engine.service.SolveService.run`, so ``game`` need not
    pickle; a Jacobi round's searches are the tasks that reach the pool.
    """
    n = game.n_carriers
    prices = list(initial)
    stats = tuple(CarrierStats() for _ in range(n))
    guesses: list[float | None] = [None] * n
    slopes = [0.0] * n
    warm: list[np.ndarray | None] = [None] * n

    def search(k: int, vector: tuple[float, ...], guess: float | None) -> tuple:
        """The arguments of carrier ``k``'s search from ``vector``."""
        return (
            game._providers, game._isps[k], game.switching, game.cap, k,
            vector, lo, hi, grid_points, xtol, policy.tol, warm[k],
            vector[k], guess,
        )

    def update(index: int, outcome: dict, start: float) -> float:
        """Record one search and move the carrier; the step taken."""
        response = float(outcome["price"])
        stats[index].sweeps += 1
        stats[index].grid_sweeps += int(outcome["grid"])
        stats[index].solves += int(outcome["solves"])
        stats[index].evaluations += int(outcome["evaluations"])
        stats[index].certificate = CERTIFICATES[int(outcome["certificate"])]
        slopes[index] = float(outcome["slope"])
        guesses[index] = response
        warm[index] = outcome["warm"]
        step = policy.damping * (response - start)
        prices[index] = start + step
        return abs(step)

    full = True
    largest_change = np.inf
    for sweep in range(1, policy.max_sweeps + 1):
        largest_change = 0.0
        previous = [None] * n if full else list(guesses)
        if policy.mode == "jacobi":
            starts = tuple(prices)
            outcomes = game._resolve_service().map(
                [
                    SolveTask(
                        fn=solve_oligopoly_sweep,
                        args=search(k, starts, previous[k]),
                    )
                    for k in range(n)
                ]
            )
            for k in range(n):
                largest_change = max(
                    largest_change, update(k, outcomes[k], starts[k])
                )
        else:
            for k in range(n):
                vector = tuple(prices)
                outcome = solve_oligopoly_sweep(
                    *search(k, vector, previous[k])
                )
                largest_change = max(
                    largest_change, update(k, outcome, vector[k])
                )
        settled = largest_change == 0.0 and all(
            s.certificate is not None for s in stats
        )
        if settled and full:
            residual = max(
                (
                    abs(slopes[k]) for k in range(n)
                    if stats[k].certificate == INTERIOR
                ),
                default=0.0,
            )
            return {
                "prices": np.asarray(prices, dtype=float),
                "iterations": np.asarray(sweep, dtype=np.int64),
                "residual": np.asarray(residual, dtype=float),
                "counters": np.asarray(
                    [
                        (s.sweeps, s.grid_sweeps, s.solves, s.evaluations)
                        for s in stats
                    ],
                    dtype=np.int64,
                ),
                "certificates": np.asarray(
                    [CERTIFICATES.index(s.certificate) for s in stats],
                    dtype=np.int64,
                ),
                "warm": np.stack(warm),
            }
        full = settled
    raise ConvergenceError(
        f"oligopoly price competition ({n} carriers, {policy.mode}) not "
        f"converged in {policy.max_sweeps} sweeps "
        f"(last change {largest_change:.3e})",
        iterations=policy.max_sweeps,
        residual=largest_change,
    )
