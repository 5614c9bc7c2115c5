"""The campaign spec: thousands of scenarios as one declarative object.

A :class:`CampaignSpec` names a *scenario generator* (the seeded
constructors in :mod:`repro.scenarios.generators`), a seed range, a set
of parameter axes and a sweep kind, and expands — deterministically —
into a matrix of :class:`CampaignRow` objects: one built scenario plus
one content digest per row. Expansion is a pure function of the spec, so
the row matrix *is* the campaign's resume manifest: a rerun expands the
same digests and computes only the rows a warehouse does not hold yet
(see :func:`repro.campaigns.driver.run_campaign`).

Two expansion modes:

``"product"``
    The axis product: every seed in ``[seed_start, seed_start +
    seed_count)`` crossed with every combination of axis values, in
    sorted-axis-name/row-major order.
``"sampled"``
    Seeded Monte Carlo over the axes: ``n_samples`` rows, row ``k``
    taking seed ``seed_start + k`` and one value drawn uniformly per
    axis from a ``numpy`` generator seeded with ``sample_seed``.

Serialization is the versioned ``repro-campaign/1`` format
(:meth:`CampaignSpec.to_dict` / :meth:`CampaignSpec.from_dict`,
round-tripped through :mod:`repro.io`'s ``save_campaign`` /
``load_campaign``), and :meth:`CampaignSpec.digest` is the campaign's
content address — the warehouse key every row lands under.

Reserved parameter names route around the generator:

* ``carriers`` (``market_structure`` sweeps only) — the scenario is
  wrapped with :func:`repro.scenarios.generators.oligopoly` at that
  carrier count, so an axis ``{"carriers": (1, 2, 3, 4)}`` is the
  "oligopoly concentration vs N" campaign.
* any :data:`~repro.simulation.trajectory.DYNAMICS_DEFAULTS` key
  (``horizon``, ``kind``, ...) — applied through
  :func:`repro.scenarios.generators.trajectory_variant` (except for the
  ``shocked_market`` generator, which consumes them natively while
  drawing its shock schedule).

Expansion refuses duplicate scenarios: two rows digesting to the same
scenario (an unseeded generator under a multi-seed range, a degenerate
axis draw) raise :class:`~repro.exceptions.ModelError` — a campaign is a
*set* of scenarios, and a silent duplicate would double-count every
distribution the warehouse reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from repro.competition.oligopoly import (
    COMPETITION_DEFAULTS,
    OLIGOPOLY_DEFAULTS,
)
from repro.exceptions import ModelError
from repro.fields import choice, document, resolve, whole
from repro.experiments.kinds import CAMPAIGN_SWEEPS
# Cycle note: repro.io imports the scenario layer, which reaches the
# experiments pipeline, which reaches this package. repro.io therefore
# defines CAMPAIGN_FORMAT before its own repro imports (safe to read
# mid-initialization), and scenario_digest is imported at call time in
# expand().
from repro.io import CAMPAIGN_FORMAT
from repro.scenarios.registry import get_scenario
from repro.scenarios.generators import (
    oligopoly,
    random_market,
    scaled_market,
    shocked_market,
    trajectory_variant,
)
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.trajectory import DYNAMICS_DEFAULTS

__all__ = [
    "CAMPAIGN_DEFAULTS",
    "CAMPAIGN_FORMAT",
    "CAMPAIGN_GENERATORS",
    "CAMPAIGN_SWEEPS",
    "ROW_FORMAT",
    "CampaignGenerator",
    "CampaignRow",
    "CampaignSpec",
]

#: Format tag of one expanded row's digest payload.
ROW_FORMAT = "repro-campaign-row/1"

#: Single source of the spec's optional-field defaults (the
#: :data:`~repro.simulation.trajectory.DYNAMICS_DEFAULTS` house style):
#: the dataclass fields, ``from_dict`` and the CLI flags all read these.
CAMPAIGN_DEFAULTS: Mapping[str, Any] = {
    "generator": "random_market",
    "sweep": "grid",
    "seed_start": 0,
    "seed_count": 1,
    "axes": {},
    "sampling": "product",
    "n_samples": 0,
    "sample_seed": 0,
    "base_params": {},
}


def _build_random(seed: int | None, params: dict) -> ScenarioSpec:
    return random_market(int(seed), **params)


def _build_scaled(seed: int | None, params: dict) -> ScenarioSpec:
    params = dict(params)
    return scaled_market(params.pop("n_types", 16), **params)


def _build_shocked(seed: int | None, params: dict) -> ScenarioSpec:
    params = dict(params)
    base = params.pop("base", "section5")
    base_scn = base if isinstance(base, ScenarioSpec) else get_scenario(str(base))
    return shocked_market(base_scn, int(seed), **params)


@dataclass(frozen=True)
class CampaignGenerator:
    """One registered scenario constructor a campaign can expand over.

    Attributes
    ----------
    name:
        Registry key (the spec's ``generator`` field).
    build:
        ``(seed, params) -> ScenarioSpec``; ``params`` is the merged
        base-params/axis assignment after reserved names are routed.
    seeded:
        Whether the constructor consumes the row seed. Unseeded
        generators reject multi-seed product ranges — every row would
        build the same scenario.
    consumes_dynamics:
        Whether the constructor accepts trajectory keywords itself
        (``shocked_market`` draws its schedule *under* the configured
        horizon); otherwise dynamics keys are applied afterwards through
        :func:`~repro.scenarios.generators.trajectory_variant`.
    """

    name: str
    build: Callable[[int | None, dict], ScenarioSpec]
    seeded: bool = True
    consumes_dynamics: bool = False


#: The generators a ``repro-campaign/1`` spec may name.
CAMPAIGN_GENERATORS: Mapping[str, CampaignGenerator] = MappingProxyType(
    {
        "random_market": CampaignGenerator(
            name="random_market", build=_build_random, seeded=True
        ),
        "scaled_market": CampaignGenerator(
            name="scaled_market", build=_build_scaled, seeded=False
        ),
        "shocked_market": CampaignGenerator(
            name="shocked_market",
            build=_build_shocked,
            seeded=True,
            consumes_dynamics=True,
        ),
    }
)

#: Parameter names with routing semantics (never passed to a generator
#: verbatim; see the module docstring).
_RESERVED_STRUCTURE = "carriers"
_FORBIDDEN_PARAMS = ("seed", "scenario_id")

#: market_structure routing: keyword arguments of the ``oligopoly``
#: wrapper, and competition-solver settings that ride in scenario
#: metadata (the :func:`~repro.competition.oligopoly.competition_settings`
#: funnel reads them from there).
_OLIGOPOLY_KWARGS = ("switching", "cap", "split_capacity", "iteration_mode")
_COMPETITION_KEYS = tuple(
    key for key in COMPETITION_DEFAULTS if key not in _OLIGOPOLY_KWARGS
)

_SCALAR_TYPES = (bool, int, float, str)


def _json_value(name: str, value: Any) -> Any:
    """Normalize one parameter payload to JSON-native types (or raise)."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise ModelError(
            f"campaign parameter {name!r} is not JSON-serializable: "
            f"{value!r}"
        ) from exc


@dataclass(frozen=True)
class CampaignRow:
    """One expanded row: a built scenario plus its content identity.

    ``digest`` covers the scenario digest, the sweep kind, the seed and
    the axis assignment — it is what the warehouse resumes by, and it is
    stable across processes, backends and repeated expansion.
    """

    index: int
    seed: int | None
    params: tuple[tuple[str, Any], ...]
    sweep: str
    scenario: ScenarioSpec
    scenario_digest: str
    digest: str


def _row_digest(
    sweep: str, seed: int | None, params: Mapping[str, Any], sdigest: str
) -> str:
    payload = json.dumps(
        {
            "format": ROW_FORMAT,
            "scenario": sdigest,
            "sweep": sweep,
            "seed": seed,
            "params": dict(params),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """A frozen, versioned declaration of a scenario campaign.

    Attributes
    ----------
    campaign_id:
        Registry/CLI handle; part of the serialized payload (and hence
        the campaign digest).
    title:
        Human-readable description; empty normalizes to ``campaign_id``.
    generator:
        Key into :data:`CAMPAIGN_GENERATORS`.
    sweep:
        Row workload kind, one of :data:`CAMPAIGN_SWEEPS`.
    seed_start, seed_count:
        The seed range of a ``product`` expansion (``seed_count`` rows
        per axis combination); ``sampled`` expansions take row ``k``'s
        seed as ``seed_start + k``. Unseeded generators require
        ``seed_count == 1``.
    axes:
        ``name -> value tuple``; expanded by product or by seeded
        sampling. Values must be distinct scalars.
    sampling, n_samples, sample_seed:
        ``"product"`` (default; ``n_samples`` must stay 0) or
        ``"sampled"`` (``n_samples >= 1`` rows, axis values drawn from
        ``numpy.random.default_rng(sample_seed)``).
    base_params:
        Fixed generator keywords every row shares (e.g. ``n_types``,
        ``prices``, ``policy_levels`` — the knobs that keep thousand-row
        campaigns cheap).
    """

    campaign_id: str
    title: str = ""
    generator: str = CAMPAIGN_DEFAULTS["generator"]
    sweep: str = CAMPAIGN_DEFAULTS["sweep"]
    seed_start: int = CAMPAIGN_DEFAULTS["seed_start"]
    seed_count: int = CAMPAIGN_DEFAULTS["seed_count"]
    axes: Mapping[str, tuple] = field(default_factory=dict)
    sampling: str = CAMPAIGN_DEFAULTS["sampling"]
    n_samples: int = CAMPAIGN_DEFAULTS["n_samples"]
    sample_seed: int = CAMPAIGN_DEFAULTS["sample_seed"]
    base_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.campaign_id, str) or not self.campaign_id:
            raise ModelError(
                f"campaign_id must be a non-empty string, "
                f"got {self.campaign_id!r}"
            )
        if not isinstance(self.title, str):
            raise ModelError(f"title must be a string, got {self.title!r}")
        if not self.title:
            object.__setattr__(self, "title", self.campaign_id)
        choice("generator", self.generator, CAMPAIGN_GENERATORS)
        choice("sweep", self.sweep, CAMPAIGN_SWEEPS)
        choice("sampling", self.sampling, ("product", "sampled"))
        for name, at_least in (
            ("seed_start", None),
            ("seed_count", 1),
            ("n_samples", 0),
            ("sample_seed", None),
        ):
            object.__setattr__(
                self, name, whole(name, getattr(self, name), at_least=at_least)
            )
        if self.sampling == "product" and self.n_samples != 0:
            raise ModelError(
                "n_samples only applies to sampled campaigns; "
                "a product campaign sizes itself from seed_count x axes"
            )
        if self.sampling == "sampled" and self.n_samples < 1:
            raise ModelError(
                f"a sampled campaign needs n_samples >= 1, "
                f"got {self.n_samples}"
            )
        gen = CAMPAIGN_GENERATORS[self.generator]
        if (
            not gen.seeded
            and self.sampling == "product"
            and self.seed_count != 1
        ):
            raise ModelError(
                f"generator {self.generator!r} is unseeded: a product "
                f"campaign over {self.seed_count} seeds would build "
                f"{self.seed_count} identical scenarios per axis point "
                f"(use seed_count=1)"
            )
        object.__setattr__(
            self, "axes", MappingProxyType(self._validated_axes())
        )
        object.__setattr__(
            self, "base_params", MappingProxyType(self._validated_params())
        )

    # ------------------------------------------------------------------
    def _validated_axes(self) -> dict[str, tuple]:
        if not isinstance(self.axes, Mapping):
            raise ModelError(f"axes must be a mapping, got {self.axes!r}")
        axes: dict[str, tuple] = {}
        for name in sorted(self.axes):
            values = self.axes[name]
            if not isinstance(name, str) or not name.isidentifier():
                raise ModelError(
                    f"axis names must be identifiers, got {name!r}"
                )
            if name in _FORBIDDEN_PARAMS:
                raise ModelError(
                    f"axis {name!r} is reserved (the expansion assigns it)"
                )
            if name == _RESERVED_STRUCTURE and self.sweep != "market_structure":
                raise ModelError(
                    f"the {_RESERVED_STRUCTURE!r} axis only applies to "
                    f"market_structure campaigns, not {self.sweep!r} ones"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ModelError(
                    f"axis {name!r} must be a non-empty list, got {values!r}"
                )
            values = tuple(values)
            for value in values:
                if not isinstance(value, _SCALAR_TYPES):
                    raise ModelError(
                        f"axis {name!r} values must be scalars "
                        f"(bool/int/float/str), got {value!r}"
                    )
                if isinstance(value, float) and not np.isfinite(value):
                    raise ModelError(
                        f"axis {name!r} values must be finite, got {value!r}"
                    )
            if name == _RESERVED_STRUCTURE:
                values = tuple(
                    whole(name, value, at_least=1) for value in values
                )
            if len(set(values)) != len(values):
                raise ModelError(
                    f"axis {name!r} holds duplicate values: {values}"
                )
            axes[name] = values
        return axes

    def _validated_params(self) -> dict[str, Any]:
        if not isinstance(self.base_params, Mapping):
            raise ModelError(
                f"base_params must be a mapping, got {self.base_params!r}"
            )
        params: dict[str, Any] = {}
        for name in sorted(self.base_params):
            if not isinstance(name, str) or not name.isidentifier():
                raise ModelError(
                    f"base_params names must be identifiers, got {name!r}"
                )
            if name in _FORBIDDEN_PARAMS:
                raise ModelError(
                    f"base_params {name!r} is reserved "
                    f"(the expansion assigns it)"
                )
            if name in self.axes:
                raise ModelError(
                    f"{name!r} is both an axis and a base parameter; "
                    f"pick one"
                )
            if (
                name == _RESERVED_STRUCTURE
                and self.sweep != "market_structure"
            ):
                raise ModelError(
                    f"the {_RESERVED_STRUCTURE!r} parameter only applies "
                    f"to market_structure campaigns, not {self.sweep!r} ones"
                )
            params[name] = _json_value(name, self.base_params[name])
        return params

    # ------------------------------------------------------------------
    def size(self) -> int:
        """The number of rows expansion produces (without building them)."""
        if self.sampling == "sampled":
            return self.n_samples
        points = 1
        for values in self.axes.values():
            points *= len(values)
        gen = CAMPAIGN_GENERATORS[self.generator]
        return points * (self.seed_count if gen.seeded else 1)

    def _assignments(self) -> list[tuple[int | None, dict[str, Any]]]:
        gen = CAMPAIGN_GENERATORS[self.generator]
        names = sorted(self.axes)
        if self.sampling == "product":
            seeds: list[int | None]
            if gen.seeded:
                seeds = [
                    self.seed_start + k for k in range(self.seed_count)
                ]
            else:
                seeds = [None]
            combos = itertools.product(*(self.axes[n] for n in names))
            return [
                (seed, dict(zip(names, combo)))
                for seed, combo in itertools.product(seeds, combos)
            ]
        rng = np.random.default_rng(self.sample_seed)
        assignments = []
        for k in range(self.n_samples):
            combo = {
                name: self.axes[name][int(rng.integers(len(self.axes[name])))]
                for name in names
            }
            seed = self.seed_start + k if gen.seeded else None
            assignments.append((seed, combo))
        return assignments

    def _build_scenario(
        self, seed: int | None, combo: Mapping[str, Any]
    ) -> ScenarioSpec:
        gen = CAMPAIGN_GENERATORS[self.generator]
        params = dict(self.base_params)
        params.update(combo)
        carriers = params.pop(
            _RESERVED_STRUCTURE, OLIGOPOLY_DEFAULTS[_RESERVED_STRUCTURE]
        )
        oligopoly_kwargs = {}
        competition = {}
        if self.sweep == "market_structure":
            oligopoly_kwargs = {
                key: params.pop(key)
                for key in _OLIGOPOLY_KWARGS
                if key in params
            }
            competition = {
                key: params.pop(key)
                for key in _COMPETITION_KEYS
                if key in params
            }
        dynamics = {}
        if not gen.consumes_dynamics:
            dynamics = {
                key: params.pop(key)
                for key in list(params)
                if key in DYNAMICS_DEFAULTS
            }
        try:
            scenario = gen.build(seed, params)
        except TypeError as exc:
            raise ModelError(
                f"campaign {self.campaign_id!r}: generator "
                f"{self.generator!r} rejected parameters "
                f"{sorted(params)}: {exc}"
            ) from exc
        if dynamics:
            scenario = trajectory_variant(scenario, **dynamics)
        if self.sweep == "market_structure":
            scenario = oligopoly(scenario, carriers, **oligopoly_kwargs)
            if competition:
                scenario = dataclasses.replace(
                    scenario,
                    metadata={**dict(scenario.metadata), **competition},
                )
        return scenario

    def expand(self) -> tuple[CampaignRow, ...]:
        """The deterministic row matrix (pure function of the spec).

        Raises :class:`~repro.exceptions.ModelError` when two rows build
        scenarios with equal digests — a campaign is a set of scenarios.
        """
        from repro.io import scenario_digest

        rows: list[CampaignRow] = []
        seen: dict[str, int] = {}
        names = sorted(self.axes)
        for index, (seed, combo) in enumerate(self._assignments()):
            scenario = self._build_scenario(seed, combo)
            sdigest = scenario_digest(scenario)
            if sdigest in seen:
                raise ModelError(
                    f"campaign {self.campaign_id!r} expands to duplicate "
                    f"scenarios: rows {seen[sdigest]} and {index} both "
                    f"digest to {sdigest[:12]}... (seed {seed!r}, "
                    f"params {combo!r})"
                )
            seen[sdigest] = index
            params = tuple((name, combo[name]) for name in names)
            rows.append(
                CampaignRow(
                    index=index,
                    seed=seed,
                    params=params,
                    sweep=self.sweep,
                    scenario=scenario,
                    scenario_digest=sdigest,
                    digest=_row_digest(self.sweep, seed, combo, sdigest),
                )
            )
        return tuple(rows)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready ``repro-campaign/1`` payload (canonical field set)."""
        return {
            "format": CAMPAIGN_FORMAT,
            "id": self.campaign_id,
            "title": self.title,
            "generator": self.generator,
            "sweep": self.sweep,
            "seed_start": self.seed_start,
            "seed_count": self.seed_count,
            "axes": {
                name: list(values) for name, values in self.axes.items()
            },
            "sampling": self.sampling,
            "n_samples": self.n_samples,
            "sample_seed": self.sample_seed,
            "base_params": dict(self.base_params),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "CampaignSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` output.

        Strict: a wrong format tag or an unknown field raises
        :class:`~repro.exceptions.ModelError` — a campaign file is user
        input, and a typoed axis name must not silently vanish.
        """
        data = resolve(
            {"id": None, "title": "", **CAMPAIGN_DEFAULTS},
            document(payload, CAMPAIGN_FORMAT, "campaign payload"),
            what="campaign field",
        )
        if data["id"] is None:
            raise ModelError("malformed campaign payload: missing 'id'")
        return cls(campaign_id=data.pop("id"), **data)

    def digest(self) -> str:
        """SHA-256 of the canonical serialization — the warehouse key."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """One human-readable line for CLI/status output."""
        mode = (
            f"product over {self.seed_count} seed(s)"
            if self.sampling == "product"
            else f"{self.n_samples} sampled row(s) (sample_seed "
            f"{self.sample_seed})"
        )
        axes = (
            ", ".join(
                f"{name}x{len(values)}" for name, values in self.axes.items()
            )
            or "no axes"
        )
        return (
            f"{self.campaign_id}: {self.generator} x {self.sweep}, "
            f"{mode}, {axes}, {self.size()} row(s)"
        )
