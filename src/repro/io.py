"""Scenario (de)serialization: markets and scenario specs to/from JSON.

Two versioned formats:

* ``repro-market/1`` — a bare market (providers + ISP):

      from repro.io import save_market, load_market
      save_market(market, "market.json")
      market = load_market("market.json")

* ``repro-scenario/1`` — a full :class:`~repro.scenarios.spec.ScenarioSpec`
  (market + sweep axes + metadata), a superset embedding the market
  payload. Generated scenarios round-trip with their provenance — e.g. a
  ``random_market`` seed — intact:

      from repro.io import save_scenario, load_scenario
      save_scenario(spec, "scenario.json")
      spec = load_scenario("scenario.json")

  :func:`load_scenario` also accepts a plain ``repro-market/1`` file,
  wrapping it with the default paper axes.

A third versioned block, ``repro-dynamics/1``, rides *inside* the scenario
format: when ``metadata["dynamics"]`` is present it declares a market
trajectory (step policy, horizon, investment rule, shock schedule — see
:class:`~repro.simulation.DynamicsSpec`), and both directions of the
scenario round trip validate it
(:meth:`~repro.simulation.DynamicsSpec.to_metadata` writes it,
:func:`dynamics_from_dict` reads it), so a malformed trajectory block fails at
load/save time with :class:`~repro.exceptions.ModelError`, never mid-run.

A fourth versioned format, ``repro-campaign/1``, declares a *campaign* —
a scenario generator crossed with seed ranges and parameter axes, the
unit the :mod:`repro.campaigns` subsystem expands into thousands of
content-keyed rows:

    from repro.io import save_campaign, load_campaign
    save_campaign(spec, "campaign.json")
    spec = load_campaign("campaign.json")

Every functional-family class in :mod:`repro.network` is a frozen
dataclass, so serialization is generic: ``{"type": <class name>,
"params": {field: value}}`` with recursion for wrapper families
(:class:`~repro.network.demand.ScaledDemand`). Unknown type names raise
:class:`~repro.exceptions.ModelError` — the registry is explicit, not
import-driven, so loading a file can never execute arbitrary classes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any

#: Format tag of a bare-market JSON payload.
MARKET_FORMAT = "repro-market/1"

#: Format tag of a scenario-spec JSON payload (superset of the market one).
SCENARIO_FORMAT = "repro-scenario/1"

#: Format tag of a campaign-spec JSON payload (generator x seeds x axes).
#: Defined ahead of the repro imports below: :mod:`repro.campaigns.spec`
#: sits on an import cycle with this module and must be able to read the
#: tag while :mod:`repro.io` is still initializing.
CAMPAIGN_FORMAT = "repro-campaign/1"

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
from repro.network.utilization import (
    LinearUtilization,
    MM1Utilization,
    PowerLawUtilization,
    UtilizationFunction,
)
from repro.providers.content_provider import ContentProvider
from repro.providers.isp import AccessISP
from repro.providers.market import Market
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.trajectory import DYNAMICS_FORMAT, DynamicsSpec

__all__ = [
    "MARKET_FORMAT",
    "SCENARIO_FORMAT",
    "DYNAMICS_FORMAT",
    "market_to_dict",
    "market_from_dict",
    "save_market",
    "load_market",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "dynamics_from_dict",
    "market_digest",
    "scenario_digest",
    "CAMPAIGN_FORMAT",
    "campaign_to_dict",
    "campaign_from_dict",
    "save_campaign",
    "load_campaign",
    "campaign_digest",
]

_FAMILIES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ExponentialDemand,
        LogitDemand,
        LinearDemand,
        ShiftedPowerDemand,
        ScaledDemand,
        ExponentialThroughput,
        PowerLawThroughput,
        RationalThroughput,
        LinearUtilization,
        PowerLawUtilization,
        MM1Utilization,
    )
}

_NESTED_FIELDS = {"inner"}


def _function_to_dict(func: Any) -> dict:
    name = type(func).__name__
    if name not in _FAMILIES:
        raise ModelError(
            f"{name} is not a serializable family; registered families: "
            f"{sorted(_FAMILIES)}"
        )
    params = {}
    for field in dataclasses.fields(func):
        value = getattr(func, field.name)
        if field.name in _NESTED_FIELDS:
            params[field.name] = _function_to_dict(value)
        else:
            params[field.name] = value
    return {"type": name, "params": params}


def _function_from_dict(payload: dict) -> Any:
    try:
        name = payload["type"]
        params = dict(payload["params"])
    except (TypeError, KeyError) as exc:
        raise ModelError(f"malformed function payload: {payload!r}") from exc
    if name not in _FAMILIES:
        raise ModelError(f"unknown function family {name!r}")
    for key in list(params):
        if key in _NESTED_FIELDS:
            params[key] = _function_from_dict(params[key])
    return _FAMILIES[name](**params)


def market_to_dict(market: Market) -> dict:
    """JSON-ready dictionary for a market (providers + ISP)."""
    isp = market.isp
    return {
        "format": MARKET_FORMAT,
        "isp": {
            "price": isp.price,
            "capacity": isp.capacity,
            "name": isp.name,
            "utilization": _function_to_dict(isp.utilization),
        },
        "providers": [
            {
                "name": cp.name,
                "value": cp.value,
                "demand": _function_to_dict(cp.demand),
                "throughput": _function_to_dict(cp.throughput),
            }
            for cp in market.providers
        ],
    }


def market_from_dict(payload: dict) -> Market:
    """Rebuild a market from :func:`market_to_dict` output."""
    if payload.get("format") != MARKET_FORMAT:
        raise ModelError(
            f"unsupported market format {payload.get('format')!r}"
        )
    isp_data = payload["isp"]
    isp = AccessISP(
        price=isp_data["price"],
        capacity=isp_data["capacity"],
        utilization=_function_from_dict(isp_data["utilization"]),
        name=isp_data.get("name", "access-isp"),
    )
    providers = [
        ContentProvider(
            demand=_function_from_dict(item["demand"]),
            throughput=_function_from_dict(item["throughput"]),
            value=item["value"],
            name=item.get("name", ""),
        )
        for item in payload["providers"]
    ]
    return Market(providers, isp)


def save_market(market: Market, path: str | Path, *, indent: int = 2) -> None:
    """Serialize a market to a JSON file (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(market_to_dict(market), handle, indent=indent)
        handle.write("\n")


def load_market(path: str | Path) -> Market:
    """Load a market from a JSON file written by :func:`save_market`."""
    with open(path) as handle:
        payload = json.load(handle)
    return market_from_dict(payload)


def market_digest(market: Market) -> str:
    """SHA-256 digest of a market's canonical serialization.

    The content-address of a market: two instances built from equal
    parameters digest identically, any economic difference — a provider
    parameter, the ISP price, the utilization metric — changes it. This is
    what the solve service keys persistent artifacts by (see
    :func:`repro.engine.cache.market_fingerprint`). Raises
    :class:`~repro.exceptions.ModelError` for markets containing
    unregistered function families, which have no canonical form.
    """
    payload = json.dumps(
        market_to_dict(market), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def scenario_digest(spec: ScenarioSpec) -> str:
    """SHA-256 digest of a scenario's canonical serialization.

    Covers the market *and* the sweep axes (ids/titles/metadata included),
    so equal digests mean the scenarios describe the same experiment
    end to end.
    """
    payload = json.dumps(
        scenario_to_dict(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def dynamics_from_dict(payload: dict) -> "DynamicsSpec":
    """Rebuild (and validate) a trajectory spec from its versioned block.

    Raises :class:`~repro.exceptions.ModelError` on a wrong format tag,
    unknown field or malformed value — the scenario round trip calls this
    on any ``metadata["dynamics"]`` entry, so a bad block can never reach
    a solve.
    """
    return DynamicsSpec.from_dict(payload)


def _validated_metadata(metadata: dict) -> dict:
    """Validate versioned blocks riding in scenario metadata."""
    if "dynamics" in metadata:
        dynamics_from_dict(metadata["dynamics"])
    return metadata


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """JSON-ready dictionary for a scenario spec (``repro-scenario/1``)."""
    return {
        "format": SCENARIO_FORMAT,
        "id": spec.scenario_id,
        "title": spec.title,
        "market": market_to_dict(spec.market),
        "prices": list(spec.prices),
        "policy_levels": list(spec.policy_levels),
        "metadata": _validated_metadata(dict(spec.metadata)),
    }


def scenario_from_dict(payload: dict) -> ScenarioSpec:
    """Rebuild a scenario from :func:`scenario_to_dict` output.

    Accepts a bare ``repro-market/1`` payload as well (the scenario format
    is a superset): the market is wrapped with the default paper axes and
    an ``"imported-market"`` id.
    """
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt == MARKET_FORMAT:
        return ScenarioSpec(
            scenario_id="imported-market",
            title="Market imported from a repro-market/1 file",
            market=market_from_dict(payload),
            metadata={"source": MARKET_FORMAT},
        )
    if fmt != SCENARIO_FORMAT:
        raise ModelError(f"unsupported scenario format {fmt!r}")
    try:
        market_payload = payload["market"]
        scenario_id = payload["id"]
        prices = payload["prices"]
        policy_levels = payload["policy_levels"]
    except KeyError as exc:
        raise ModelError(f"malformed scenario payload: missing {exc}") from exc
    return ScenarioSpec(
        scenario_id=scenario_id,
        title=payload.get("title", scenario_id),
        market=market_from_dict(market_payload),
        prices=tuple(prices),
        policy_levels=tuple(policy_levels),
        metadata=_validated_metadata(dict(payload.get("metadata", {}))),
    )


def save_scenario(spec: ScenarioSpec, path: str | Path, *, indent: int = 2) -> None:
    """Serialize a scenario spec to a JSON file (creating parent dirs)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(scenario_to_dict(spec), handle, indent=indent)
        handle.write("\n")


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load a scenario (or bare market) from a JSON file."""
    with open(path) as handle:
        payload = json.load(handle)
    return scenario_from_dict(payload)


# ----------------------------------------------------------------------
# repro-campaign/1 — campaign specs (generator x seeds x axes x sweep).
# The CampaignSpec import stays inside the functions: campaigns.spec
# imports this module for the format tag and scenario digests.


def campaign_to_dict(spec: "Any") -> dict:
    """JSON-ready ``repro-campaign/1`` payload for a campaign spec."""
    from repro.campaigns.spec import CampaignSpec

    if not isinstance(spec, CampaignSpec):
        raise ModelError(
            f"expected a CampaignSpec, got {type(spec).__name__}"
        )
    return spec.to_dict()


def campaign_from_dict(payload: Any) -> "Any":
    """Rebuild (and re-validate) a campaign spec from its payload.

    Strict by design: a wrong format tag or unknown field raises
    :class:`~repro.exceptions.ModelError`.
    """
    from repro.campaigns.spec import CampaignSpec

    return CampaignSpec.from_dict(payload)


def save_campaign(spec: "Any", path: str | Path, *, indent: int = 2) -> None:
    """Serialize a campaign spec to a JSON file (creating parent dirs)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(campaign_to_dict(spec), handle, indent=indent)
        handle.write("\n")


def load_campaign(path: str | Path) -> "Any":
    """Load a campaign spec from a JSON file written by :func:`save_campaign`."""
    with open(path) as handle:
        payload = json.load(handle)
    return campaign_from_dict(payload)


def campaign_digest(spec: "Any") -> str:
    """SHA-256 digest of a campaign's canonical serialization.

    The warehouse key: every expanded row of the campaign lands under
    this digest, and a rerun of an equal spec resumes against it.
    """
    payload = json.dumps(
        campaign_to_dict(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()
