"""Every untrusted settings document rejects a bad value by name.

One table of (document, field, bad value) probes. Each document is a
place where values that users write reach the model: scenario metadata
read by the competition and the oligopoly game, the ``repro-dynamics/1``
block and its shock entries, the ``oligopoly(...)``,
``shocked_market(...)``, ``random_market(...)`` and ``scaled_market(...)``
generators, the refinement spec, the ``repro-campaign/1`` file and a market-structure
campaign's parameters. Every probe must raise
:class:`~repro.exceptions.ModelError` whose message names the field:
booleans, strings, NaN, infinities and fractional counts are never
coerced into numbers.
"""

import dataclasses
import json

import pytest

from repro.campaigns import CampaignSpec
from repro.competition.oligopoly import OligopolyGame, competition_settings
from repro.exceptions import ModelError
from repro.experiments.refine import RefineSpec
from repro.io import CAMPAIGN_FORMAT, scenario_digest
from repro.scenarios import get_scenario
from repro.scenarios.generators import (
    oligopoly,
    random_market,
    scaled_market,
    shocked_market,
)
from repro.simulation.trajectory import DYNAMICS_FORMAT, DynamicsSpec

NAN = float("nan")
INF = float("inf")


def _competition(field, value):
    competition_settings({field: value})


def _dynamics(field, value):
    DynamicsSpec.from_dict({"format": DYNAMICS_FORMAT, field: value})


def _shock(field, value):
    entry = {"step": 1, "field": "price", "scale": 0.9, field: value}
    DynamicsSpec.from_dict({"format": DYNAMICS_FORMAT, "shocks": [entry]})


def _generator(field, value):
    oligopoly(get_scenario("section5"), **{"carriers": 2, field: value})


def _shocked(field, value):
    shocked_market(get_scenario("section5"), 1, **{field: value})


def _random(field, value):
    random_market(1, 4, **{field: value})


def _scaled(field, value):
    scaled_market(4, **{field: value})


def _game(field, value):
    base = get_scenario("oligopoly-4")
    metadata = {**dict(base.metadata), field: value}
    OligopolyGame.from_scenario(dataclasses.replace(base, metadata=metadata))


def _refine(field, value):
    RefineSpec(**{field: value})


def _campaign(field, value):
    CampaignSpec.from_dict(
        {"format": CAMPAIGN_FORMAT, "id": "probe", field: value}
    )


def _campaign_param(field, value):
    # What ``campaign run --param NAME=VALUE`` builds: a value that is not
    # JSON stays a string and must not reach the generator as truthy.
    CampaignSpec(
        campaign_id="probe",
        generator="scaled_market",
        sweep="market_structure",
        base_params={"n_types": 2, field: value},
    ).expand()


DOCUMENTS = {
    "competition": _competition,
    "dynamics": _dynamics,
    "shock": _shock,
    "oligopoly-generator": _generator,
    "shocked-generator": _shocked,
    "random-generator": _random,
    "scaled-generator": _scaled,
    "oligopoly-game": _game,
    "refine": _refine,
    "campaign": _campaign,
    "campaign-param": _campaign_param,
}

PROBES = [
    ("competition", "damping", "0.5"),
    ("competition", "damping", True),
    ("competition", "xtol", True),
    ("competition", "price_range", ["0", "2"]),
    ("competition", "tol", NAN),
    ("competition", "grid_points", 32.5),
    ("competition", "max_sweeps", True),
    ("competition", "iteration_mode", "sor"),
    ("dynamics", "cap", True),
    ("dynamics", "cap", "0.5"),
    ("dynamics", "damping", True),
    ("dynamics", "inertia", True),
    ("dynamics", "price_range", ["0", "2"]),
    ("dynamics", "price_range", [1.0, 1.0]),
    ("dynamics", "horizon", 2.5),
    ("dynamics", "reinvestment_rate", INF),
    ("dynamics", "capacity_cost", "1"),
    ("dynamics", "depreciation", True),
    ("dynamics", "reoptimize_price", "no"),
    ("dynamics", "update", 1),
    ("shock", "scale", True),
    ("shock", "step", True),
    ("shock", "field", "demand"),
    ("oligopoly-generator", "split_capacity", "no"),
    ("oligopoly-generator", "carriers", 2.7),
    ("oligopoly-generator", "carriers", True),
    ("oligopoly-generator", "switching", True),
    ("oligopoly-generator", "cap", "0"),
    ("oligopoly-generator", "iteration_mode", "sor"),
    ("shocked-generator", "n_shocks", True),
    ("shocked-generator", "scale_range", ["0.7", "1.3"]),
    ("shocked-generator", "scale_range", [1.3, 0.7]),
    ("shocked-generator", "horizon", True),
    ("random-generator", "scaled_share", True),
    ("random-generator", "scaled_share", "0.5"),
    ("random-generator", "total_demand", True),
    ("random-generator", "value_range", ["0", "1"]),
    ("random-generator", "value_range", [1.0, 0.0]),
    ("random-generator", "alpha_span", [1.0, NAN]),
    ("random-generator", "beta_span", "15"),
    ("random-generator", "price", True),
    ("random-generator", "capacity", "1"),
    ("scaled-generator", "total_demand", True),
    ("scaled-generator", "total_demand", 0.0),
    ("scaled-generator", "alpha_span", [5.0, "1"]),
    ("scaled-generator", "beta_span", True),
    ("scaled-generator", "price", INF),
    ("scaled-generator", "capacity", True),
    ("oligopoly-game", "carriers", True),
    ("oligopoly-game", "carriers", 2.7),
    ("oligopoly-game", "split_capacity", "no"),
    ("oligopoly-game", "switching", "2"),
    ("oligopoly-game", "cap", True),
    ("refine", "levels", True),
    ("refine", "levels", 1.5),
    ("refine", "threshold", True),
    ("refine", "boundary_tol", NAN),
    ("refine", "breakpoints", "yes"),
    ("campaign", "seed_count", True),
    ("campaign", "seed_count", 2.5),
    ("campaign", "seed_start", "0"),
    ("campaign", "n_samples", True),
    ("campaign", "sample_seed", 0.5),
    ("campaign", "sampling", "grid"),
    ("campaign", "title", 5),
    ("campaign-param", "n_types", True),
    ("campaign-param", "split_capacity", "no"),
    ("campaign-param", "carriers", True),
    ("campaign-param", "switching", "2"),
    ("campaign-param", "total_demand", True),
]


@pytest.mark.parametrize(("document", "field", "value"), PROBES)
def test_a_bad_value_raises_model_error_naming_the_field(
    document, field, value
):
    with pytest.raises(ModelError) as excinfo:
        DOCUMENTS[document](field, value)
    assert field in str(excinfo.value)


def test_a_dynamics_block_of_booleans_is_rejected():
    # Every float field of this block used to read true as 1.0.
    block = json.loads(
        '{"format": "repro-dynamics/1", "cap": true, "inertia": true, '
        '"shocks": [{"step": 1, "field": "price", "scale": true}]}'
    )
    with pytest.raises(ModelError, match="scale"):
        DynamicsSpec.from_dict(block)
    block["shocks"] = []
    with pytest.raises(ModelError, match="cap"):
        DynamicsSpec.from_dict(block)


def test_an_integral_float_is_a_whole_number():
    counts = [
        competition_settings({"grid_points": 32.0}).grid_points,
        competition_settings({"max_sweeps": 7.0}).policy.max_sweeps,
        DynamicsSpec.from_dict(
            {"format": DYNAMICS_FORMAT, "horizon": 5.0}
        ).horizon,
        RefineSpec(levels=2.0).levels,
        CampaignSpec.from_dict(
            {"format": CAMPAIGN_FORMAT, "id": "probe", "seed_count": 3.0}
        ).seed_count,
    ]
    assert counts == [32, 7, 5, 2, 3]
    assert all(type(count) is int for count in counts)


def test_an_integral_float_seed_count_keeps_the_campaign_digest():
    payload = {"format": CAMPAIGN_FORMAT, "id": "probe", "seed_count": 3}
    assert (
        CampaignSpec.from_dict({**payload, "seed_count": 3.0}).digest()
        == CampaignSpec.from_dict(payload).digest()
    )


def test_valid_generator_knobs_keep_their_digests():
    # Integers and lists where the defaults are floats and tuples, and
    # degenerate spans: the market, its metadata and so its digest are
    # what they were before the knobs went through the value rules.
    digests = [
        scenario_digest(random_market(
            3, 5, total_demand=2, price=1, capacity=2, alpha_span=[1, 3],
            beta_span=(2, 2), value_range=[0.5, 0.5], scaled_share=1,
        )),
        scenario_digest(scaled_market(
            9, total_demand=3, price=0, capacity=1, alpha_span=[2, 2],
            beta_span=(1.5, 4),
        )),
    ]
    assert digests == [
        "550f56b5efa011f3e29132aee908d59ac24dda5a30afb90a7a923386976bc189",
        "b0b5961795df1906303a1edc4895be8cfa57620436270b8b8315c5029a7fbcdc",
    ]
