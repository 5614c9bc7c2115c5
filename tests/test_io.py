"""Unit tests for repro.io — market and scenario serialization."""

import json

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.io import (
    _FAMILIES,
    load_market,
    load_scenario,
    market_from_dict,
    market_to_dict,
    save_market,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
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
from repro.providers import AccessISP, ContentProvider, Market, exponential_cp
from repro.scenarios import ScenarioSpec, random_market, scaled_market

#: One representative instance per serializable family, with non-default
#: parameters so a lossy round trip cannot hide behind defaults. Every
#: family registered in ``repro.io._FAMILIES`` must appear here — the
#: parametrized round-trip test below fails on a newly registered family
#: until an exemplar is added.
FAMILY_EXEMPLARS = {
    "ExponentialDemand": ExponentialDemand(alpha=2.5, scale=1.2),
    "LogitDemand": LogitDemand(alpha=4.0, midpoint=0.7, scale=1.5),
    "LinearDemand": LinearDemand(base=1.4, slope=0.6, smoothing=2e-3),
    "ShiftedPowerDemand": ShiftedPowerDemand(alpha=1.8, scale=0.9),
    "ScaledDemand": ScaledDemand(
        ScaledDemand(LogitDemand(alpha=3.0, midpoint=0.5), 0.5), 0.4
    ),
    "ExponentialThroughput": ExponentialThroughput(beta=3.5, peak=1.1),
    "PowerLawThroughput": PowerLawThroughput(beta=2.5, peak=1.2),
    "RationalThroughput": RationalThroughput(beta=1.5, peak=0.9),
    "LinearUtilization": LinearUtilization(),
    "PowerLawUtilization": PowerLawUtilization(gamma=1.7),
    "MM1Utilization": MM1Utilization(),
}

_FALLBACK_DEMAND = ExponentialDemand(alpha=1.0)
_FALLBACK_THROUGHPUT = ExponentialThroughput(beta=1.0)


def market_embedding(func) -> Market:
    """A market carrying ``func`` in its natural slot (demand/throughput/Φ)."""
    demand, throughput, utilization = (
        _FALLBACK_DEMAND, _FALLBACK_THROUGHPUT, LinearUtilization(),
    )
    if isinstance(func, DemandFunction):
        demand = func
    elif isinstance(func, ThroughputFunction):
        throughput = func
    elif isinstance(func, UtilizationFunction):
        utilization = func
    else:  # pragma: no cover - exemplar table out of sync
        raise TypeError(f"unknown family kind: {type(func).__name__}")
    return Market(
        [ContentProvider(demand=demand, throughput=throughput, value=0.3)],
        AccessISP(price=1.0, capacity=1.5, utilization=utilization),
    )


def rich_market() -> Market:
    """A market touching every serializable family."""
    return Market(
        [
            exponential_cp(2.0, 3.0, value=1.0, name="exp-cp"),
            ContentProvider(
                demand=ScaledDemand(LogitDemand(alpha=4.0, midpoint=0.7), 0.3),
                throughput=PowerLawThroughput(beta=2.5, peak=1.2),
                value=0.4,
                name="wrapped-cp",
            ),
        ],
        AccessISP(price=0.9, capacity=2.0, utilization=MM1Utilization(), name="isp"),
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_behavior(self):
        market = rich_market()
        rebuilt = market_from_dict(market_to_dict(market))
        s = [0.2, 0.1]
        original = market.solve(s)
        copy = rebuilt.solve(s)
        assert copy.utilization == pytest.approx(original.utilization, rel=1e-12)
        np.testing.assert_allclose(copy.throughputs, original.throughputs)
        np.testing.assert_allclose(copy.utilities, original.utilities)

    def test_file_round_trip(self, tmp_path):
        market = rich_market()
        path = tmp_path / "nested" / "market.json"
        save_market(market, path)
        rebuilt = load_market(path)
        assert rebuilt.isp.price == market.isp.price
        assert rebuilt.provider_names() == market.provider_names()

    def test_paper_scenarios_round_trip(self, tmp_path):
        from repro.experiments.scenarios import section3_market, section5_market

        for market in (section3_market(), section5_market()):
            path = tmp_path / "m.json"
            save_market(market, path)
            rebuilt = load_market(path)
            assert rebuilt.solve().utilization == pytest.approx(
                market.solve().utilization, rel=1e-12
            )

    def test_output_is_plain_json(self, tmp_path):
        path = tmp_path / "m.json"
        save_market(rich_market(), path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-market/1"
        assert payload["isp"]["utilization"]["type"] == "MM1Utilization"


class TestEveryFamilyRoundTrips:
    """Satellite guard: a newly registered family cannot silently break IO.

    Parametrized over ``repro.io._FAMILIES`` itself — registering a family
    without adding an exemplar here fails the lookup assertion, and the
    exemplar then proves the family (including nested wrappers like
    ``ScaledDemand``) reconstructs exactly.
    """

    @pytest.mark.parametrize("family_name", sorted(_FAMILIES))
    def test_family_round_trip(self, family_name):
        assert family_name in FAMILY_EXEMPLARS, (
            f"{family_name} is registered in repro.io._FAMILIES but has no "
            "exemplar in FAMILY_EXEMPLARS; add one so serialization of the "
            "new family is covered"
        )
        exemplar = FAMILY_EXEMPLARS[family_name]
        market = market_embedding(exemplar)
        rebuilt = market_from_dict(market_to_dict(market))
        slots = [
            rebuilt.providers[0].demand,
            rebuilt.providers[0].throughput,
            rebuilt.isp.utilization,
        ]
        # Frozen dataclasses compare by value, nested wrappers included.
        assert exemplar in slots

    def test_exemplars_cover_exactly_the_registry(self):
        assert set(FAMILY_EXEMPLARS) == set(_FAMILIES)


class TestScenarioFormat:
    def make_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            scenario_id="io-test",
            title="io round-trip scenario",
            market=rich_market(),
            prices=(0.0, 0.5, 1.0),
            policy_levels=(0.0, 1.0),
            metadata={"source": "test", "seed": 3},
        )

    def test_dict_round_trip(self):
        spec = self.make_spec()
        rebuilt = scenario_from_dict(scenario_to_dict(spec))
        assert scenario_to_dict(rebuilt) == scenario_to_dict(spec)
        assert rebuilt.scenario_id == "io-test"
        assert rebuilt.prices == spec.prices
        assert rebuilt.policy_levels == spec.policy_levels
        assert dict(rebuilt.metadata) == {"source": "test", "seed": 3}

    def test_file_round_trip(self, tmp_path):
        spec = self.make_spec()
        path = tmp_path / "nested" / "scenario.json"
        save_scenario(spec, path)
        rebuilt = load_scenario(path)
        assert scenario_to_dict(rebuilt) == scenario_to_dict(spec)

    def test_output_is_versioned_json_embedding_the_market(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(self.make_spec(), path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-scenario/1"
        assert payload["market"]["format"] == "repro-market/1"

    def test_generated_scenarios_round_trip_with_seed(self):
        for spec in (random_market(99, 5), scaled_market(16)):
            rebuilt = scenario_from_dict(scenario_to_dict(spec))
            assert scenario_to_dict(rebuilt) == scenario_to_dict(spec)
        assert scenario_from_dict(
            scenario_to_dict(random_market(99, 5))
        ).metadata["seed"] == 99

    def test_market_payload_accepted_as_scenario(self):
        # repro-scenario/1 is a superset: a bare market file loads too.
        spec = scenario_from_dict(market_to_dict(rich_market()))
        assert spec.scenario_id == "imported-market"
        assert spec.size == 2
        assert len(spec.prices) == 41  # default paper axes

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelError):
            scenario_from_dict({"format": "something-else"})

    def test_missing_keys_rejected(self):
        payload = scenario_to_dict(self.make_spec())
        del payload["market"]
        with pytest.raises(ModelError):
            scenario_from_dict(payload)


class TestDynamicsBlock:
    """The versioned repro-dynamics/1 block riding in scenario metadata."""

    def make_spec(self, **dynamics_kwargs) -> ScenarioSpec:
        from repro.simulation import DynamicsSpec, Shock

        block = DynamicsSpec(
            kind="capacity",
            horizon=6,
            cap=0.5,
            shocks=(Shock(3, "capacity", 0.8),),
            **dynamics_kwargs,
        ).to_metadata()
        return ScenarioSpec(
            scenario_id="io-dyn",
            title="dynamics round-trip scenario",
            market=rich_market(),
            prices=(0.0, 1.0),
            policy_levels=(0.0,),
            metadata={"dynamics": block},
        )

    def test_block_round_trips_bitwise(self):
        from repro.io import dynamics_from_dict

        spec = self.make_spec()
        payload = json.loads(json.dumps(scenario_to_dict(spec)))
        rebuilt = scenario_from_dict(payload)
        assert scenario_to_dict(rebuilt) == scenario_to_dict(spec)
        restored = dynamics_from_dict(rebuilt.metadata["dynamics"])
        assert restored.horizon == 6
        assert restored.shocks[0].scale == 0.8

    def test_block_has_its_own_format_tag(self, tmp_path):
        from repro.io import DYNAMICS_FORMAT

        path = tmp_path / "s.json"
        save_scenario(self.make_spec(), path)
        payload = json.loads(path.read_text())
        assert payload["metadata"]["dynamics"]["format"] == DYNAMICS_FORMAT

    def test_malformed_block_rejected_on_load(self):
        payload = scenario_to_dict(self.make_spec())
        payload["metadata"]["dynamics"]["format"] = "repro-dynamics/999"
        with pytest.raises(ModelError):
            scenario_from_dict(payload)

    def test_unknown_block_field_rejected_on_load(self):
        payload = scenario_to_dict(self.make_spec())
        payload["metadata"]["dynamics"]["mystery"] = 1
        with pytest.raises(ModelError):
            scenario_from_dict(payload)

    def test_malformed_block_rejected_on_save(self):
        spec = ScenarioSpec(
            scenario_id="io-dyn-bad",
            title="bad block",
            market=rich_market(),
            prices=(0.0, 1.0),
            policy_levels=(0.0,),
            metadata={"dynamics": {"format": "nope"}},
        )
        with pytest.raises(ModelError):
            scenario_to_dict(spec)

    def test_dynamics_from_dict_requires_mapping(self):
        from repro.io import dynamics_from_dict

        with pytest.raises(ModelError):
            dynamics_from_dict(["not", "a", "mapping"])


class TestErrorHandling:
    def test_unknown_family_rejected(self):
        payload = market_to_dict(rich_market())
        payload["isp"]["utilization"]["type"] = "EvilClass"
        with pytest.raises(ModelError):
            market_from_dict(payload)

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelError):
            market_from_dict({"format": "something-else"})

    def test_malformed_function_payload_rejected(self):
        payload = market_to_dict(rich_market())
        payload["providers"][0]["demand"] = {"nope": 1}
        with pytest.raises(ModelError):
            market_from_dict(payload)

    def test_unserializable_family_rejected(self):
        from repro.network.demand import DemandFunction

        class CustomDemand(DemandFunction):
            def population(self, price):
                return 1.0

            def d_population(self, price):
                return 0.0

        market = Market(
            [
                ContentProvider(
                    demand=CustomDemand(),
                    throughput=PowerLawThroughput(beta=1.0),
                    value=0.1,
                )
            ],
            AccessISP(price=1.0, capacity=1.0),
        )
        with pytest.raises(ModelError):
            market_to_dict(market)
