"""The runner's oligopoly verb."""

import json

import pytest

from repro.engine import set_default_service
from repro.experiments.runner import main


@pytest.fixture(autouse=True)
def fresh_default_service():
    """Each test starts (and leaves) a clean process-wide service.

    Without this, a verb run without ``--cache-dir`` memoizes its sweeps
    in the shared default service and a later test's identical scenario
    resolves as memory hits — ``computed`` counters would depend on test
    order.
    """
    set_default_service(None)
    yield
    set_default_service(None)
from repro.io import save_scenario
from repro.providers import AccessISP, Market, exponential_cp
from repro.scenarios import ScenarioSpec, oligopoly


@pytest.fixture
def scenario_file(tmp_path):
    """A 1-CP, 2-carrier competition scenario with coarse solve settings."""
    base = ScenarioSpec(
        scenario_id="cli-base",
        title="one CP type",
        market=Market(
            [exponential_cp(2.0, 2.0, value=1.0)],
            AccessISP(price=1.0, capacity=1.0),
        ),
        prices=(0.5, 1.0),
        policy_levels=(0.0,),
    )
    spec = oligopoly(base, 2, cap=0.3, scenario_id="cli-olig")
    metadata = dict(spec.metadata)
    metadata.update(
        {
            "grid_points": 6,
            "xtol": 1e-3,
            "tol": 1e-2,
            "price_range": [0.05, 2.0],
        }
    )
    spec = ScenarioSpec(
        scenario_id=spec.scenario_id,
        title=spec.title,
        market=spec.market,
        prices=spec.prices,
        policy_levels=spec.policy_levels,
        metadata=metadata,
    )
    path = tmp_path / "cli-olig.json"
    save_scenario(spec, path)
    return str(path)


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestOligopolyVerb:
    def test_json_summary_with_per_carrier_counters(
        self, scenario_file, capsys
    ):
        code, payload = run_json(
            ["oligopoly", "--scenario-file", scenario_file, "--json"], capsys
        )
        assert code == 0
        assert payload["scenario"] == "cli-olig"
        assert payload["carriers"] == 2
        assert payload["mode"] == "gauss-seidel"
        assert payload["converged"] is True
        assert len(payload["prices"]) == 2
        assert len(payload["shares"]) == 2
        assert sum(payload["shares"]) == pytest.approx(1.0)
        assert len(payload["carrier_stats"]) == 2
        for stats in payload["carrier_stats"]:
            assert stats["sweeps"] == payload["iterations"]
            assert stats["solves"] > 0
        assert payload["cache"]["computed"] > 0

    def test_run_oligopoly_routes_to_the_verb(self, scenario_file, capsys):
        code, payload = run_json(
            ["run", "oligopoly", "--scenario-file", scenario_file, "--json"],
            capsys,
        )
        assert code == 0
        assert payload["scenario"] == "cli-olig"

    def test_flag_overrides_metadata(self, scenario_file, capsys):
        code, payload = run_json(
            [
                "oligopoly", "--scenario-file", scenario_file,
                "--carriers", "3", "--mode", "jacobi", "--json",
            ],
            capsys,
        )
        assert code == 0
        assert payload["carriers"] == 3
        assert payload["mode"] == "jacobi"
        assert len(payload["prices"]) == 3

    def test_human_summary(self, scenario_file, capsys):
        code = main(["oligopoly", "--scenario-file", scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 carrier(s)" in out
        assert "converged in" in out
        assert "industry revenue" in out
        assert "solve service:" in out

    def test_warm_store_rerun_reports_zero_computed(
        self, scenario_file, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        argv = [
            "oligopoly", "--scenario-file", scenario_file,
            "--cache-dir", store, "--json",
        ]
        code, cold = run_json(argv, capsys)
        assert code == 0
        assert cold["cache"]["computed"] > 0
        code, warm = run_json(argv, capsys)
        assert code == 0
        assert warm["cache"]["computed"] == 0
        assert warm["cache"]["store_hits"] > 0
        assert warm["prices"] == cold["prices"]

    def test_unknown_scenario_id_fails_cleanly(self, capsys):
        code = main(["oligopoly", "no-such-scenario"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown scenario" in err

    def test_unreadable_scenario_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["oligopoly", "--scenario-file", str(tmp_path / "absent.json")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot load scenario" in err

    def test_non_convergence_exits_one(self, scenario_file, capsys):
        code = main(
            [
                "oligopoly", "--scenario-file", scenario_file,
                "--max-sweeps", "1", "--tol", "1e-12",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "FAIL" in err
        assert "not converged" in err

    def test_malformed_metadata_exits_cleanly(self, tmp_path, capsys):
        # Scenario files are user input: bad competition metadata must be
        # a clean usage error, not a traceback.
        from repro.providers import AccessISP, Market, exponential_cp
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec(
            scenario_id="bad-meta",
            title="t",
            market=Market(
                [exponential_cp(2.0, 2.0, value=1.0)],
                AccessISP(price=1.0, capacity=1.0),
            ),
            prices=(0.5, 1.0),
            policy_levels=(0.0,),
            metadata={"carriers": 2, "price_range": [1.0]},
        )
        path = tmp_path / "bad.json"
        save_scenario(spec, path)
        with pytest.raises(SystemExit) as excinfo:
            main(["oligopoly", "--scenario-file", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid competition settings" in err

    @pytest.mark.parametrize("key", ["max_sweeps", "grid_points"])
    def test_infinite_count_in_scenario_file_exits_two(
        self, scenario_file, tmp_path, key, capsys
    ):
        # JSON's ``Infinity`` parses to a float that int() overflows on.
        doc = json.loads(open(scenario_file).read())
        doc["metadata"][key] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
        with pytest.raises(SystemExit) as excinfo:
            main(["oligopoly", "--scenario-file", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid competition settings" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--price-range", "3", "0"],
            ["--price-range", "-1", "3"],
            ["--price-range", "0", "inf"],
            ["--grid-points", "2"],
            ["--xtol", "nan"],
            ["--xtol", "0"],
            ["--tol", "inf"],
            ["--tol", "nan"],
        ],
    )
    def test_malformed_search_flag_exits_two_without_traceback(
        self, scenario_file, flags, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["oligopoly", "--scenario-file", scenario_file, *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid competition settings" in err
        assert "Traceback" not in err

    def test_conflicting_cache_flags_rejected(self, scenario_file):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "oligopoly", "--scenario-file", scenario_file,
                    "--no-cache", "--cache-dir", "x",
                ]
            )
        assert excinfo.value.code == 2
