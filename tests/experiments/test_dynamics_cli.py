"""The ``dynamics`` CLI verb: flags, JSON counters, resumability."""

import json

import pytest

from repro.experiments.runner import main
from repro.io import save_scenario
from repro.scenarios import scaled_market, trajectory_variant


@pytest.fixture
def scenario_file(tmp_path):
    base = scaled_market(
        4,
        prices=(0.5, 1.0),
        policy_levels=(0.0, 1.0),
        scenario_id="cli-dyn-base",
    )
    scn = trajectory_variant(
        base,
        kind="capacity",
        horizon=4,
        cap=0.5,
        scenario_id="cli-dyn",
    )
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDynamicsVerb:
    def test_json_summary(self, capsys, tmp_path, scenario_file):
        code, out, _ = run_cli(
            capsys,
            "dynamics",
            "--scenario-file", str(scenario_file),
            "--json",
            "--out", str(tmp_path / "results"),
            "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "cli-dyn"
        assert payload["kind"] == "capacity"
        assert payload["horizon"] == 4
        assert "segments" not in payload
        assert payload["records"] == 5
        assert payload["cache"]["computed"] == 1
        assert set(payload["final"]) == {
            "step", "adoption", "utilization", "revenue", "welfare",
            "capacity", "price",
        }
        assert (tmp_path / "results" / "cli-dyn-trajectory.csv").is_file()

    def test_flags_override_metadata(self, capsys, tmp_path, scenario_file):
        code, out, _ = run_cli(
            capsys,
            "dynamics",
            "--scenario-file", str(scenario_file),
            "--horizon", "2",
            "--cap", "1.0",
            "--json",
            "--out", str(tmp_path / "results"),
            "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["horizon"] == 2
        assert payload["records"] == 3

    def test_run_dynamics_alias_and_registered_scenario(
        self, capsys, tmp_path
    ):
        code, out, _ = run_cli(
            capsys,
            "run", "dynamics", "dynamics-20",
            "--horizon", "2",
            "--json",
            "--out", str(tmp_path / "results"),
            "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "dynamics-20"
        assert payload["cache"]["computed"] == 1

    def test_warm_cache_dir_rerun_is_solve_free(
        self, capsys, tmp_path, scenario_file
    ):
        argv = (
            "dynamics",
            "--scenario-file", str(scenario_file),
            "--json",
            "--out", str(tmp_path / "results"),
            "--cache-dir", str(tmp_path / "store"),
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        cold = json.loads(out)
        assert cold["cache"]["computed"] == 1
        assert cold["cache"]["store"]["entries"] == 1

        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        warm = json.loads(out)
        assert warm["cache"]["computed"] == 0
        assert warm["cache"]["store_hits"] == 1
        assert warm["final"] == cold["final"]

    def test_human_output_mentions_the_trajectory_and_cache(
        self, capsys, tmp_path, scenario_file
    ):
        code, out, _ = run_cli(
            capsys,
            "dynamics",
            "--scenario-file", str(scenario_file),
            "--out", str(tmp_path / "results"),
            "--no-cache",
        )
        assert code == 0
        assert "capacity trajectory" in out
        assert "segment" not in out
        assert "solve service:" in out

    def test_unknown_scenario_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "dynamics", "not-a-scenario")
        assert code == 2
        assert "unknown scenario" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "dynamics", "--scenario-file", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "cannot load scenario" in err

    def test_bad_flag_value_exits_2(self, capsys, tmp_path, scenario_file):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "dynamics",
                    "--scenario-file", str(scenario_file),
                    "--horizon", "0",
                ]
            )
        assert excinfo.value.code == 2
        assert "horizon" in capsys.readouterr().err
