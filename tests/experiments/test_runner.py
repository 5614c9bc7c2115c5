"""Unit tests for the experiments CLI."""

import json

import numpy as np
import pytest

from repro.engine import SolveCache, SolveService, set_default_service
from repro.experiments import fig04
from repro.experiments.runner import (
    EXPERIMENT_SPECS,
    EXPERIMENTS,
    canonical_experiment,
    main,
    resolve_experiments,
    run_experiments,
)


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {
            "fig4",
            "fig5",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
        }

    def test_specs_mirror_experiments(self):
        assert set(EXPERIMENT_SPECS) == set(EXPERIMENTS)
        for key, spec in EXPERIMENT_SPECS.items():
            assert spec.experiment_id == key


class TestResolveExperiments:
    def test_upfront_validation_rejects_before_running(self, tmp_path):
        # An unknown name *after* valid ones must abort before anything
        # runs — no partial CSVs on disk.
        with pytest.raises(KeyError):
            run_experiments(["fig4", "not-a-thing"], out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_duplicates_collapse_in_order(self):
        resolved = resolve_experiments(["fig4", "fig04", "FIG4", "fig7", "fig4"])
        assert [key for key, _ in resolved] == ["fig4", "fig7"]

    def test_scenario_ids_resolve(self):
        resolved = resolve_experiments(["section5"])
        assert resolved[0][0] == "section5"

    def test_run_deduplicates_spellings(self, tmp_path):
        results = run_experiments(["fig4", "fig04"], out_dir=tmp_path, quiet=True)
        assert len(results) == 1
        assert results[0].experiment_id == "fig4"

    def test_all_expansion_keeps_scenario_ids(self):
        from repro.experiments.runner import _expand_all

        assert _expand_all(["all"]) == list(EXPERIMENTS)
        # Scenario ids riding alongside 'all' must survive the expansion.
        assert _expand_all(["all", "random-12"]) == [
            *EXPERIMENTS, "random-12",
        ]
        assert _expand_all(["fig4", "all"]) == ["fig4", *EXPERIMENTS]

    def test_inline_spec_with_colliding_id_still_runs(self):
        # An edited --scenario file may reuse a registered id while naming a
        # different market; it must not be dropped as a duplicate.
        from repro.experiments.pipeline import scenario_experiment
        from repro.scenarios import scaled_market

        spec = scenario_experiment(
            scaled_market(
                4, prices=(0.0, 1.0), policy_levels=(0.0,),
                scenario_id="section5",
            )
        )
        resolved = resolve_experiments(["section5", spec])
        assert [key for key, _ in resolved] == ["section5", "section5"]


class TestCanonicalNames:
    def test_zero_padded_spellings_accepted(self):
        assert canonical_experiment("fig04") == "fig4"
        assert canonical_experiment("fig4") == "fig4"
        assert canonical_experiment("fig10") == "fig10"
        assert canonical_experiment("FIG07") == "fig7"

    def test_unknown_names_pass_through(self):
        assert canonical_experiment("nope") == "nope"
        assert canonical_experiment("fig0") == "fig0"

    def test_run_experiments_accepts_padded_name(self, tmp_path):
        results = run_experiments(["fig04"], out_dir=tmp_path, quiet=True)
        assert results[0].experiment_id == "fig4"
        assert (tmp_path / "fig4-left.csv").exists()


class TestRunExperiments:
    def test_runs_and_writes(self, tmp_path, capsys):
        results = run_experiments(["fig4"], out_dir=tmp_path, quiet=True)
        assert len(results) == 1
        assert (tmp_path / "fig4-left.csv").exists()
        assert (tmp_path / "fig4-right.csv").exists()

    def test_unknown_experiment_raises(self, tmp_path):
        with pytest.raises(KeyError):
            run_experiments(["fig99"], out_dir=tmp_path)

    def test_verbose_mode_renders_charts(self, tmp_path, capsys):
        run_experiments(["fig4"], out_dir=tmp_path, quiet=False)
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "PASS" in out

    def test_all_solves_each_row_once_on_the_default_service(self, tmp_path):
        # Figs 4-5 share one price row (cap 0) of the section3 market and
        # Figs 7-11 one 5-cap grid of the section5 market: a cold run
        # computes those 6 rows, and every later figure, like every figure
        # of an immediate re-run, resolves from the memory tier.
        from repro.experiments.runner import _expand_all

        names = _expand_all(["all"])
        service = SolveService(cache=SolveCache(maxsize=256))
        set_default_service(service)
        try:
            run_experiments(names, out_dir=tmp_path / "cold", quiet=True)
            assert service.counters.computed == 6
            assert service.counters.memory_hits == 1 + 4 * 5
            run_experiments(names, out_dir=tmp_path / "warm", quiet=True)
            assert service.counters.computed == 6
            assert service.counters.memory_hits == 21 + 2 + 5 * 5
        finally:
            set_default_service(None)
        cold = sorted((tmp_path / "cold").iterdir())
        assert cold
        for path in cold:
            warm = tmp_path / "warm" / path.name
            assert path.read_bytes() == warm.read_bytes(), path.name


class TestMain:
    def test_exit_zero_on_success(self, tmp_path, capsys):
        code = main(["fig4", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_exit_two_on_unknown_name(self, tmp_path, capsys):
        code = main(["nope", "--out", str(tmp_path)])
        assert code == 2

    def test_exit_one_on_failed_check(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.base import ExperimentResult, ShapeCheck

        def fake_compute():
            real = fig04.compute(np.linspace(0.0, 2.0, 5))
            return ExperimentResult(
                experiment_id=real.experiment_id,
                title=real.title,
                figures=real.figures,
                checks=(ShapeCheck(name="forced failure", passed=False),),
            )

        monkeypatch.setitem(EXPERIMENTS, "fig4", fake_compute)
        code = main(["fig4", "--out", str(tmp_path), "--quiet"])
        assert code == 1
        # On failure the summary and the FAIL detail share stderr.
        err = capsys.readouterr().err
        assert "forced failure" in err
        assert "1 failure(s)" in err

    def test_summary_and_failures_share_a_stream(self, tmp_path, capsys):
        code = main(["fig04", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        captured = capsys.readouterr()
        assert "0 failure(s)" in captured.out
        assert "FAIL" not in captured.err

    def test_workers_flag_round_trips(self, tmp_path):
        from repro.engine import get_default_workers

        code = main(["fig4", "--out", str(tmp_path), "--quiet", "--workers", "2"])
        assert code == 0
        # The CLI restores the process-wide default on exit.
        assert get_default_workers() == 1

    def test_workers_flag_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig4", "--out", str(tmp_path), "--workers", "0"])

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_workers_env_validated(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--out", str(tmp_path), "--quiet"])
        assert exc.value.code == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_experiments_errors(self):
        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["run"])


def _profile_fields(stderr: str) -> dict:
    lines = [ln for ln in stderr.splitlines() if ln.startswith("[profile]")]
    assert len(lines) == 1, stderr
    return dict(item.split("=", 1) for item in lines[0].split()[1:])


class TestProfileFlag:
    def test_profile_line_carries_every_counter(self, tmp_path, capsys):
        code = main(["fig4", "--out", str(tmp_path), "--quiet", "--profile"])
        assert code == 0
        fields = _profile_fields(capsys.readouterr().err)
        assert list(fields) == [
            "backend",
            "kernel_calls",
            "kernel_seconds",
            "residual_evals",
            "brackets_expanded",
            "lockstep_calls",
            "lockstep_seconds",
            "equilibrium_kernel_calls",
            "equilibrium_kernel_seconds",
            "equilibrium_fallbacks",
        ]
        assert float(fields["lockstep_seconds"]) >= 0.0
        assert float(fields["equilibrium_kernel_seconds"]) >= 0.0

    def test_compiled_random_market_takes_no_lockstep_solve(
        self, tmp_path, capsys
    ):
        code = main(
            ["run", "random-12", "--backend", "compiled", "--no-cache",
             "--profile", "--quiet", "--out", str(tmp_path)]
        )
        assert code == 0
        fields = _profile_fields(capsys.readouterr().err)
        if fields["backend"] == "numpy":
            pytest.skip("no kernel backend builds here")
        assert fields["lockstep_calls"] == "0"
        assert float(fields["lockstep_seconds"]) == 0.0
        assert int(fields["kernel_calls"]) > 0


class TestVerbs:
    def test_list_shows_experiments_and_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "section5" in out
        assert "scaled-256" in out

    def test_describe_experiment(self, capsys):
        assert main(["describe", "fig07"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "sweep:" in out
        assert "section5" in out

    def test_describe_scenario(self, capsys):
        assert main(["describe", "random-12"]) == 0
        out = capsys.readouterr().out
        assert "random-12" in out
        assert "seed" in out

    def test_describe_unknown_exits_two(self, capsys):
        assert main(["describe", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_run_verb_equals_legacy_invocation(self, tmp_path, capsys):
        assert main(["run", "fig4", "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "fig4-left.csv").exists()


class TestScenarioRuns:
    def test_run_scenario_file(self, tmp_path, capsys):
        from repro.io import save_scenario
        from repro.scenarios import scaled_market

        spec = scaled_market(
            4, prices=(0.0, 1.0, 2.0), policy_levels=(0.0, 1.0),
            scenario_id="cli-file-test",
        )
        path = tmp_path / "scenario.json"
        save_scenario(spec, path)
        code = main(
            ["run", "--scenario", str(path), "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "cli-file-test-revenue.csv").exists()

    def test_missing_scenario_file_exits_two(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot load scenario" in capsys.readouterr().err


class TestGeneratedScenariosEndToEnd:
    """Acceptance: generated scenarios run through the CLI and round-trip."""

    def test_scaled_256_cli_run_and_round_trip(self, tmp_path):
        from repro.io import load_scenario, save_scenario, scenario_to_dict
        from repro.scenarios import get_scenario

        code = main(["run", "scaled-256", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert (tmp_path / "scaled-256-revenue.csv").exists()
        spec = get_scenario("scaled-256")
        assert spec.size == 256
        path = tmp_path / "scaled-256.json"
        save_scenario(spec, path)
        assert scenario_to_dict(load_scenario(path)) == scenario_to_dict(spec)

    def test_seeded_random_cli_run_from_json_with_workers(self, tmp_path):
        from repro.io import load_scenario, save_scenario
        from repro.scenarios import random_market

        spec = random_market(
            123, 6,
            prices=(0.0, 0.5, 1.0, 1.5, 2.0),
            policy_levels=(0.0, 1.0),
            scenario_id="random-6-s123",
        )
        path = tmp_path / "random.json"
        save_scenario(spec, path)
        assert load_scenario(path).metadata["seed"] == 123
        code = main(
            [
                "run",
                "--scenario", str(path),
                "--out", str(tmp_path),
                "--quiet",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert (tmp_path / "random-6-s123-revenue.csv").exists()


class TestCacheVerb:
    def test_path_stats_clear_round_trip(self, tmp_path, capsys):
        from repro.engine import SolveStore

        store_dir = tmp_path / "store"
        SolveStore(store_dir).put(("seed",), {"v": 1}, codec="json")

        assert main(["cache", "path", "--cache-dir", str(store_dir)]) == 0
        assert capsys.readouterr().out.strip() == str(store_dir)

        assert main(["cache", "stats", "--cache-dir", str(store_dir)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

        assert main(["cache", "clear", "--cache-dir", str(store_dir)]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(store_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_dir_defaults_to_environment(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "path"]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path)

    def test_unconfigured_cache_exits_two(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory configured" in capsys.readouterr().err

    def test_rebuild_index_is_an_invalid_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "rebuild-index", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_prune_prints_its_summary(self, tmp_path, capsys):
        from repro.engine import SolveStore, key_digest

        store_dir = tmp_path / "store"
        store = SolveStore(store_dir)
        for i in range(3):
            store.put(("p", i), {"v": i}, codec="json")
        shard = store_dir / key_digest(("p", 0))[:2]
        (shard / "tmpdead.tmp").write_bytes(b"killed writer")
        (shard / ("a" * 64 + ".json")).write_text("{}")
        args = ["cache", "prune", "--cache-dir", str(store_dir)]
        assert main([*args, "--max-entries", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "path": str(store_dir),
            "entries": 2,
            "orphans": 1,
            "temp_files": 1,
        }
        assert len(SolveStore(store_dir)) == 1

    def test_prune_rejects_a_negative_bound(self, tmp_path, capsys):
        code = main(
            ["cache", "prune", "--cache-dir", str(tmp_path), "--max-bytes", "-1"]
        )
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_bounds_only_apply_to_prune(self, tmp_path, capsys):
        code = main(
            ["cache", "clear", "--cache-dir", str(tmp_path), "--max-entries", "1"]
        )
        assert code == 2
        assert "only apply to the prune action" in capsys.readouterr().err


class TestCacheFlags:
    def test_warm_store_rerun_reports_zero_solves(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["fig4", "--out", str(tmp_path), "--json", "--cache-dir", store]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)["cache"]
        assert cold["computed"] > 0
        assert cold["store"]["writes"] == cold["computed"]

        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)["cache"]
        assert warm["computed"] == 0
        assert warm["store_hits"] > 0
        assert warm["store"]["entries"] == cold["store"]["entries"]

    def test_json_run_walks_the_store_once(self, tmp_path, capsys, monkeypatch):
        # The summary's "before" snapshot reads counters only; the store's
        # files are walked once, for the footprint printed at the end.
        from repro.engine import SolveStore

        walks = []
        footprint = SolveStore.stats

        def spy(store):
            walks.append(store.path)
            return footprint(store)

        monkeypatch.setattr(SolveStore, "stats", spy)
        store = tmp_path / "store"
        args = ["all", "--out", str(tmp_path), "--json", "--cache-dir", str(store)]
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)["cache"]
        assert walks == [store]
        assert summary["store"]["entries"] == len(SolveStore(store)) > 0

    def test_no_cache_ignores_environment_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        code = main(["fig4", "--out", str(tmp_path), "--json", "--no-cache"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["store"] is None
        assert not (tmp_path / "ignored").exists()

    def test_cache_flags_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["fig4", "--out", str(tmp_path), "--no-cache",
                 "--cache-dir", str(tmp_path)]
            )

    def test_human_summary_mentions_solve_service(self, tmp_path, capsys):
        assert main(["fig4", "--out", str(tmp_path), "--quiet"]) == 0
        assert "solve service:" in capsys.readouterr().out


class TestJsonSummary:
    def test_json_summary_structure(self, tmp_path, capsys):
        code = main(["fig4", "--out", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == []
        assert set(payload["cache"]) == {
            "memory_hits", "store_hits", "computed", "store", "executor",
        }
        executor = payload["cache"]["executor"]
        assert set(executor) == {
            "batches", "tasks", "inline_tasks", "pooled_tasks",
            "pool_spawns", "pool_reuses",
        }
        assert executor["tasks"] >= executor["pooled_tasks"]
        (experiment,) = payload["experiments"]
        assert experiment["id"] == "fig4"
        assert experiment["all_passed"] is True
        assert {c["name"] for c in experiment["checks"]} == {
            c.name for c in EXPERIMENT_SPECS["fig4"].checks
        }
        assert all(path.endswith(".csv") for path in experiment["csv"])

    def test_json_reports_failures_with_exit_one(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.base import ExperimentResult, ShapeCheck

        def fake_compute():
            real = fig04.compute(np.linspace(0.0, 2.0, 5))
            return ExperimentResult(
                experiment_id=real.experiment_id,
                title=real.title,
                figures=real.figures,
                checks=(ShapeCheck(name="forced failure", passed=False),),
            )

        monkeypatch.setitem(EXPERIMENTS, "fig4", fake_compute)
        code = main(["fig4", "--out", str(tmp_path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == [
            {"experiment": "fig4", "check": "forced failure"}
        ]
