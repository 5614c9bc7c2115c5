"""The ``campaign`` CLI verb: flags, JSON output, resumability, guards."""

import json

import pytest

from repro.campaigns import CampaignSpec
from repro.experiments.runner import main
from repro.io import load_campaign, save_campaign


def small_spec() -> CampaignSpec:
    return CampaignSpec(
        campaign_id="cli-file",
        seed_count=2,
        axes={"n_types": (4, 6)},
        base_params={"prices": [0.8, 1.2]},
    )

SPEC_FLAGS = [
    "--campaign-id", "cli",
    "--rows", "2",
    "--axis", "n_types=4,6",
    "--prices", "0.8,1.2",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_cold_run_json(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "campaign", "run", *SPEC_FLAGS,
            "--cache-dir", str(tmp_path), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["campaign_id"] == "cli"
        assert payload["rows_total"] == 4
        assert payload["rows_computed"] == 4
        assert payload["rows_resumed"] == 0
        assert payload["cache"]["computed"] > 0
        assert payload["summary"]["welfare"]["count"] == 4

    def test_second_run_resumes_with_zero_solves(self, capsys, tmp_path):
        run_cli(
            capsys,
            "campaign", "run", *SPEC_FLAGS,
            "--cache-dir", str(tmp_path), "--json",
        )
        code, out, _ = run_cli(
            capsys,
            "campaign", "run", *SPEC_FLAGS,
            "--cache-dir", str(tmp_path), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows_computed"] == 0
        assert payload["rows_resumed"] == 4
        assert payload["cache"]["computed"] == 0

    def test_run_campaign_alias(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "run", "campaign", *SPEC_FLAGS,
            "--cache-dir", str(tmp_path), "--json",
        )
        assert code == 0
        assert json.loads(out)["rows_total"] == 4

    def test_run_without_store_is_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "campaign", "run", *SPEC_FLAGS, "--no-cache"
        )
        assert code == 2
        assert "persistent store" in err

    def test_spec_file_and_save_spec(self, capsys, tmp_path):
        spec = small_spec()
        spec_path = tmp_path / "spec.json"
        save_campaign(spec, spec_path)
        code, out, _ = run_cli(
            capsys,
            "campaign", "run", "--spec", str(spec_path),
            "--save-spec", str(tmp_path / "copy.json"),
            "--cache-dir", str(tmp_path / "cache"), "--json",
        )
        assert code == 0
        assert json.loads(out)["campaign"] == spec.digest()
        assert load_campaign(tmp_path / "copy.json") == spec

    def test_spec_file_excludes_synthesis_flags(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        save_campaign(small_spec(), spec_path)
        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "--spec", str(spec_path), "--rows", "3",
                "--cache-dir", str(tmp_path),
            ])
        assert "--spec is exclusive" in capsys.readouterr().err

    def test_bad_axis_spelling_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "--axis", "n_types",
                "--cache-dir", str(tmp_path),
            ])


class TestQueries:
    @pytest.fixture
    def warm(self, capsys, tmp_path):
        run_cli(
            capsys,
            "campaign", "run", *SPEC_FLAGS,
            "--cache-dir", str(tmp_path), "--json",
        )
        return tmp_path

    def test_status(self, capsys, warm):
        code, out, _ = run_cli(
            capsys,
            "campaign", "status", *SPEC_FLAGS,
            "--cache-dir", str(warm), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows_done"] == 4
        assert payload["rows_missing"] == 0
        assert "welfare" in payload["metrics"]

    def test_status_of_a_cold_warehouse(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "campaign", "status", *SPEC_FLAGS,
            "--cache-dir", str(tmp_path), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows_done"] == 0
        assert payload["rows_missing"] == 4

    def test_summary_json_and_csv(self, capsys, warm):
        code, out, _ = run_cli(
            capsys,
            "campaign", "summary", *SPEC_FLAGS,
            "--cache-dir", str(warm), "--json",
        )
        assert code == 0
        assert json.loads(out)["welfare"]["count"] == 4
        code, out, _ = run_cli(
            capsys,
            "campaign", "summary", *SPEC_FLAGS,
            "--cache-dir", str(warm), "--csv", "--metric", "welfare",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("metric,count,")
        assert len(lines) == 2 and lines[1].startswith("welfare,4,")

    def test_summary_of_empty_campaign_fails(self, capsys, warm):
        code, _, err = run_cli(
            capsys,
            "campaign", "summary", "--campaign-id", "ghost",
            "--cache-dir", str(warm),
        )
        assert code == 2
        assert "no rows" in err

    def test_unknown_metric_fails(self, capsys, warm):
        code, _, err = run_cli(
            capsys,
            "campaign", "summary", *SPEC_FLAGS,
            "--cache-dir", str(warm), "--metric", "vibes",
        )
        assert code == 2
        assert "unknown metric" in err

    def test_unknown_metric_fails_in_csv_mode(self, capsys, warm):
        code, out, err = run_cli(
            capsys,
            "campaign", "summary", *SPEC_FLAGS,
            "--cache-dir", str(warm), "--csv", "--metric", "vibes",
        )
        assert code == 2
        assert out == ""
        assert "unknown metric 'vibes'; campaign reports [" in err

    def test_query_limit_and_metric(self, capsys, warm):
        code, out, _ = run_cli(
            capsys,
            "campaign", "query", *SPEC_FLAGS,
            "--cache-dir", str(warm),
            "--metric", "welfare", "--limit", "2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert list(payload[0]["metrics"]) == ["welfare"]
        assert payload[0]["index"] == 0
