"""Bench records are written only where ``REPRO_BENCH_DIR`` points.

``benchmarks/out`` holds the committed perf trajectory. A plain test run
(``REPRO_BENCH_DIR`` unset) must leave it untouched; refreshing it is the
explicit ``REPRO_BENCH_DIR=benchmarks/out`` run.
"""

from __future__ import annotations

import json

from benchmarks.conftest import run_once


class _OneShot:
    """The slice of pytest-benchmark's fixture that ``run_once`` uses."""

    def pedantic(self, func, rounds, iterations, warmup_rounds):
        return func()


def test_records_land_only_in_the_configured_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "benchmarks" / "out"
    out.mkdir(parents=True)

    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
    assert run_once(_OneShot(), lambda: 42) == 42
    assert list(out.iterdir()) == []

    monkeypatch.setenv("REPRO_BENCH_DIR", "benchmarks/out")
    run_once(_OneShot(), lambda: 42)
    (path,) = out.iterdir()
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['case']}.json"
    assert record["bench_schema"] == "repro-bench/2"
