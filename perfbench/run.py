"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads: ``paper``, ``campaign-random``, ``serve-mixed`` (see
``workloads.py`` and ``README.md``). Every program process runs the
``compiled`` kernel backend with the serial executor, pinned with the
run to one core; times are reported in reference-host seconds (the
core's speed is probed around and during every process, see
``harness.probe_s`` and ``README.md``). With ``--trace 0``
the run measures the end-to-end metrics; with ``--trace 1`` the program
processes carry layer spans (``layers.py``) and the run reports the
per-layer metrics instead, after checking the spans against the
program's own counters.

The output is human-readable lines (provenance, each metric with its
unit, the output-check verdict) followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 with a result line; 2 for bad arguments or a directory
that holds no program; 3 when the run is void (the compiled backend fell
back to NumPy, or a program process died without a report).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import Bench, Fatal, median, percentile
from workloads import WORKLOADS

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(bench: Bench) -> dict:
    s = bench.samples
    # Every sample is already in reference-host seconds (harness.probe_s),
    # and every cycle repeats the same work: medians over the whole run.
    latencies_ms = [1000.0 * v for v in s.latencies_s]
    return {
        "setup_s": median(s.setup_s),
        "wall_s": median(s.wall_s),
        "warm_s": median(s.warm_s),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "jobs_per_s": len(latencies_ms) / s.busy_s,
        "peak_rss_mb": max(s.rss_mb),
    }


#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("import.repro_s", "s"),
    ("backend.load_s", "s"),
    ("backend.kernel_calls", "count"),
    ("backend.kernel_s", "s"),
    ("backend.lockstep_calls", "count"),
    ("backend.lockstep_s", "s"),
    ("backend.residual_evals", "count"),
    ("backend.brackets_expanded", "count"),
    ("network.scalar_solves", "count"),
    ("network.scalar_s", "s"),
    ("network.batch_calls", "count"),
    ("network.batch_rows", "count"),
    ("network.batch_s", "s"),
    ("network.kernel_share", "frac"),
    ("core.equilibria", "count"),
    ("core.equilibrium_s", "s"),
    ("core.iterations", "count"),
    ("core.method.best_response", "count"),
    ("core.method.vi", "count"),
    ("competition.br_sweeps", "count"),
    ("competition.s", "s"),
    ("engine.map_calls", "count"),
    ("engine.tasks", "count"),
    ("engine.memory_hits", "count"),
    ("engine.store_hits", "count"),
    ("engine.computed", "count"),
    ("engine.hit_ratio", "frac"),
    ("engine.dispatch_s", "s"),
    ("store.gets", "count"),
    ("store.get_s", "s"),
    ("store.misses", "count"),
    ("store.puts", "count"),
    ("store.put_s", "s"),
    ("store.bytes_written", "bytes"),
    ("campaigns.expand_s", "s"),
    ("campaigns.appends", "count"),
    ("campaigns.append_s", "s"),
    ("io.digest_calls", "count"),
    ("io.digest_s", "s"),
    ("server.requests", "count"),
    ("server.polls_per_job", "count"),
    ("server.handle_s", "s"),
    ("server.coalesced", "count"),
    ("server.job_run_s", "s"),
    ("server.queue_wait_ms", "ms"),
    ("server.payload_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def cross_check(bench: Bench, trace: dict) -> None:
    """Spans must count exactly the work the program's counters report."""
    calls, counts, program = trace["calls"], trace["counts"], trace["program"]
    service, store = program["service"], program["store"]
    profile = program["profiling"]
    what = trace["tag"]
    gets = calls.get("store.get", 0)
    store_hits = gets - counts.get("store.misses", 0)
    computed = calls.get("engine.compute", 0)
    memory_hits = counts.get("engine.tasks", 0) - store_hits - computed
    pairs = (
        ("computed tasks", computed, service["computed"]),
        ("store hits", store_hits, service["store_hits"]),
        ("store hits (store counters)", store_hits, store["hits"]),
        ("store reads", gets, store["hits"] + store["misses"]),
        ("store writes", counts.get("store.committed", 0), store["writes"]),
        ("memory hits", memory_hits, service["memory_hits"]),
        (
            "kernel calls",
            calls.get("backend.kernel", 0),
            profile["kernel_calls"],
        ),
        (
            "batch solves",
            calls.get("network.batch", 0),
            profile["lockstep_calls"]
            + counts.get("network.kernel_batch_calls", 0),
        ),
    )
    for name, spans, counter in pairs:
        bench.check(
            spans == counter,
            f"{what}: spans saw {spans} {name}, program counted {counter}",
        )


def per_layer(bench: Bench) -> dict:
    for trace in bench.traces:
        cross_check(bench, trace)
    # The serve store prefill is set-up, not a measured cycle.
    traces = [t for t in bench.traces if t["tag"] != "serve-prefill"]

    def total(section: str, key: str) -> float:
        return sum(t[section].get(key, 0) for t in traces)

    def profile(key: str) -> float:
        return sum(t["program"]["profiling"][key] for t in traces)

    cycles = max(bench.samples.cycles, 1)
    gets = total("calls", "store.get")
    misses = total("counts", "store.misses")
    computed = total("calls", "engine.compute")
    tasks = total("counts", "engine.tasks")
    store_hits = gets - misses
    memory_hits = tasks - store_hits - computed
    congestion = total("calls", "network.scalar") + total(
        "calls", "network.batch"
    )
    on_kernel = total("counts", "network.kernel_scalar_solves") + total(
        "counts", "network.kernel_batch_calls"
    )
    work = sum(t["work_s"] for t in traces)
    spans = sum(sum(t["calls"].values()) * t["span_cost_s"] for t in traces)
    covered = sum(t["covered_s"] for t in traces)
    extra = bench.extra
    per_cycle = {
        "backend.kernel_calls": profile("kernel_calls"),
        "backend.kernel_s": profile("kernel_seconds"),
        "backend.lockstep_calls": profile("lockstep_calls"),
        "backend.lockstep_s": profile("lockstep_seconds"),
        "backend.residual_evals": profile("residual_evals"),
        "backend.brackets_expanded": profile("brackets_expanded"),
        "network.scalar_solves": total("calls", "network.scalar"),
        "network.scalar_s": total("seconds", "network.scalar"),
        "network.batch_calls": total("calls", "network.batch"),
        "network.batch_rows": total("counts", "network.batch_rows"),
        "network.batch_s": total("seconds", "network.batch"),
        "core.equilibria": total("calls", "core.equilibrium"),
        "core.equilibrium_s": total("seconds", "core.equilibrium"),
        "core.iterations": total("counts", "core.iterations"),
        "core.method.best_response": total(
            "counts", "core.method.best_response"
        ),
        "core.method.vi": total("counts", "core.method.vi"),
        "competition.br_sweeps": total("calls", "competition.br_sweep"),
        "competition.s": total("seconds", "competition.br_sweep"),
        "engine.map_calls": total("calls", "engine.map"),
        "engine.tasks": tasks,
        "engine.memory_hits": memory_hits,
        "engine.store_hits": store_hits,
        "engine.computed": computed,
        "engine.dispatch_s": total("counts", "engine.dispatch_s"),
        "store.gets": gets,
        "store.get_s": total("seconds", "store.get"),
        "store.misses": misses,
        "store.puts": total("calls", "store.put"),
        "store.put_s": total("seconds", "store.put"),
        "store.bytes_written": sum(
            t["program"]["store_bytes_written"] for t in traces
        ),
        "campaigns.expand_s": total("seconds", "campaigns.expand"),
        "campaigns.appends": total("counts", "campaigns.appended"),
        "campaigns.append_s": total("seconds", "campaigns.append"),
        "io.digest_calls": total("calls", "io.digest"),
        "io.digest_s": total("seconds", "io.digest"),
        "server.requests": total("calls", "server.handle"),
        "server.handle_s": total("seconds", "server.handle"),
        "server.coalesced": total("counts", "server.coalesced"),
        "server.job_run_s": total("seconds", "server.job_run"),
        "server.payload_s": total("seconds", "server.payload"),
    }
    metrics = {name: value / cycles for name, value in per_cycle.items()}
    metrics.update(
        {
            "import.total_s": median([t["imports"]["total"] for t in traces]),
            "import.scipy_s": median([t["imports"]["scipy"] for t in traces]),
            "import.repro_s": median([t["imports"]["repro"] for t in traces]),
            "backend.load_s": median([t["load_s"] for t in traces]),
            "network.kernel_share": _ratio(on_kernel, congestion),
            "engine.hit_ratio": _ratio(store_hits + memory_hits, tasks),
            "server.polls_per_job": _ratio(extra["polls"], extra["jobs"]),
            "server.queue_wait_ms": 1000.0 * _ratio(
                extra["ran_latency_s"] - extra["job_run_s"], extra["ran_jobs"]
            ),
            "trace.overhead_frac": _ratio(spans, work),
            "trace.unattributed_frac": 1.0 - _ratio(covered, work),
        }
    )
    return metrics


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = Bench(
        Path.cwd(),
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    try:
        bench.open()
        provenance = bench.provenance()
        print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
        WORKLOADS[args.workload](bench)
        if args.trace:
            metrics, units = per_layer(bench), dict(PER_LAYER)
        else:
            metrics, units = end_to_end(bench), dict(END_TO_END)
    except Fatal as exc:
        print(f"benchmark void: {exc}", file=sys.stderr)
        return 2 if "no program sources" in str(exc) else 3
    finally:
        bench.close()

    s = bench.samples
    print(
        f"workload {args.workload}, seed {args.seed}: {s.cycles} cycle(s), "
        f"{len(s.setup_s)} set-up sample(s), {len(s.latencies_s)} latency "
        f"sample(s)"
    )
    for name in units:
        print(f"  {name:<28} {metrics[name]:.6g} {units[name]}")
    failed = len(bench.failures)
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"output checks: {verdict} ({failed} failed of {bench.attempted})")
    for failure in bench.failures[:20]:
        print(f"  FAIL {failure}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
