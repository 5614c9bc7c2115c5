"""The three benchmark workloads.

Each workload repeats a *cycle* while the run's time budget lasts and
appends its samples to ``bench.samples``. Every cycle runs in fresh
directories under the run's scratch directory, so cycles never share a
store, a warehouse or an output directory.

``paper``
    The paper's reproduction as a user runs it: ``all`` (Figs 4-11) cold
    into an empty store, ``oligopoly --carriers 4`` into the same store,
    then ``all`` five more times against the warm store. The inputs are
    the paper's fixed figures; the seed names nothing.
``campaign-random``
    A ``campaign run --sweep grid`` over ``random_market`` markets (8 CP
    types, 5 prices x 5 caps, a seeded price axis), cold into an empty
    store, then replayed three times, each time by a fresh process into a
    fresh warehouse.
``serve-mixed``
    ``repro serve`` daemons over a store filled during set-up, driven by
    two closed-loop client threads through a seeded schedule of repeats,
    store-held documents and fresh documents.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

from harness import (
    Bench,
    Fatal,
    Strobe,
    json_digest,
    sha256_text,
    speed_factor,
    unpaused,
)

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: Warm ``all`` reruns per cycle. The warm rerun's work is ~40 ms and
#: varies by ~9% from rerun to rerun, so it takes several samples a cycle
#: to steady its median; they also keep a warm rerun at the median command
#: latency.
PAPER_WARM_RERUNS = 5

#: Oligopoly prices converge to the solver's 1e-5 sweep tolerance, so the
#: check allows that much rather than demanding identical digits.
OLIGOPOLY_PRICE_TOL = 1e-4


def csv_digests(out_dir: Path) -> dict:
    return {
        path.name: sha256_text(path.read_text())
        for path in sorted(out_dir.glob("*.csv"))
    }


def _figures_ok(bench: Bench, step, out_dir: Path, tag: str) -> dict:
    """Shape checks and CSV digests of one ``all --json`` step."""
    try:
        summary = step.json()
    except ValueError:
        bench.check(False, f"{tag}: output is not JSON")
        return {}
    bench.check(
        not summary["failures"]
        and all(e["all_passed"] for e in summary["experiments"]),
        f"{tag}: shape checks failed: {summary['failures']}",
    )
    digests = csv_digests(out_dir)
    expected = EXPECTED["paper"]["csv_sha256"]
    wrong = sorted(
        name for name in set(digests) | set(expected)
        if digests.get(name) != expected.get(name)
    )
    bench.check(not wrong, f"{tag}: figure CSVs differ from record: {wrong}")
    return summary


def paper(bench: Bench) -> None:
    samples = bench.samples
    started = time.monotonic()
    estimate = 0.0
    while samples.cycles == 0 or bench.time_left(started, estimate):
        began = time.monotonic()
        first = len(samples.latencies_s)
        work = bench.fresh_dir("paper")
        store = work / "store"
        cold = bench.cli(
            ["all", "--quiet", "--json", "--out", str(work / "cold"),
             "--cache-dir", str(store)],
            "paper-all-cold",
        )
        _figures_ok(bench, cold, work / "cold", "all (cold)")

        olig = bench.cli(
            ["oligopoly", "--carriers", "4", "--json",
             "--cache-dir", str(store)],
            "paper-oligopoly",
        )
        try:
            result = olig.json()
            prices = result["prices"]
        except (ValueError, KeyError):
            result, prices = {}, []
        recorded = EXPECTED["paper"]["oligopoly_prices"]
        bench.check(
            result.get("converged") is True
            and len(prices) == len(recorded)
            and all(abs(a - b) <= OLIGOPOLY_PRICE_TOL
                    for a, b in zip(prices, recorded)),
            f"oligopoly prices {prices} differ from record {recorded}",
        )

        samples.wall_s.append(
            cold.ref_work_s + olig.ref_work_s
        )
        for rerun in range(PAPER_WARM_RERUNS):
            out = work / f"warm-{rerun}"
            warm = bench.cli(
                ["all", "--quiet", "--json", "--out", str(out),
                 "--cache-dir", str(store)],
                "paper-all-warm",
            )
            summary = _figures_ok(bench, warm, out, "all (warm)")
            cache = summary.get("cache") or {}
            bench.check(
                cache.get("computed") == 0 and cache.get("store_hits", 0) > 0,
                f"warm rerun computed {cache.get('computed')} solve(s)",
            )
            samples.warm_s.append(warm.ref_work_s)
        samples.end_cycle(sum(samples.latencies_s[first:]))
        estimate = time.monotonic() - began


# ----------------------------------------------------------------------
# campaign-random
# ----------------------------------------------------------------------

#: The campaign's market corpus: ``random_market`` seeds 0..3, fixed.
#: One market's cold grid takes 0.5-1.8 s depending on its draw, so a
#: corpus that changed with the benchmark seed would move ``wall_s`` by
#: tens of percent between seeds; the seed moves the price axis instead.
CAMPAIGN_MARKETS = 4
#: Replays per cold campaign. A replay's work is ~50 ms, so it takes
#: several a cycle to steady their median; they also keep a replay at the
#: median command latency and the cold campaign at the 95th percentile.
CAMPAIGN_REPLAYS = 3
CAMPAIGN_PRICES = [0.2, 0.6, 1.0, 1.4, 1.8]
CAMPAIGN_CAPS = [0.0, 0.5, 1.0, 1.5, 2.0]
#: Largest seeded shift of a price-axis point.
PRICE_JITTER = 0.04


def jittered(prices: list, *key: int) -> list:
    """``prices`` shifted by a pseudo-random amount fixed by ``key``."""
    rng = random.Random(repr(key))
    return [
        round(p + rng.uniform(-PRICE_JITTER, PRICE_JITTER), 6) for p in prices
    ]


def campaign_spec(seed: int) -> dict:
    """The ``repro-campaign/1`` document of a seed (pure in its args)."""
    return {
        "format": "repro-campaign/1",
        "id": f"bench-{seed}",
        "title": f"benchmark campaign (seed {seed})",
        "generator": "random_market",
        "sweep": "grid",
        "seed_start": 0,
        "seed_count": CAMPAIGN_MARKETS,
        "axes": {},
        "sampling": "product",
        "n_samples": 0,
        "sample_seed": 0,
        "base_params": {
            "n_types": 8,
            "prices": jittered(CAMPAIGN_PRICES, seed),
            "policy_levels": CAMPAIGN_CAPS,
        },
    }


def _summary_csv(warehouse: Path, campaign: str) -> str:
    from repro.campaigns.warehouse import CampaignWarehouse

    with CampaignWarehouse(warehouse) as handle:
        return handle.summary_csv(campaign)


def _campaign_report(bench: Bench, step, tag: str) -> dict:
    try:
        report = step.json()
    except ValueError:
        bench.check(False, f"{tag}: output is not JSON")
        return {}
    landed = report.get("rows_computed", 0)
    for row in range(CAMPAIGN_MARKETS):
        bench.check(row < landed, f"{tag}: row {row} did not land")
    if bench.trace and step.report.get("trace"):
        appended = step.report["trace"]["counts"].get("campaigns.appended", 0)
        bench.check(
            appended == report.get("rows_computed"),
            f"{tag}: traced {appended} warehouse appends, program reports "
            f"{report.get('rows_computed')}",
        )
    return report


def campaign_random(bench: Bench) -> None:
    samples = bench.samples
    started = time.monotonic()
    estimate = 0.0
    spec = json.dumps(campaign_spec(bench.seed))
    while samples.cycles == 0 or bench.time_left(started, estimate):
        began = time.monotonic()
        first = len(samples.latencies_s)
        work = bench.fresh_dir("campaign")
        store = work / "store"
        spec_path = work / "spec.json"
        spec_path.write_text(spec)
        argv = ["campaign", "run", "--spec", str(spec_path),
                "--cache-dir", str(store), "--json"]

        cold = bench.cli(argv, "campaign-cold")
        report = _campaign_report(bench, cold, "cold campaign")
        bench.check(
            report.get("solves_computed", 0) > 0,
            "cold campaign computed no solves",
        )
        campaign = report.get("campaign", "")
        cold_warehouse = work / "cold.sqlite"
        (store / "campaigns.sqlite").replace(cold_warehouse)
        cold_csv = _summary_csv(cold_warehouse, campaign)

        for replay in range(CAMPAIGN_REPLAYS):
            warm = bench.cli(argv, "campaign-replay")
            again = _campaign_report(bench, warm, "replay")
            bench.check(
                again.get("solves_computed") == 0,
                f"replay computed {again.get('solves_computed')} solve(s)",
            )
            warehouse = work / f"replay-{replay}.sqlite"
            (store / "campaigns.sqlite").replace(warehouse)
            bench.check(
                _summary_csv(warehouse, campaign) == cold_csv,
                "replay warehouse summary differs from the cold pass",
            )
            samples.warm_s.append(warm.ref_work_s)

        samples.wall_s.append(cold.ref_work_s)
        samples.end_cycle(sum(samples.latencies_s[first:]))
        estimate = time.monotonic() - began


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

CLIENTS = 2
#: Per client and pass: store-held documents, fresh documents, repeats
#: (a 30/10/60 mix).
STORE_JOBS, FRESH_JOBS, REPEAT_JOBS = 15, 5, 30
SERVE_PRICES = [0.5, 1.0, 1.5]
SERVE_CAPS = [0.0, 1.0]
TERMINAL = ("done", "failed", "cancelled")


def scenario_document(market: int, prices: list) -> dict:
    from repro.io import scenario_to_dict
    from repro.scenarios.generators import random_market

    return scenario_to_dict(
        random_market(
            market,
            6,
            prices=prices,
            policy_levels=SERVE_CAPS,
            scenario_id=f"serve-{market}",
        )
    )


def client_schedule(rng: random.Random, store_docs: list, fresh_docs: list):
    """One client's jobs for one pass: ``(class, document index)`` pairs.

    A repeat names a document this client submitted earlier in the pass;
    the client waits for every job, so the repeated job is already done.
    """
    classes = (
        ["store"] * len(store_docs)
        + ["fresh"] * len(fresh_docs)
        + ["repeat"] * REPEAT_JOBS
    )
    rng.shuffle(classes)
    first = next(i for i, c in enumerate(classes) if c != "repeat")
    classes[0], classes[first] = classes[first], classes[0]
    store_iter, fresh_iter = iter(store_docs), iter(fresh_docs)
    submitted: list = []
    schedule = []
    for kind in classes:
        if kind == "store":
            doc = next(store_iter)
        elif kind == "fresh":
            doc = next(fresh_iter)
        else:
            doc = rng.choice(submitted)
        submitted.append(doc)
        schedule.append((kind, doc))
    return schedule


class Traffic:
    """Client-side tallies against one daemon."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.polls = 0
        self.coalesced = 0
        self.jobs: list = []  # (kind, submitted, terminal, coalesced)


def run_job(bench, client, traffic, documents, references, kind, doc) -> None:
    try:
        began = time.monotonic()
        record = client.submit(documents[doc])
        requests, polls = 1, 0
        coalesced = bool(record.get("coalesced"))
        while record["state"] not in TERMINAL:
            record = client.job(record["job_id"], wait=30.0)
            requests += 1
            polls += 1
        ended = time.monotonic()
        result = client.result(record["job_id"])
        requests += 1
    except Exception as exc:  # a failed job is a counted failure, not a crash
        bench.check(False, f"{kind} job failed: {type(exc).__name__}: {exc}")
        return
    digest = json_digest(result.get("result"))
    with traffic.lock:
        traffic.requests += requests
        traffic.polls += polls
        traffic.coalesced += coalesced
        traffic.jobs.append((kind, began, ended, coalesced))
        reference = references.setdefault(doc, digest)
    bench.check(
        record["state"] == "done", f"{kind} job ended {record['state']}"
    )
    bench.check(
        digest == reference, f"{kind} job result differs from cold result"
    )


def drive(bench, daemon, documents, references, schedules) -> tuple:
    """Closed loop: one thread per schedule, each waits for every job.

    Returns the traffic tallies and the (start, end) of the pass.
    """
    from repro.server.client import ServeClient

    traffic = Traffic()
    gate = threading.Barrier(len(schedules) + 1)

    def client_loop(schedule) -> None:
        client = ServeClient(daemon.host, daemon.port, timeout=120.0)
        gate.wait()
        for kind, doc in schedule:
            run_job(bench, client, traffic, documents, references, kind, doc)

    threads = [
        threading.Thread(target=client_loop, args=(s,)) for s in schedules
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    began = time.monotonic()
    for thread in threads:
        thread.join()
    return traffic, (began, time.monotonic())


def prefill(bench, daemon, documents, references, docs) -> Traffic:
    """Submit every store document at once and wait for each result."""
    from repro.server.client import ServeClient

    client = ServeClient(daemon.host, daemon.port, timeout=120.0)
    traffic = Traffic()
    records = {doc: client.submit(documents[doc]) for doc in docs}
    traffic.requests += len(docs)
    for doc, record in records.items():
        while record["state"] not in TERMINAL:
            record = client.job(record["job_id"], wait=30.0)
            traffic.requests += 1
        result = client.result(record["job_id"])
        traffic.requests += 1
        if record["state"] != "done":
            raise Fatal(f"store prefill job ended {record['state']}")
        references[doc] = json_digest(result["result"])
    return traffic


def _daemon_checks(bench: Bench, daemon, traffic: Traffic, measured) -> None:
    """Cross-check a traced daemon's spans against the client's tallies."""
    trace = (daemon.step.report.get("trace") if daemon.step else None) or {}
    if not bench.trace or not trace:
        return
    handled = trace["calls"].get("server.handle", 0)
    coalesced = trace["counts"].get("server.coalesced", 0)
    bench.check(
        handled == traffic.requests,
        f"daemon handled {handled} requests, clients sent {traffic.requests}",
    )
    bench.check(
        coalesced == traffic.coalesced,
        f"daemon coalesced {coalesced} submits, clients saw "
        f"{traffic.coalesced}",
    )
    if measured:
        ran = [end - start for _, start, end, co in traffic.jobs if not co]
        extra = bench.extra
        extra["ran_jobs"] += len(ran)
        extra["ran_latency_s"] += sum(ran)
        extra["job_run_s"] += trace["seconds"].get("server.job_run", 0.0)
        extra["polls"] += traffic.polls
        extra["jobs"] += len(traffic.jobs)


def serve_mixed(bench: Bench) -> None:
    samples = bench.samples
    # Documents are keyed by (market, pass); the prefill is pass -1. As in
    # the campaign, the market corpus is fixed and the seed moves prices.
    rng = random.Random(bench.seed)
    store_docs = [(market, -1) for market in range(CLIENTS * STORE_JOBS)]
    documents = {
        doc: scenario_document(doc[0], jittered(SERVE_PRICES, bench.seed, -1))
        for doc in store_docs
    }
    references: dict = {}
    store = bench.fresh_dir("serve") / "store"

    daemon = bench.start_daemon(store, "serve-prefill")
    try:
        traffic = prefill(bench, daemon, documents, references, store_docs)
    finally:
        bench.stop_daemon(daemon)
    _daemon_checks(bench, daemon, traffic, measured=False)

    started = time.monotonic()
    estimate = 0.0
    while samples.cycles == 0 or bench.time_left(started, estimate):
        began = time.monotonic()
        cycle = samples.cycles
        schedules = []
        prices = jittered(SERVE_PRICES, bench.seed, cycle)
        for c in range(CLIENTS):
            fresh = [
                (100 + c * FRESH_JOBS + j, cycle) for j in range(FRESH_JOBS)
            ]
            for doc in fresh:
                documents[doc] = scenario_document(doc[0], prices)
            mine = store_docs[c * STORE_JOBS:(c + 1) * STORE_JOBS]
            schedules.append(client_schedule(rng, mine, fresh))

        for warm in (False, True):
            tag = "serve-warm" if warm else "serve-cold"
            daemon = bench.start_daemon(store, tag)
            try:
                # Probes right before and after the pass, with the daemon
                # idle, and strobed ones during it scale the pass (see
                # harness.Strobe); the strobe's pauses are taken out.
                probes = [bench.probe()]
                strobe = Strobe(daemon.proc.pid)
                if not bench.trace:  # spans must not time pauses
                    strobe.start()
                try:
                    traffic, (began, ended) = drive(
                        bench, daemon, documents, references, schedules
                    )
                finally:
                    strobe.stop()
                probes += [*strobe.probes, bench.probe()]
            finally:
                bench.stop_daemon(daemon)
            _daemon_checks(bench, daemon, traffic, measured=True)
            factor = speed_factor(probes)
            elapsed = factor * unpaused(began, ended, strobe.pauses)
            if warm:
                samples.warm_s.append(elapsed)
                continue
            samples.wall_s.append(elapsed)
            samples.latencies_s.extend(
                factor * unpaused(start, end, strobe.pauses)
                for _, start, end, _ in traffic.jobs
            )
            samples.end_cycle(elapsed)
        estimate = time.monotonic() - began


WORKLOADS = {
    "paper": paper,
    "campaign-random": campaign_random,
    "serve-mixed": serve_mixed,
}
