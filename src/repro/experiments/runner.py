"""Command-line entry point for figures and scenario experiments.

Usage::

    python -m repro.experiments list                   # experiments + scenarios
    python -m repro.experiments describe fig7          # spec details
    python -m repro.experiments describe scaled-256    # scenario details
    python -m repro.experiments all                    # every figure
    python -m repro.experiments fig4 fig7              # a subset
    python -m repro.experiments fig04 fig07            # zero-padded names too
    python -m repro.experiments run scaled-256         # a registered scenario
    python -m repro.experiments run --scenario my.json # a scenario file
    python -m repro.experiments fig10 --out results --quiet --workers 4
    python -m repro.experiments run random-12 --json   # machine-readable summary
    python -m repro.experiments fig7 --cache-dir .cache  # resumable run
    python -m repro.experiments cache stats            # persistent-store info
    python -m repro.experiments oligopoly --carriers 4 # N-carrier competition
    python -m repro.experiments run oligopoly --carriers 3 --json
    python -m repro.experiments dynamics dynamics-20   # market trajectory
    python -m repro.experiments run dynamics --horizon 8 --json
    python -m repro.experiments fig7 --workers 2       # row-parallel grid
    python -m repro.experiments fig7 --refine          # adaptive grid refinement
    python -m repro.experiments campaign run --rows 100 --cache-dir .cache
    python -m repro.experiments campaign summary --rows 100 --cache-dir .cache
    python -m repro.experiments campaign run --spec sweep.json --cache-dir .cache
    python -m repro.experiments serve --cache-dir .cache  # the solve daemon
    python -m repro.experiments client replay section3 --clients 4

Experiment names are validated (and de-duplicated) up front — an unknown
name aborts before anything runs. ``run`` accepts figure ids, registered
scenario ids (swept through the generic scenario experiment) and, via
``--scenario``, a ``repro-scenario/1`` or ``repro-market/1`` JSON file.
Writes one CSV per panel into the output directory, renders ASCII charts
to stdout (unless ``--quiet``), reports each experiment's shape checks and
exits non-zero if any check fails. The check summary and any per-check
FAIL lines travel together: both go to stderr when something failed, both
to stdout when everything passed. ``--json`` swaps the human output for a
single machine-readable summary document (including the run's solve/cache
counters and the executor's scheduling counters). ``--workers`` spreads
grid rows over a persistent process pool; every worker count gives
bitwise-identical results (see :mod:`repro.engine.executors`).
``--refine`` swaps the uniform price axis of a price/grid sweep for
adaptive refinement (:mod:`repro.experiments.refine`): a coarse pass,
then midpoint insertion where welfare/revenue curvature or
equilibrium-partition changes warrant it.

Caching: ``--cache-dir DIR`` (or ``$REPRO_CACHE_DIR``) attaches the
persistent content-addressed solve store, making runs *resumable* — a
second run of the same figures against a warm store performs zero
equilibrium solves. ``--no-cache`` runs purely in memory, ignoring any
configured directory. The ``cache`` verb inspects and maintains the
store: ``cache stats`` / ``cache path`` / ``cache clear`` /
``cache prune`` (garbage sweep + oldest-first eviction under
``--max-entries``/``--max-bytes``). A run's ``--json`` summary reads the
solve counters before and after it, but walks the store's files only
once, at the end, for the footprint it reports.

The ``serve`` verb runs the long-lived solve daemon — an asyncio
HTTP/JSON front end over one warm solve service (submit-scenario → job id
→ poll/result, duplicate submits coalescing onto one job) — and the
``client`` verb talks to it: liveness/stats probes, submit-and-wait, or an
N-client replay whose summary reports requests/sec and the server-side
``computed_delta`` (zero against a warm store). See ``docs/serve.md``.

The ``oligopoly`` verb (also reachable as ``run oligopoly``) solves an
N-carrier price competition over a scenario's market: ``--carriers N``
picks the carrier count, ``--mode`` the iteration scheme (Gauss-Seidel or
Jacobi), and the ``--json`` summary includes per-carrier convergence
counters (sweeps, equilibrium solves, revenue evaluations) plus the run's
cache counters — so a warm ``--cache-dir`` re-run visibly reports
``"computed": 0``.

The ``dynamics`` verb (also reachable as ``run dynamics``) runs a market
trajectory — the §6 time-dynamics subsystem — over a scenario's market:
the step policy, horizon, investment rule and shock schedule come from
the scenario's ``repro-dynamics/1`` metadata block (flags override it),
the trajectory resolves as content-keyed segments on the shared solve
service (``--cache-dir`` runs are resumable: a warm re-run reports
``"computed": 0`` in ``--json``), and the full per-period time series is
written as one CSV into ``--out``.

The ``campaign`` verb (also reachable as ``run campaign``) drives mass
scenario campaigns — a frozen ``repro-campaign/1`` spec (scenario
generator x seed range x parameter axes x sweep kind) expands into a
deterministic content-keyed row matrix, every row solves through the
shared solve service, and the per-row metrics land in an append-only
sqlite warehouse next to the persistent store. ``campaign run`` executes
(or, against a part-filled warehouse, *resumes*) the campaign — killed
runs pick up where they stopped, and a warm full replay reports
``computed == 0`` solves. ``campaign status`` reports completion without
solving; ``campaign summary`` folds the warehouse into per-metric
distribution statistics (``--csv`` for the 12-significant-digit table);
``campaign query`` prints the raw per-row records. The spec comes from
``--spec FILE`` or is synthesized from flags (``--rows``, ``--axis``,
``--param``, ``--sampled``, ...; ``--save-spec`` writes it back out).
See ``docs/campaigns.md``.

Every parser is built by a ``build_*_parser`` function, which is what the
generated CLI reference (:mod:`repro.experiments.docgen`) renders — the
docs page cannot drift from the tree that actually parses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence, Union

from repro.competition.oligopoly import (
    COMPETITION_DEFAULTS,
    OligopolyGame,
    competition_settings,
    solve_oligopoly_competition,
)
from repro.backend import (
    BACKEND_NAMES,
    get_backend,
    profiling,
    set_backend,
)
from repro.engine import (
    SolveCache,
    SolveService,
    SolveStore,
    get_default_workers,
    set_default_workers,
)
from repro.campaigns import (
    CAMPAIGN_GENERATORS,
    CAMPAIGN_SWEEPS,
    CampaignSpec,
    campaign_status,
    run_campaign,
    warehouse_for_service,
)
from repro.engine.service import default_service, set_default_service
from repro.exceptions import ConvergenceError, ReproError
from repro.experiments import fig04, fig05, fig07, fig08, fig09, fig10, fig11
from repro.experiments.base import ExperimentResult
from repro.experiments.pipeline import (
    ExperimentSpec,
    run_spec,
    scenario_experiment,
)
from repro.experiments.refine import REFINE_DEFAULTS, RefineSpec
from repro.io import load_campaign, load_scenario, save_campaign
from repro.scenarios import (
    get_scenario,
    is_registered,
    scenario_ids,
    scenario_summary,
)
from repro.simulation.trajectory import (
    DYNAMICS_DEFAULTS,
    dynamics_settings,
    run_trajectory,
)

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_SPECS",
    "build_cache_parser",
    "build_campaign_parser",
    "build_client_parser",
    "build_describe_parser",
    "build_dynamics_parser",
    "build_oligopoly_parser",
    "build_run_parser",
    "build_serve_parser",
    "canonical_experiment",
    "resolve_experiments",
    "run_experiments",
    "main",
]

EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig4": fig04.compute,
    "fig5": fig05.compute,
    "fig7": fig07.compute,
    "fig8": fig08.compute,
    "fig9": fig09.compute,
    "fig10": fig10.compute,
    "fig11": fig11.compute,
}

#: The declarative spec behind each figure id (``list``/``describe`` verbs).
EXPERIMENT_SPECS: dict[str, ExperimentSpec] = {
    "fig4": fig04.SPEC,
    "fig5": fig05.SPEC,
    "fig7": fig07.SPEC,
    "fig8": fig08.SPEC,
    "fig9": fig09.SPEC,
    "fig10": fig10.SPEC,
    "fig11": fig11.SPEC,
}

_FIGURE_ID = re.compile(r"fig0*([1-9]\d*)")

_VERBS = {
    "list",
    "describe",
    "run",
    "cache",
    "oligopoly",
    "dynamics",
    "campaign",
    "serve",
    "client",
}


def canonical_experiment(name: str) -> str:
    """Map CLI spellings onto registry keys.

    Module names are zero-padded (``fig04.py``) while registry keys are not
    (``fig4``); accept both. Unknown names pass through unchanged so the
    registry lookup produces its usual error.
    """
    match = _FIGURE_ID.fullmatch(name.strip().lower())
    if match:
        return f"fig{int(match.group(1))}"
    return name


def resolve_experiments(
    names: Sequence[Union[str, ExperimentSpec]],
    *,
    refine: RefineSpec | None = None,
) -> list[tuple[str, Callable[[], ExperimentResult]]]:
    """Validate, canonicalize and de-duplicate a run list up front.

    Every name is resolved *before* anything executes, so an unknown name
    can never abort a run midway with partial CSVs already written.
    Accepts figure ids (padded or not), registered scenario ids (wrapped in
    the generic scenario experiment) and inline :class:`ExperimentSpec`
    objects; duplicates after canonicalization collapse to the first
    occurrence, preserving order. ``refine`` stamps an adaptive-refinement
    spec onto every resolved experiment (the ``--refine`` flags); a sweep
    kind that cannot refine raises
    :class:`~repro.exceptions.ModelError` here, before anything runs.
    """
    resolved: list[tuple[str, Callable[[], ExperimentResult]]] = []
    seen: set = set()
    for name in names:
        if isinstance(name, ExperimentSpec):
            # Inline specs dedup by object, not by id: their id may collide
            # with a registered name while describing a *different* market
            # (e.g. an edited --scenario file), and must still run.
            key, dedup = name.experiment_id, id(name)
            spec_obj = (
                name if refine is None else replace(name, refine=refine)
            )
            runner = lambda spec=spec_obj: run_spec(spec)  # noqa: E731
        else:
            key = canonical_experiment(name)
            if key in EXPERIMENTS:
                if refine is None:
                    runner = EXPERIMENTS[key]
                else:
                    spec_obj = replace(EXPERIMENT_SPECS[key], refine=refine)
                    runner = lambda spec=spec_obj: run_spec(spec)  # noqa: E731
            elif is_registered(name):
                key = name
                runner = lambda sid=name, ref=refine: run_spec(  # noqa: E731
                    scenario_experiment(get_scenario(sid))
                    if ref is None
                    else replace(
                        scenario_experiment(get_scenario(sid)), refine=ref
                    )
                )
            else:
                raise KeyError(
                    f"unknown experiment or scenario {name!r}; choose from "
                    f"{sorted(EXPERIMENTS)}, 'all', or a registered scenario "
                    f"{scenario_ids()}"
                )
            dedup = key
        if dedup not in seen:
            seen.add(dedup)
            resolved.append((key, runner))
    return resolved


def _expand_all(names: Sequence[str]) -> list[str]:
    """Expand each ``'all'`` token into the figure ids, in place.

    Other names — scenario ids riding alongside ``all`` included — are
    preserved; resolution dedups any overlap with the expansion.
    """
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(EXPERIMENTS)
        else:
            expanded.append(name)
    return expanded


def run_experiments(
    names: Sequence[Union[str, ExperimentSpec]],
    *,
    out_dir: str | Path = "results",
    quiet: bool = False,
    refine: RefineSpec | None = None,
) -> list[ExperimentResult]:
    """Run the named experiments, write CSVs, return results."""
    results = []
    for _, runner in resolve_experiments(names, refine=refine):
        result = runner()
        paths = result.write_csv(out_dir)
        results.append(result)
        if not quiet:
            print(result.render())
            print(f"wrote {len(paths)} csv file(s) to {Path(out_dir).resolve()}")
            print()
    return results


_COUNTER_KEYS = ("memory_hits", "store_hits", "computed")


def _cache_delta(before: dict, after: dict) -> dict:
    """This run's solve/cache counters (service totals may span runs).

    ``before`` is a :meth:`SolveService.counter_snapshot`, ``after`` a
    full :meth:`SolveService.stats` (the footprint is read once).
    """
    summary = {key: after[key] - before[key] for key in _COUNTER_KEYS}
    store_after = after.get("store")
    if store_after is not None:
        store_before = before.get("store") or {}
        summary["store"] = {
            "path": store_after["path"],
            "entries": store_after["entries"],
            "bytes": store_after["bytes"],
            "hits": store_after["hits"] - store_before.get("hits", 0),
            "misses": store_after["misses"] - store_before.get("misses", 0),
            "writes": store_after["writes"] - store_before.get("writes", 0),
        }
    else:
        summary["store"] = None
    # The executor's task/pool counters: totals, not a delta — they live
    # on the executor object, which may predate this run.
    summary["executor"] = after.get("executor")
    return summary


def _service_line(cache_summary: dict) -> str:
    """The human-readable ``solve service: ...`` line of a run's counters."""
    hits = cache_summary["memory_hits"] + cache_summary["store_hits"]
    line = (
        f"solve service: {cache_summary['computed']} task(s) computed, "
        f"{hits} cache hit(s)"
    )
    store = cache_summary["store"]
    if store is not None:
        line += f"; store {store['path']}: {store['entries']} entries"
    return line


def _json_summary(
    results: list[ExperimentResult],
    out_dir: str | Path,
    cache: dict | None = None,
) -> dict:
    return {
        "cache": cache,
        "experiments": [
            {
                "id": result.experiment_id,
                "title": result.title,
                "all_passed": result.all_passed(),
                "checks": [
                    {
                        "name": check.name,
                        "passed": check.passed,
                        "detail": check.detail,
                    }
                    for check in result.checks
                ],
                "csv": [str(path) for path in result.csv_paths(out_dir)],
            }
            for result in results
        ],
        "total_checks": sum(len(result.checks) for result in results),
        "failures": [
            {"experiment": result.experiment_id, "check": check.name}
            for result in results
            for check in result.checks
            if not check.passed
        ],
        "out_dir": str(Path(out_dir).resolve()),
    }


def _resolve_store(cache_dir: str | None) -> SolveStore | None:
    """The store named by ``--cache-dir``, else ``$REPRO_CACHE_DIR``."""
    if cache_dir:
        return SolveStore(cache_dir)
    return SolveStore.from_env()


def _resolve_cli_scenario(args: argparse.Namespace):
    """Resolve a scenario-driven verb's market (file > registered id).

    Shared by the ``oligopoly`` and ``dynamics`` verbs: ``--scenario-file``
    wins over the positional id. A bad file or unknown id prints the
    failure to stderr and returns ``None`` (the caller exits 2).
    """
    if args.scenario_file is not None:
        try:
            return load_scenario(args.scenario_file)
        except (OSError, ValueError, ReproError) as exc:
            print(
                f"cannot load scenario {args.scenario_file!r}: {exc}",
                file=sys.stderr,
            )
            return None
    if is_registered(args.scenario):
        return get_scenario(args.scenario)
    print(
        f"unknown scenario {args.scenario!r}; registered scenarios: "
        f"{scenario_ids()} (or pass --scenario-file FILE)",
        file=sys.stderr,
    )
    return None


def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    """The worker/backend/profile/cache flags shared by the run,
    oligopoly, dynamics, campaign and serve verbs."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for grid solves (default: $REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="array/kernel backend for this run (default: $REPRO_BACKEND "
        "or numpy; 'compiled' picks the fastest available)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="count kernel residual evaluations and bracket expansions and "
        "print a solver-profile summary to stderr when the run ends",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent solve-store directory (default: $REPRO_CACHE_DIR; "
        "a warm store makes re-runs resolve with zero equilibrium solves)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run purely in memory, ignoring --cache-dir and $REPRO_CACHE_DIR",
    )


def _apply_runtime_options(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> bool:
    """Validate and bind the shared worker/cache flags.

    Returns whether the default service was swapped (``--cache-dir`` /
    ``--no-cache`` rebind every default-routed solve path to a service
    with / without the store);
    the caller must pass the flag back to :func:`_restore_runtime_options`.
    """
    if args.no_cache and args.cache_dir is not None:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    try:
        # Resolve the default eagerly so a malformed $REPRO_WORKERS fails
        # with a CLI error up front, not a traceback mid-computation.
        get_default_workers()
    except ValueError as exc:
        parser.error(str(exc))
    if args.workers is not None:
        set_default_workers(args.workers)
    if args.backend is not None:
        args._previous_backend = get_backend().requested
        set_backend(args.backend)
    if args.profile:
        profiling.reset()
        profiling.enable()
    service_changed = args.no_cache or args.cache_dir is not None
    if service_changed:
        store = None if args.no_cache else SolveStore(args.cache_dir)
        set_default_service(
            SolveService(cache=SolveCache(maxsize=256), store=store)
        )
    return service_changed


def _restore_runtime_options(
    args: argparse.Namespace, service_changed: bool
) -> None:
    """Undo :func:`_apply_runtime_options` (restore process defaults)."""
    if args.profile:
        snapshot = profiling.snapshot()
        profiling.disable()
        backend = get_backend()
        print(
            f"[profile] backend={backend.name} "
            f"kernel_calls={snapshot['kernel_calls']} "
            f"kernel_seconds={snapshot['kernel_seconds']:.3f} "
            f"residual_evals={snapshot['residual_evals']} "
            f"brackets_expanded={snapshot['brackets_expanded']} "
            f"lockstep_calls={snapshot['lockstep_calls']} "
            f"lockstep_seconds={snapshot['lockstep_seconds']:.3f} "
            f"equilibrium_kernel_calls={snapshot['equilibrium_kernel_calls']} "
            "equilibrium_kernel_seconds="
            f"{snapshot['equilibrium_kernel_seconds']:.3f} "
            f"equilibrium_fallbacks={snapshot['equilibrium_fallbacks']}",
            file=sys.stderr,
        )
    if args.backend is not None:
        set_backend(getattr(args, "_previous_backend", "numpy"))
    if args.workers is not None:
        set_default_workers(None)
    if service_changed:
        # The temporary store-bound service owns any worker pools it
        # spawned; shut them down before restoring the
        # environment-configured default for this process.
        default_service().close()
        set_default_service(None)


def build_run_parser() -> argparse.ArgumentParser:
    """The main run parser (docgen renders this tree)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of Ma, 'Subsidization Competition' "
        "(CoNEXT 2014), or sweep arbitrary scenarios. Verbs: list, "
        "describe <id>, run <ids...> [--scenario file.json], "
        "oligopoly [--carriers N], dynamics [id], campaign <action>, "
        "cache <action>, serve, client <action>.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"experiment ids ({', '.join(EXPERIMENTS)}), 'all', or "
        "registered scenario ids; zero-padded spellings like fig04 work",
    )
    parser.add_argument(
        "--out", default="results", help="output directory for CSV files"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress ASCII chart rendering"
    )
    parser.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="also run a scenario from a repro-scenario/1 (or repro-market/1) "
        "JSON file through the generic sweep experiment",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary instead of charts",
    )
    parser.add_argument(
        "--refine",
        action="store_true",
        help="solve price/grid sweeps by adaptive refinement: a coarse "
        "price-axis pass, then midpoint insertion where welfare/revenue "
        "curvature or equilibrium-partition changes exceed the threshold "
        "(results are bitwise-identical to a uniform grid at the same "
        "coordinates; only applies to price and grid sweeps)",
    )
    parser.add_argument(
        "--refine-levels",
        type=int,
        default=None,
        metavar="L",
        help="maximum refinement passes, each halving flagged intervals "
        f"(implies --refine; default: {REFINE_DEFAULTS['levels']})",
    )
    parser.add_argument(
        "--refine-threshold",
        type=float,
        default=None,
        metavar="T",
        help="normalized curvature (midpoint-error) score above which an "
        "interval is refined (implies --refine; default: "
        f"{REFINE_DEFAULTS['threshold']:g})",
    )
    _add_runtime_options(parser)
    return parser


def _resolve_refine_spec(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> RefineSpec | None:
    """The ``--refine*`` flags as one spec (sub-flags imply ``--refine``)."""
    if not (
        args.refine
        or args.refine_levels is not None
        or args.refine_threshold is not None
    ):
        return None
    try:
        return RefineSpec(
            levels=(
                args.refine_levels
                if args.refine_levels is not None
                else REFINE_DEFAULTS["levels"]
            ),
            threshold=(
                args.refine_threshold
                if args.refine_threshold is not None
                else REFINE_DEFAULTS["threshold"]
            ),
        )
    except ReproError as exc:
        parser.error(str(exc))


def build_describe_parser() -> argparse.ArgumentParser:
    """The ``describe`` verb's parser (docgen renders this tree)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments describe",
        description="Describe an experiment spec or scenario.",
    )
    parser.add_argument("name", help="experiment or scenario id")
    return parser


def build_oligopoly_parser() -> argparse.ArgumentParser:
    """The ``oligopoly`` verb's parser (docgen renders this tree)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments oligopoly",
        description="Solve an N-carrier oligopoly price competition over a "
        "scenario's market: damped best-response iteration on the carriers' "
        "prices until every price is a certified best response, each "
        "carrier's best-response search running as a "
        "content-keyed task on the shared solve service (resumable against "
        "a warm --cache-dir store). Explicit flags override the scenario's "
        "metadata (an oligopoly(...) generator scenario records carriers, "
        "switching, cap and iteration mode).",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="oligopoly-4",
        help="registered scenario id (default: oligopoly-4)",
    )
    parser.add_argument(
        "--scenario-file",
        metavar="FILE",
        default=None,
        help="repro-scenario/1 (or repro-market/1) JSON file instead of a "
        "registered id",
    )
    parser.add_argument(
        "--carriers",
        type=int,
        default=None,
        metavar="N",
        help="carrier count (default: scenario metadata, else 2)",
    )
    parser.add_argument(
        "--switching",
        type=float,
        default=None,
        metavar="S",
        help="logit switching sensitivity σ (default: metadata, else 2.0)",
    )
    parser.add_argument(
        "--cap",
        type=float,
        default=None,
        metavar="Q",
        help="subsidization policy cap q (default: metadata, else 0.0)",
    )
    parser.add_argument(
        "--mode",
        choices=("gauss-seidel", "jacobi"),
        default=None,
        help="iteration mode: sequential gauss-seidel (freshest rival "
        "prices) or simultaneous jacobi (carrier sweeps pool-parallel); "
        f"default: metadata, else {COMPETITION_DEFAULTS['iteration_mode']}",
    )
    parser.add_argument(
        "--damping",
        type=float,
        default=None,
        metavar="D",
        help="best-response step factor in (0, 1] (default: metadata, "
        f"else {COMPETITION_DEFAULTS['damping']})",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        metavar="T",
        help="certificate tolerance on the revenue slope: a price is an "
        "interior best response when |dR/dp| <= T, and the competition "
        "stops when every carrier's price is a certified best response "
        f"(default: metadata, else {COMPETITION_DEFAULTS['tol']:g})",
    )
    parser.add_argument(
        "--max-sweeps",
        type=int,
        default=None,
        metavar="K",
        help="sweep budget before ConvergenceError (default: metadata, "
        f"else {COMPETITION_DEFAULTS['max_sweeps']})",
    )
    parser.add_argument(
        "--grid-points",
        type=int,
        default=None,
        metavar="G",
        help="candidate prices of a best-response search's full grid "
        f"(default: metadata, else {COMPETITION_DEFAULTS['grid_points']})",
    )
    parser.add_argument(
        "--xtol",
        type=float,
        default=None,
        metavar="X",
        help="price tolerance of the search: a slope sign change across a "
        "bracket this narrow certifies a kink maximum "
        f"(default: metadata, else {COMPETITION_DEFAULTS['xtol']:g})",
    )
    parser.add_argument(
        "--price-range",
        type=float,
        nargs=2,
        default=None,
        metavar=("LO", "HI"),
        help="price search interval (default: metadata, else "
        f"{COMPETITION_DEFAULTS['price_range'][0]:g} "
        f"{COMPETITION_DEFAULTS['price_range'][1]:g})",
    )
    parser.add_argument(
        "--initial-price",
        type=float,
        default=None,
        metavar="P",
        help="starting price for every carrier (default: 1.0)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary (prices, shares, "
        "revenues, per-carrier convergence counters, cache counters)",
    )
    _add_runtime_options(parser)
    return parser


def _main_oligopoly(argv: Sequence[str]) -> int:
    parser = build_oligopoly_parser()
    args = parser.parse_args(list(argv))
    scn = _resolve_cli_scenario(args)
    if scn is None:
        return 2
    # One conversion/validation funnel for flags *and* scenario-file
    # metadata: malformed values exit 2 with a message, never a traceback.
    try:
        settings = competition_settings(
            scn.metadata,
            overrides={
                "iteration_mode": args.mode,
                "damping": args.damping,
                "tol": args.tol,
                "max_sweeps": args.max_sweeps,
                "price_range": args.price_range,
                "grid_points": args.grid_points,
                "xtol": args.xtol,
            },
        )
    except ReproError as exc:
        parser.error(str(exc))

    service_changed = _apply_runtime_options(parser, args)
    cache_before = default_service().counter_snapshot()
    try:
        try:
            game = OligopolyGame.from_scenario(
                scn,
                carriers=args.carriers,
                switching=args.switching,
                cap=args.cap,
            )
            initial = (
                None
                if args.initial_price is None
                else (float(args.initial_price),) * game.n_carriers
            )
            result = solve_oligopoly_competition(
                game,
                initial_prices=initial,
                price_range=settings.price_range,
                grid_points=settings.grid_points,
                xtol=settings.xtol,
                policy=settings.policy,
            )
        except ConvergenceError as exc:
            print(f"FAIL {scn.scenario_id}: {exc}", file=sys.stderr)
            return 1
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        cache_summary = _cache_delta(cache_before, default_service().stats())
    finally:
        _restore_runtime_options(args, service_changed)

    state = result.state
    if args.json:
        print(
            json.dumps(
                {
                    "scenario": scn.scenario_id,
                    "carriers": game.n_carriers,
                    "mode": result.mode,
                    "switching": game.switching,
                    "cap": game.cap,
                    "converged": True,
                    "iterations": result.iterations,
                    "residual": result.residual,
                    "prices": list(state.prices),
                    "shares": list(state.shares),
                    "revenues": list(state.revenues),
                    "industry_revenue": state.total_revenue,
                    "welfare": state.welfare,
                    "mean_utilization": state.mean_utilization,
                    "carrier_stats": [
                        stats.as_dict() for stats in result.carrier_stats
                    ],
                    "cache": cache_summary,
                },
                indent=2,
            )
        )
        return 0
    print(
        f"oligopoly {scn.scenario_id}: {game.n_carriers} carrier(s), "
        f"{result.mode}, σ={game.switching:g}, q={game.cap:g}"
    )
    print(
        f"converged in {result.iterations} sweep(s), "
        f"residual {result.residual:.2e}"
    )
    print("  carrier        price    share    revenue   sweeps  solves")
    for k in range(game.n_carriers):
        stats = result.carrier_stats[k]
        print(
            f"  {game.isps[k].name or k:<12} {state.prices[k]:>8.4f} "
            f"{state.shares[k]:>8.4f} {state.revenues[k]:>10.5f} "
            f"{stats.sweeps:>8d} {stats.solves:>7d}"
        )
    print(
        f"industry revenue {state.total_revenue:.5f}, "
        f"welfare {state.welfare:.5f}, "
        f"mean utilization {state.mean_utilization:.4f}"
    )
    print(_service_line(cache_summary))
    return 0


def build_dynamics_parser() -> argparse.ArgumentParser:
    """The ``dynamics`` verb's parser (docgen renders this tree)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments dynamics",
        description="Run a market trajectory over a scenario's market: the "
        "§6 time-dynamics subsystem. The step policy, horizon, investment "
        "rule and shock schedule come from the scenario's repro-dynamics/1 "
        "metadata block (a trajectory_variant(...) or shocked_market(...) "
        "generator scenario records it); explicit flags override it. The "
        "trajectory resolves as content-keyed dynamics-seg/1 tasks on the "
        "shared solve service, so a warm --cache-dir re-run replays with "
        "zero equilibrium solves, and the per-period time series is "
        "written as one CSV into --out.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="dynamics-20",
        help="registered scenario id (default: dynamics-20)",
    )
    parser.add_argument(
        "--scenario-file",
        metavar="FILE",
        default=None,
        help="repro-scenario/1 (or repro-market/1) JSON file instead of a "
        "registered id",
    )
    parser.add_argument(
        "--kind",
        choices=("subsidies", "capacity"),
        default=None,
        help="step policy: 'subsidies' (off-equilibrium best-response play) "
        "or 'capacity' (the revenue->investment->capacity loop); "
        f"default: metadata, else {DYNAMICS_DEFAULTS['kind']}",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="T",
        help="number of simulated periods "
        f"(default: metadata, else {DYNAMICS_DEFAULTS['horizon']})",
    )
    parser.add_argument(
        "--segment-length",
        type=int,
        default=None,
        metavar="L",
        help="steps per content-keyed solve-service segment "
        f"(default: metadata, else {DYNAMICS_DEFAULTS['segment_length']})",
    )
    parser.add_argument(
        "--cap",
        type=float,
        default=None,
        metavar="Q",
        help="subsidization policy cap q "
        f"(default: metadata, else {DYNAMICS_DEFAULTS['cap']:g})",
    )
    parser.add_argument(
        "--inertia",
        type=float,
        default=None,
        metavar="R",
        help="population adjustment speed in (0, 1] of the 'subsidies' kind "
        f"(default: metadata, else {DYNAMICS_DEFAULTS['inertia']:g})",
    )
    parser.add_argument(
        "--update",
        choices=("sequential", "simultaneous"),
        default=None,
        help="CP update schedule of the 'subsidies' kind "
        f"(default: metadata, else {DYNAMICS_DEFAULTS['update']})",
    )
    parser.add_argument(
        "--damping",
        type=float,
        default=None,
        metavar="D",
        help="best-response step factor in (0, 1] of the 'subsidies' kind "
        f"(default: metadata, else {DYNAMICS_DEFAULTS['damping']:g})",
    )
    parser.add_argument(
        "--reinvest",
        type=float,
        default=None,
        metavar="F",
        help="fraction of per-period revenue reinvested by the 'capacity' "
        "kind (default: metadata, else "
        f"{DYNAMICS_DEFAULTS['reinvestment_rate']:g})",
    )
    parser.add_argument(
        "--capacity-cost",
        type=float,
        default=None,
        metavar="C",
        help="cost of one unit of capacity "
        f"(default: metadata, else {DYNAMICS_DEFAULTS['capacity_cost']:g})",
    )
    parser.add_argument(
        "--depreciation",
        type=float,
        default=None,
        metavar="D",
        help="per-period fractional capacity decay in [0, 1) "
        f"(default: metadata, else {DYNAMICS_DEFAULTS['depreciation']:g})",
    )
    parser.add_argument(
        "--reoptimize-price",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="re-solve the ISP's revenue-optimal price each period of the "
        "'capacity' kind (default: metadata, else off)",
    )
    parser.add_argument(
        "--out",
        default="results",
        help="output directory for the trajectory CSV",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary (final-period "
        "quantities, segment counts, cache counters)",
    )
    _add_runtime_options(parser)
    return parser


def _main_dynamics(argv: Sequence[str]) -> int:
    parser = build_dynamics_parser()
    args = parser.parse_args(list(argv))
    scn = _resolve_cli_scenario(args)
    if scn is None:
        return 2
    # One conversion/validation funnel for flags *and* scenario-file
    # metadata: malformed values exit 2 with a message, never a traceback.
    try:
        dspec = dynamics_settings(
            scn.metadata,
            overrides={
                "kind": args.kind,
                "horizon": args.horizon,
                "segment_length": args.segment_length,
                "cap": args.cap,
                "inertia": args.inertia,
                "update": args.update,
                "damping": args.damping,
                "reinvestment_rate": args.reinvest,
                "capacity_cost": args.capacity_cost,
                "depreciation": args.depreciation,
                "reoptimize_price": args.reoptimize_price,
            },
        )
    except ReproError as exc:
        parser.error(str(exc))

    service_changed = _apply_runtime_options(parser, args)
    cache_before = default_service().counter_snapshot()
    try:
        try:
            trajectory = run_trajectory(scn.market, dspec)
        except ConvergenceError as exc:
            print(f"FAIL {scn.scenario_id}: {exc}", file=sys.stderr)
            return 1
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        cache_summary = _cache_delta(cache_before, default_service().stats())
    finally:
        _restore_runtime_options(args, service_changed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{scn.scenario_id}-trajectory.csv"
    trajectory.to_csv(csv_path, labels=scn.market.provider_names())

    final = {
        "step": int(trajectory.steps[-1]),
        "adoption": float(trajectory.adoption()[-1]),
        "utilization": float(trajectory.utilizations[-1]),
        "revenue": float(trajectory.revenues[-1]),
        "welfare": float(trajectory.welfares[-1]),
        "capacity": float(trajectory.capacities[-1]),
        "price": float(trajectory.prices[-1]),
    }
    if args.json:
        print(
            json.dumps(
                {
                    "scenario": scn.scenario_id,
                    "kind": dspec.kind,
                    "horizon": dspec.horizon,
                    "segment_length": dspec.segment_length,
                    "segments": trajectory.segments,
                    "records": int(trajectory.steps.size),
                    "shocks": len(dspec.shocks),
                    "final": final,
                    "capacity_growth": trajectory.capacity_growth(),
                    "csv": str(csv_path),
                    "cache": cache_summary,
                },
                indent=2,
            )
        )
        return 0
    print(
        f"dynamics {scn.scenario_id}: {dspec.kind} trajectory, "
        f"{dspec.horizon} period(s), q={dspec.cap:g}, "
        f"{len(dspec.shocks)} shock(s)"
    )
    print(
        f"resolved {trajectory.segments} segment(s) of <= "
        f"{dspec.segment_length} step(s)"
    )
    print(
        f"final period: adoption {final['adoption']:.5f}, "
        f"utilization {final['utilization']:.4f}, "
        f"revenue {final['revenue']:.5f}, welfare {final['welfare']:.5f}"
    )
    print(
        f"capacity {trajectory.capacities[0]:g} -> {final['capacity']:.5f} "
        f"({100.0 * trajectory.capacity_growth():+.1f}%), "
        f"price {final['price']:g}"
    )
    print(f"wrote {csv_path}")
    print(_service_line(cache_summary))
    return 0


def build_cache_parser() -> argparse.ArgumentParser:
    """The ``cache`` verb's parser (docgen renders this tree)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments cache",
        description="Inspect or maintain the persistent solve store.",
    )
    parser.add_argument(
        "action",
        choices=("stats", "path", "clear", "prune"),
        help="stats: entry count and footprint (JSON); path: the store "
        "directory; clear: remove every stored artifact; prune: sweep "
        "stray temp files and leftovers of the older two-file format, "
        "optionally evicting oldest entries past "
        "--max-entries/--max-bytes",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="store directory (default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="prune: keep at most N committed entries (oldest evicted first)",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="B",
        help="prune: keep the store under B bytes (oldest evicted first)",
    )
    return parser


def _main_cache(argv: Sequence[str]) -> int:
    args = build_cache_parser().parse_args(list(argv))
    store = _resolve_store(args.cache_dir)
    if store is None:
        print(
            "no cache directory configured "
            "(pass --cache-dir or set $REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    if args.action != "prune" and (
        args.max_entries is not None or args.max_bytes is not None
    ):
        print(
            "--max-entries/--max-bytes only apply to the prune action",
            file=sys.stderr,
        )
        return 2
    if args.action == "path":
        print(store.path)
    elif args.action == "stats":
        stats = store.stats()
        print(
            json.dumps(
                {
                    "path": stats["path"],
                    "entries": stats["entries"],
                    "shards": stats["shards"],
                    "bytes": stats["bytes"],
                },
                indent=2,
            )
        )
    elif args.action == "prune":
        try:
            summary = store.prune(
                max_entries=args.max_entries, max_bytes=args.max_bytes
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(json.dumps({"path": str(store.path), **summary}, indent=2))
    else:
        removed = store.clear()
        noun = "entry" if removed == 1 else "entries"
        print(f"removed {removed} {noun} from {store.path}")
    return 0


def build_campaign_parser() -> argparse.ArgumentParser:
    """The ``campaign`` verb's parser (docgen renders this tree)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description="Run, resume and query mass scenario campaigns: a "
        "repro-campaign/1 spec (generator x seed range x parameter axes "
        "x sweep kind) expands into a deterministic content-keyed row "
        "matrix, each row solves through the shared solve service, and "
        "the per-row metrics land in an append-only sqlite warehouse "
        "next to the persistent store. Reruns compute only the missing "
        "rows; a warm full replay reports zero equilibrium solves.",
    )
    parser.add_argument(
        "action",
        choices=("run", "status", "summary", "query"),
        help="run: execute (or resume) the campaign; status: completion "
        "state against the warehouse, no solves; summary: per-metric "
        "distribution statistics over the landed rows; query: the raw "
        "per-row records",
    )
    parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="repro-campaign/1 JSON file; omit to synthesize a spec from "
        "the flags below",
    )
    parser.add_argument(
        "--campaign-id",
        default="campaign",
        metavar="ID",
        help="identifier for a synthesized spec (default: campaign)",
    )
    parser.add_argument(
        "--generator",
        default=None,
        choices=sorted(CAMPAIGN_GENERATORS),
        help="scenario generator for a synthesized spec "
        "(default: random_market)",
    )
    parser.add_argument(
        "--sweep",
        default=None,
        choices=CAMPAIGN_SWEEPS,
        help="per-row sweep kind for a synthesized spec (default: price)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=None,
        metavar="N",
        help="seed range length for a synthesized spec (seed_count; "
        "default: 1)",
    )
    parser.add_argument(
        "--seed-start",
        type=int,
        default=None,
        metavar="S",
        help="first seed of the range (default: 0)",
    )
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="parameter axis for a synthesized spec (repeatable); values "
        "parse as JSON scalars, falling back to strings",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fixed generator parameter for a synthesized spec "
        "(repeatable); the value parses as a JSON scalar, falling back "
        "to a string",
    )
    parser.add_argument(
        "--prices",
        default=None,
        metavar="CSV",
        help="price sweep values for a synthesized spec "
        "(comma-separated floats)",
    )
    parser.add_argument(
        "--policies",
        default=None,
        metavar="CSV",
        help="policy cap levels for a synthesized grid-sweep spec "
        "(comma-separated floats)",
    )
    parser.add_argument(
        "--sampled",
        type=int,
        default=None,
        metavar="N",
        help="sample N rows from the axis product instead of expanding "
        "it fully (sampling=sampled, n_samples=N)",
    )
    parser.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        metavar="S",
        help="RNG seed for --sampled row draws (default: 0)",
    )
    parser.add_argument(
        "--save-spec",
        default=None,
        metavar="FILE",
        help="write the resolved spec as repro-campaign/1 JSON to FILE",
    )
    parser.add_argument(
        "--metric",
        default=None,
        metavar="NAME",
        help="summary/query: restrict the output to one metric",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="query: print at most the first N rows",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="summary: emit the 12-significant-digit CSV table instead "
        "of human-readable lines",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON document instead of "
        "human-readable lines",
    )
    _add_runtime_options(parser)
    return parser


def _campaign_value(text: str):
    """``--axis``/``--param`` value: a JSON scalar, else the raw string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _resolve_campaign_spec(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> CampaignSpec:
    """``--spec FILE`` or a spec synthesized from the flags."""
    if args.spec is not None:
        synthesis_flags = [
            flag
            for flag, value in (
                ("--generator", args.generator),
                ("--sweep", args.sweep),
                ("--rows", args.rows),
                ("--seed-start", args.seed_start),
                ("--sampled", args.sampled),
                ("--sample-seed", args.sample_seed),
                ("--prices", args.prices),
                ("--policies", args.policies),
            )
            if value is not None
        ]
        if args.axis:
            synthesis_flags.append("--axis")
        if args.param:
            synthesis_flags.append("--param")
        if synthesis_flags:
            parser.error(
                "--spec is exclusive with spec-synthesis flags "
                f"({', '.join(synthesis_flags)})"
            )
        try:
            return load_campaign(args.spec)
        except (OSError, ValueError, ReproError) as exc:
            parser.error(f"cannot load campaign spec {args.spec!r}: {exc}")
    axes: dict[str, tuple] = {}
    for entry in args.axis:
        name, sep, rest = entry.partition("=")
        if not sep or not name or not rest:
            parser.error(f"--axis wants NAME=V1,V2,... (got {entry!r})")
        axes[name] = tuple(_campaign_value(v) for v in rest.split(","))
    base_params: dict = {}
    for entry in args.param:
        name, sep, rest = entry.partition("=")
        if not sep or not name:
            parser.error(f"--param wants NAME=VALUE (got {entry!r})")
        base_params[name] = _campaign_value(rest)
    if args.prices is not None:
        try:
            base_params["prices"] = [
                float(v) for v in args.prices.split(",")
            ]
        except ValueError:
            parser.error("--prices wants comma-separated floats")
    if args.policies is not None:
        try:
            base_params["policy_levels"] = [
                float(v) for v in args.policies.split(",")
            ]
        except ValueError:
            parser.error("--policies wants comma-separated floats")
    try:
        return CampaignSpec(
            campaign_id=args.campaign_id,
            generator=args.generator or "random_market",
            sweep=args.sweep or "price",
            seed_start=args.seed_start if args.seed_start is not None else 0,
            seed_count=args.rows if args.rows is not None else 1,
            axes=axes,
            sampling="sampled" if args.sampled is not None else "product",
            n_samples=args.sampled if args.sampled is not None else 0,
            sample_seed=(
                args.sample_seed if args.sample_seed is not None else 0
            ),
            base_params=base_params,
        )
    except ReproError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # parser.error raises SystemExit


def _print_campaign_summary(summary: dict) -> None:
    for metric in sorted(summary):
        stats = summary[metric]
        print(
            f"  {metric:<20} n={int(stats['count']):<4d} "
            f"mean={stats['mean']:.6g} std={stats['std']:.6g} "
            f"min={stats['min']:.6g} median={stats['median']:.6g} "
            f"max={stats['max']:.6g}"
        )


def _main_campaign(argv: Sequence[str]) -> int:
    parser = build_campaign_parser()
    args = parser.parse_args(list(argv))
    spec = _resolve_campaign_spec(parser, args)
    if args.save_spec is not None:
        save_campaign(spec, args.save_spec)
    service_changed = _apply_runtime_options(parser, args)
    try:
        service = default_service()
        if args.action == "run" and service.store is None:
            print(
                "campaigns need a persistent store; pass --cache-dir or "
                "set $REPRO_CACHE_DIR",
                file=sys.stderr,
            )
            return 2
        warehouse = warehouse_for_service(service)
        try:
            campaign = spec.digest()
            if args.action == "run":
                cache_before = service.counter_snapshot()
                try:
                    report = run_campaign(
                        spec,
                        service=service,
                        warehouse=warehouse,
                        workers=args.workers,
                    )
                except ConvergenceError as exc:
                    print(str(exc), file=sys.stderr)
                    return 1
                except ReproError as exc:
                    print(str(exc), file=sys.stderr)
                    return 2
                cache_summary = _cache_delta(cache_before, service.stats())
                summary = warehouse.summary(campaign)
                if args.json:
                    print(
                        json.dumps(
                            {
                                **report.to_dict(),
                                "cache": cache_summary,
                                "summary": summary,
                            },
                            indent=2,
                        )
                    )
                    return 0
                print(
                    f"campaign {spec.campaign_id} "
                    f"({spec.generator}/{spec.sweep}): "
                    f"{report.rows_total} row(s), "
                    f"{report.rows_computed} computed, "
                    f"{report.rows_resumed} resumed"
                )
                print(f"warehouse: {report.warehouse_path}")
                print(_service_line(cache_summary))
                _print_campaign_summary(summary)
                return 0
            if args.action == "status":
                try:
                    status = campaign_status(spec, warehouse)
                except ReproError as exc:
                    print(str(exc), file=sys.stderr)
                    return 2
                if args.json:
                    print(json.dumps(status, indent=2))
                    return 0
                print(
                    f"campaign {status['campaign_id']}: "
                    f"{status['rows_done']}/{status['rows_total']} row(s) "
                    f"landed, {status['rows_missing']} missing"
                )
                print(f"warehouse: {status['warehouse_path']}")
                if status["metrics"]:
                    print(f"metrics: {', '.join(status['metrics'])}")
                return 0
            if warehouse.count(campaign) == 0:
                print(
                    f"campaign {spec.campaign_id} has no rows in "
                    f"{warehouse.path}; run it first",
                    file=sys.stderr,
                )
                return 2
            if args.metric is not None:
                names = warehouse.metric_names(campaign)
                if args.metric not in names:
                    print(
                        f"unknown metric {args.metric!r}; campaign "
                        f"reports {sorted(names)}",
                        file=sys.stderr,
                    )
                    return 2
            if args.action == "summary":
                if args.csv:
                    text = warehouse.summary_csv(campaign)
                    if args.metric is not None:
                        lines = text.splitlines()
                        keep = [lines[0]] + [
                            ln
                            for ln in lines[1:]
                            if ln.split(",", 1)[0] == args.metric
                        ]
                        text = "\n".join(keep) + "\n"
                    print(text, end="")
                    return 0
                summary = warehouse.summary(campaign)
                if args.metric is not None:
                    summary = {args.metric: summary[args.metric]}
                if args.json:
                    print(json.dumps(summary, indent=2))
                    return 0
                print(
                    f"campaign {spec.campaign_id}: "
                    f"{warehouse.count(campaign)} row(s)"
                )
                _print_campaign_summary(summary)
                return 0
            # query
            records = warehouse.rows(campaign)
            if args.limit is not None:
                records = records[: max(args.limit, 0)]
            if args.json:
                payload = [
                    {
                        **{
                            k: rec[k]
                            for k in (
                                "index",
                                "digest",
                                "seed",
                                "scenario_id",
                                "params",
                            )
                        },
                        "metrics": (
                            {args.metric: rec["metrics"][args.metric]}
                            if args.metric is not None
                            else rec["metrics"]
                        ),
                    }
                    for rec in records
                ]
                print(json.dumps(payload, indent=2))
                return 0
            for rec in records:
                metrics = (
                    {args.metric: rec["metrics"][args.metric]}
                    if args.metric is not None
                    else rec["metrics"]
                )
                rendered = " ".join(
                    f"{name}={metrics[name]:.6g}"
                    for name in sorted(metrics)
                )
                print(
                    f"  row {rec['index']:<4d} seed={rec['seed']} "
                    f"{rec['scenario_id']}: {rendered}"
                )
            return 0
        finally:
            warehouse.close()
    finally:
        _restore_runtime_options(args, service_changed)


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` verb's parser (docgen renders this tree)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Run the long-lived solve daemon: an HTTP/JSON service "
        "(submit-scenario -> job id -> poll/result) over one warm solve "
        "service, so many clients replaying overlapping scenario sets "
        "share a single persistent store and executor pool. Routes: "
        "GET /health, GET /stats, POST /jobs, GET /jobs, GET /jobs/ID "
        "(?wait=SECONDS long-polls), GET /jobs/ID/result, "
        "POST /jobs/ID/cancel. See docs/serve.md.",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8787,
        metavar="PORT",
        help="port to bind; 0 picks an ephemeral port (default: 8787)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write 'host port' to PATH once the socket is listening — the "
        "readiness signal scripts and CI wait on (works with --port 0)",
    )
    parser.add_argument(
        "--queue-workers",
        type=int,
        default=1,
        metavar="N",
        help="solver threads draining the job queue (default: 1; each job's "
        "row-level parallelism still comes from --workers)",
    )
    _add_runtime_options(parser)
    return parser


def _main_serve(argv: Sequence[str]) -> int:
    import asyncio
    import signal

    from repro.server.jobs import JobManager
    from repro.server.http import run_server

    parser = build_serve_parser()
    args = parser.parse_args(list(argv))
    if args.queue_workers < 1:
        parser.error("--queue-workers must be at least 1")
    service_changed = _apply_runtime_options(parser, args)
    manager = JobManager(
        service=default_service(), workers=args.queue_workers
    )

    def on_bound(bound: tuple) -> None:
        host, port = bound
        print(f"repro serve listening on http://{host}:{port}", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{host} {port}\n")

    async def daemon() -> None:
        loop = asyncio.get_running_loop()
        task = asyncio.ensure_future(
            run_server(
                manager, host=args.host, port=args.port, on_bound=on_bound
            )
        )
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, task.cancel)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX event loop; Ctrl-C still raises
        try:
            await task
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(daemon())
    except KeyboardInterrupt:
        pass
    finally:
        manager.close()
        _restore_runtime_options(args, service_changed)
        if args.port_file:
            Path(args.port_file).unlink(missing_ok=True)
    print("repro serve shut down cleanly", flush=True)
    return 0


def build_client_parser() -> argparse.ArgumentParser:
    """The ``client`` verb's parser (docgen renders this tree)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments client",
        description="Talk to a running repro serve daemon: health/stats "
        "probes, submit-and-wait for one scenario, or replay a scenario "
        "set from N concurrent clients and report requests/sec plus the "
        "server-side computed/store-write deltas (a warm store must show "
        "computed_delta == 0).",
    )
    parser.add_argument(
        "action",
        choices=("health", "stats", "submit", "replay"),
        help="health: liveness probe; stats: server counters; submit: run "
        "one scenario to a terminal state; replay: N concurrent clients "
        "replaying the scenario set",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="scenario",
        help="registered scenario ids (submit uses the first; replay "
        "replays the whole set from every client)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="daemon host (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8787,
        metavar="PORT",
        help="daemon port (default: 8787)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="read 'host port' from PATH (written by serve --port-file; "
        "overrides --host/--port)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="replay: concurrent client threads (default: 4)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-job terminal-state timeout (default: 300)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON response/summary",
    )
    return parser


def _main_client(argv: Sequence[str]) -> int:
    from repro.server.client import ServeClient, ServeError, replay

    parser = build_client_parser()
    args = parser.parse_args(list(argv))
    host, port = args.host, args.port
    if args.port_file:
        try:
            host, raw_port = Path(args.port_file).read_text().split()
            port = int(raw_port)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.port_file!r}: {exc}", file=sys.stderr)
            return 2
    if args.action in ("submit", "replay") and not args.scenarios:
        parser.error(f"{args.action} needs at least one scenario id")
    unknown = [sid for sid in args.scenarios if not is_registered(sid)]
    if unknown:
        print(
            f"unknown scenario id(s) {unknown}; registered: {scenario_ids()}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.action == "health":
            payload = ServeClient(host, port).health()
        elif args.action == "stats":
            payload = ServeClient(host, port).stats()
        elif args.action == "submit":
            record = ServeClient(host, port).run(
                args.scenarios[0], timeout=args.timeout
            )
            payload = record
            if record["state"] != "done":
                print(json.dumps(record, indent=2), file=sys.stderr)
                return 1
        else:
            payload = replay(
                host,
                port,
                args.scenarios,
                clients=args.clients,
                timeout=args.timeout,
            )
            if payload["failures"] or payload["outcomes"].get(
                "done", 0
            ) != args.clients * len(args.scenarios):
                print(json.dumps(payload, indent=2), file=sys.stderr)
                return 1
    except (ServeError, ConnectionError, TimeoutError, OSError) as exc:
        print(f"client {args.action} failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    elif args.action == "replay":
        print(
            f"{payload['clients']} client(s) x {payload['scenarios']} "
            f"scenario(s): {payload['requests']} request(s) in "
            f"{payload['elapsed_seconds']:.2f}s "
            f"({payload['requests_per_sec']:.1f} req/s), "
            f"computed_delta={payload['computed_delta']}, "
            f"coalesced_delta={payload['coalesced_delta']}"
        )
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _main_list() -> int:
    print("Experiments (figure reproductions):")
    for key, spec in EXPERIMENT_SPECS.items():
        print(f"  {key:<12} {spec.title}")
    print()
    print("Scenarios (run by id, or sweep any figure's market):")
    for sid in scenario_ids():
        print(f"  {sid:<12} {scenario_summary(sid)}")
    return 0


def _main_describe(name: str) -> int:
    key = canonical_experiment(name)
    if key in EXPERIMENT_SPECS:
        spec = EXPERIMENT_SPECS[key]
        scenario = spec.resolve_scenario()
        print(f"experiment {key}: {spec.title}")
        print(f"  sweep:     {spec.sweep}")
        print("  panels:")
        for panel in spec.panels:
            kind = "per-CP" if panel.per_provider else "scalar"
            print(f"    {panel.figure_id:<14} {panel.quantity} ({kind})")
        print(f"  checks:    {len(spec.checks)}")
        for check in spec.checks:
            print(f"    - {check.name}")
        print("  " + scenario.describe().replace("\n", "\n  "))
        return 0
    if is_registered(name):
        print(get_scenario(name).describe())
        return 0
    print(
        f"unknown experiment or scenario {name!r}; choose from "
        f"{sorted(EXPERIMENT_SPECS)} or {scenario_ids()}",
        file=sys.stderr,
    )
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # The verb must lead (``list``, ``describe x``, ``run ...``); anything
    # else — including legacy ``fig4 --quiet`` invocations — is a run.
    verb = argv[0] if argv and argv[0] in _VERBS else None
    if verb == "list":
        return _main_list()
    if verb == "describe":
        args = build_describe_parser().parse_args(argv[1:])
        return _main_describe(args.name)
    if verb == "cache":
        return _main_cache(argv[1:])
    if verb == "oligopoly":
        return _main_oligopoly(argv[1:])
    if verb == "dynamics":
        return _main_dynamics(argv[1:])
    if verb == "campaign":
        return _main_campaign(argv[1:])
    if verb == "serve":
        return _main_serve(argv[1:])
    if verb == "client":
        return _main_client(argv[1:])
    if verb == "run":
        argv = argv[1:]
        # "run oligopoly ..." / "run dynamics ..." read naturally; route
        # them to their verbs.
        if argv and argv[0] == "oligopoly":
            return _main_oligopoly(argv[1:])
        if argv and argv[0] == "dynamics":
            return _main_dynamics(argv[1:])
        if argv and argv[0] == "campaign":
            # "run campaign --rows N" reads as "campaign run --rows N".
            return _main_campaign(["run", *argv[1:]])

    parser = build_run_parser()
    args = parser.parse_args(argv)
    if not args.experiments and args.scenario is None:
        parser.error("no experiments given (names, 'all', or --scenario FILE)")

    names: list[Union[str, ExperimentSpec]] = list(
        _expand_all(args.experiments)
    )
    if args.scenario is not None:
        try:
            names.append(scenario_experiment(load_scenario(args.scenario)))
        except (OSError, ValueError, ReproError) as exc:
            print(f"cannot load scenario {args.scenario!r}: {exc}", file=sys.stderr)
            return 2
    refine = _resolve_refine_spec(parser, args)
    service_changed = _apply_runtime_options(parser, args)
    cache_before = default_service().counter_snapshot()
    try:
        results = run_experiments(
            names,
            out_dir=args.out,
            quiet=args.quiet or args.json,
            refine=refine,
        )
        cache_summary = _cache_delta(cache_before, default_service().stats())
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ReproError as exc:
        # e.g. --refine on an experiment whose sweep kind cannot refine.
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        _restore_runtime_options(args, service_changed)

    failed = [
        (result.experiment_id, check.name)
        for result in results
        for check in result.checks
        if not check.passed
    ]
    if args.json:
        print(
            json.dumps(_json_summary(results, args.out, cache_summary), indent=2)
        )
        return 1 if failed else 0
    total_checks = sum(len(result.checks) for result in results)
    # Summary and FAIL detail share one stream so they never interleave
    # inconsistently: diagnostics to stderr on failure, stdout on success.
    stream = sys.stderr if failed else sys.stdout
    print(
        f"{len(results)} experiment(s), {total_checks} shape check(s), "
        f"{len(failed)} failure(s)",
        file=stream,
    )
    print(_service_line(cache_summary), file=stream)
    for experiment_id, check_name in failed:
        print(f"  FAIL {experiment_id}: {check_name}", file=stream)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
