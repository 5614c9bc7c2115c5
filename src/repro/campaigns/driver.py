"""The campaign driver: expand, resume, execute, land in the warehouse.

:func:`run_campaign` is the whole lifecycle in one call:

1. **Expand** the spec into its deterministic row matrix
   (:meth:`~repro.campaigns.spec.CampaignSpec.expand`).
2. **Resume**: read the warehouse's digest manifest for this campaign
   and drop every row already landed — a rerun computes only the
   complement, and a rerun over a complete warehouse computes nothing.
3. **Execute** each remaining row through the shared
   :class:`~repro.engine.service.SolveService`. Rows are ordinary
   solve workloads — grid rows are the same content-keyed
   ``cap-row/1`` tasks the figure pipeline runs, dynamics rows the same
   ``dynamics/1`` trajectory tasks, oligopoly rows the same
   ``oligopoly/1`` competitions — so a campaign shares the persistent store with every other
   workload and a warm full replay reports ``computed == 0`` solves.
4. **Land** each row's metrics in the
   :class:`~repro.campaigns.warehouse.CampaignWarehouse` atomically
   (row + metrics in one transaction), which is what makes SIGKILL at
   any instant recoverable: the manifest never names a partial row.

Each row kind is an entry of
:data:`repro.experiments.kinds.ROW_KINDS`: the driver solves a row with
the kind's solve (``price`` and ``grid`` rows share the experiment
pipeline's) and computes the kind's metric columns
(:data:`SWEEP_METRICS`) from the solved result, so a campaign's
warehouse columns are knowable from its spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.campaigns.spec import CampaignRow, CampaignSpec
from repro.campaigns.warehouse import CampaignWarehouse
from repro.engine.service import SolveService, default_service
from repro.experiments.kinds import (
    CAMPAIGN_METRICS,
    ROW_KINDS,
    SWEEP_METRICS,
)

__all__ = [
    "CAMPAIGN_METRICS",
    "SWEEP_METRICS",
    "CampaignReport",
    "campaign_status",
    "run_campaign",
    "warehouse_for_service",
]

#: Default warehouse filename under a persistent solve store.
WAREHOUSE_FILENAME = "campaigns.sqlite"


def warehouse_for_service(service: SolveService) -> CampaignWarehouse:
    """The warehouse co-located with the service's persistent store.

    A store-less (pure in-memory) service gets an ephemeral
    ``":memory:"`` warehouse — resumability needs a ``--cache-dir`` /
    ``$REPRO_CACHE_DIR`` store anyway, and the two live side by side so
    one directory is the whole resumable state of a campaign.
    """
    store = service.store
    if store is None:
        return CampaignWarehouse(":memory:")
    return CampaignWarehouse(Path(store.path) / WAREHOUSE_FILENAME)


def _row_metrics(
    row: CampaignRow, service: SolveService, workers: int | None
) -> dict[str, float]:
    kind = ROW_KINDS[row.sweep]
    return kind.row_metrics(kind.solve(row.scenario, service, workers=workers))


@dataclass(frozen=True)
class CampaignReport:
    """What one :func:`run_campaign` call did.

    ``rows_resumed + rows_computed == rows_total`` always holds on a
    successful return; ``solves_computed`` is the service's ``computed``
    counter delta — zero on a warm full replay even when every row had
    to be recomputed into a fresh warehouse.
    """

    campaign: str
    campaign_id: str
    rows_total: int
    rows_computed: int
    rows_resumed: int
    solves_computed: int
    warehouse_path: str

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "campaign_id": self.campaign_id,
            "rows_total": self.rows_total,
            "rows_computed": self.rows_computed,
            "rows_resumed": self.rows_resumed,
            "solves_computed": self.solves_computed,
            "warehouse_path": self.warehouse_path,
        }


def run_campaign(
    spec: CampaignSpec,
    *,
    service: SolveService | None = None,
    warehouse: CampaignWarehouse | None = None,
    workers: int | None = None,
    progress: Callable[[int, int, CampaignRow], Any] | None = None,
) -> CampaignReport:
    """Run (or resume) a campaign; returns the :class:`CampaignReport`.

    Parameters
    ----------
    spec:
        The campaign. Expansion is deterministic, so running an equal
        spec twice against one warehouse is a resume, not a duplicate.
    service:
        Solve service for the rows (``None``: the process-wide
        :func:`~repro.engine.service.default_service`, which carries any
        configured persistent store).
    warehouse:
        Results warehouse. ``None`` opens (and closes) the one
        co-located with the service's store —
        ``<store>/campaigns.sqlite`` — falling back to an ephemeral
        in-memory warehouse for store-less services.
    workers:
        Worker processes for grid rows (defaults to the engine policy).
    progress:
        Optional ``(done_so_far, total, row)`` callback after each
        computed row — the CLI's heartbeat.
    """
    service = service if service is not None else default_service()
    own_warehouse = warehouse is None
    if own_warehouse:
        warehouse = warehouse_for_service(service)
    try:
        campaign = spec.digest()
        rows = spec.expand()
        warehouse.register(
            campaign,
            campaign_id=spec.campaign_id,
            title=spec.title,
            spec=spec.to_dict(),
            total_rows=len(rows),
        )
        existing = warehouse.existing_digests(campaign)
        solves_before = service.counters.computed
        computed = 0
        resumed = 0
        for row in rows:
            if row.digest in existing:
                resumed += 1
                continue
            metrics = _row_metrics(row, service, workers)
            if warehouse.append(
                campaign,
                digest=row.digest,
                row_index=row.index,
                seed=row.seed,
                scenario_id=row.scenario.scenario_id,
                scenario_digest=row.scenario_digest,
                params=dict(row.params),
                metrics=metrics,
            ):
                computed += 1
            else:
                # A concurrent or killed-and-restarted writer landed the
                # row between our manifest read and this append.
                resumed += 1
            if progress is not None:
                progress(computed + resumed, len(rows), row)
        return CampaignReport(
            campaign=campaign,
            campaign_id=spec.campaign_id,
            rows_total=len(rows),
            rows_computed=computed,
            rows_resumed=resumed,
            solves_computed=service.counters.computed - solves_before,
            warehouse_path=str(warehouse.path),
        )
    finally:
        if own_warehouse:
            warehouse.close()


def campaign_status(
    spec: CampaignSpec, warehouse: CampaignWarehouse
) -> dict:
    """Completion state of a campaign against a warehouse (no solves).

    Cheap relative to a run — it expands the spec to recover the digest
    manifest but never solves a row.
    """
    campaign = spec.digest()
    rows = spec.expand()
    existing = warehouse.existing_digests(campaign)
    done = sum(1 for row in rows if row.digest in existing)
    return {
        "campaign": campaign,
        "campaign_id": spec.campaign_id,
        "rows_total": len(rows),
        "rows_done": done,
        "rows_missing": len(rows) - done,
        "metrics": list(warehouse.metric_names(campaign)),
        "warehouse_path": str(warehouse.path),
    }
