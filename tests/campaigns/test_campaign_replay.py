"""A seeded campaign cold, then its warm full replay.

Campaign rows are ordinary content-keyed solve tasks, so the warehouse
adds bookkeeping — expansion, manifest reads, sqlite appends — but never
re-buys equilibrium math:

* **Cold pass** — a 64-row seeded ``random_market`` price campaign into
  an empty store + warehouse;
* **Warm replay** — a fresh service and a *fresh* warehouse over the
  same store directory, so every row recomputes its metrics but the
  replay must report ``solves == 0``.
"""

from repro.campaigns import CampaignSpec, CampaignWarehouse, run_campaign
from repro.engine import SolveCache, SolveService, SolveStore

#: 64 seeded markets x 3 prices.
SPEC = CampaignSpec(
    campaign_id="bench",
    generator="random_market",
    sweep="price",
    seed_count=64,
    base_params={"n_types": 8, "prices": [0.6, 1.0, 1.4]},
)


def _service(store_dir) -> SolveService:
    return SolveService(cache=SolveCache(), store=SolveStore(store_dir))


def _run(service):
    with CampaignWarehouse(":memory:") as warehouse:
        return run_campaign(SPEC, service=service, warehouse=warehouse)


def test_campaign_cold_then_warm_replay(tmp_path):
    store_dir = tmp_path / "store"

    # Cold pass: every row solves and lands.
    cold = _run(_service(store_dir))
    assert cold.rows_computed == SPEC.size()
    assert cold.solves_computed > 0

    # Warm replay: fresh memory tiers, fresh warehouse, same store. Every
    # row recomputes without a single solve.
    warm = _run(_service(store_dir))
    assert warm.rows_computed == SPEC.size()
    assert warm.solves_computed == 0
