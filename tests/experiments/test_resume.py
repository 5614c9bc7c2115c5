"""Acceptance: figure re-runs against a warm persistent store.

The tentpole guarantee of the solve service: a second run of any
registered figure with a warm on-disk store performs **zero** equilibrium
solves, and the replayed figures are byte-identical to the cold run's.
"""

import numpy as np
import pytest

from repro.engine import SolveCache, SolveService, SolveStore
from repro.engine.service import default_service, set_default_service
from repro.experiments import fig04, fig05, fig07, fig10

PRICES = np.round(np.linspace(0.0, 2.0, 7), 10)
CAPS = (0.0, 1.0)


@pytest.fixture
def warm_store(tmp_path):
    """A store directory; the default service is restored afterwards."""
    yield tmp_path
    set_default_service(None)


def fresh_process_service(store_dir) -> SolveService:
    """Simulate a new process: empty memory tiers, same store directory."""
    service = SolveService(cache=SolveCache(), store=SolveStore(store_dir))
    set_default_service(service)
    return service


def csv_bytes(result, out_dir):
    return {
        path.name: path.read_bytes() for path in result.write_csv(out_dir)
    }


class TestWarmStoreFigureRuns:
    @pytest.mark.parametrize(
        "module, args",
        [
            (fig04, (PRICES,)),          # §3 price sweep
            (fig05, (PRICES,)),          # §3 per-CP price sweep
            (fig07, (PRICES, CAPS)),     # §5 scalar grid panels
            (fig10, (PRICES, CAPS)),     # §5 per-CP grid panels
        ],
    )
    def test_second_run_is_solve_free_and_byte_identical(
        self, warm_store, tmp_path, module, args
    ):
        cold_service = fresh_process_service(warm_store)
        cold = module.compute(*args)
        assert cold_service.counters.computed > 0

        replay_service = fresh_process_service(warm_store)
        warm = module.compute(*args)
        assert replay_service.counters.computed == 0
        assert replay_service.counters.store_hits > 0
        assert csv_bytes(warm, tmp_path / "warm") == csv_bytes(
            cold, tmp_path / "cold"
        )
        assert [c.passed for c in warm.checks] == [
            c.passed for c in cold.checks
        ]

    def test_figures_sharing_a_grid_share_store_rows(self, warm_store):
        service = fresh_process_service(warm_store)
        fig07.compute(PRICES, CAPS)
        solves = service.counters.computed
        # Same scenario, same axes, different quantities: no new rows even
        # within one process once fig7 populated the tiers.
        fig10.compute(PRICES, CAPS)
        assert service.counters.computed == solves

    def test_default_service_counters_reflect_shared_engine(self, warm_store):
        service = fresh_process_service(warm_store)
        assert default_service() is service
        fig04.compute(PRICES)
        assert default_service().counters.computed > 0
