"""The serve daemon replaying a warm store to concurrent clients.

Once one pass has populated the on-disk store, N concurrent clients
replaying overlapping scenario sets cost **zero solves** — every request
is answered from the sharded store tier:

* **Warm pass** — one client solving the scenario set cold through the
  daemon;
* **Replay** — a *fresh* service and job manager over the same store
  directory (so job-level coalescing cannot be the explanation), four
  concurrent clients each replaying the full set from staggered offsets;
  the replay must report ``computed_delta == 0`` and no failures.
"""

import asyncio
import threading

from repro.engine import SolveCache, SolveService, SolveStore
from repro.server import JobManager, ServeClient, replay, run_server

#: Overlapping scenario set: one trivial figure, one broad grid and one
#: five-carrier market — every client replays all of them.
SCENARIOS = ("section3", "random-12", "oligopoly-4")

#: Concurrent replay clients.
CLIENTS = 4


class _Daemon:
    """A real asyncio server on an ephemeral port, in a thread."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager
        self._bound: dict = {}
        self._listening = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._task = None

        def runner():
            self._task = self._loop.create_task(
                run_server(
                    manager, host="127.0.0.1", port=0, on_bound=self._on_bound
                )
            )
            try:
                self._loop.run_until_complete(self._task)
            except asyncio.CancelledError:
                pass
            finally:
                self._loop.close()

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        assert self._listening.wait(10), "serve daemon failed to bind"

    def _on_bound(self, address):
        self._bound["host"], self._bound["port"] = address
        self._listening.set()

    @property
    def address(self) -> tuple:
        return self._bound["host"], self._bound["port"]

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(10)
        assert not self._thread.is_alive()
        self.manager.close()


def _service(store_dir) -> SolveService:
    return SolveService(cache=SolveCache(), store=SolveStore(store_dir))


def test_serve_warm_store_replay(tmp_path):
    store_dir = tmp_path / "store"

    # Warm pass: one client, cold store, everything computed once.
    warm_service = _service(store_dir)
    warm = _Daemon(JobManager(service=warm_service, workers=2))
    client = ServeClient(*warm.address, timeout=300)
    for scenario in SCENARIOS:
        record = client.run(scenario, timeout=300)
        assert record["state"] == "done", record
    assert client.stats()["service"]["computed"] > 0  # the cold pass solved
    client.close()
    warm.close()
    warm_service.close()

    # Replay: fresh service + manager over the same store directory, so a
    # zero computed delta can only come from the store tier.
    cold_service = _service(store_dir)
    daemon = _Daemon(JobManager(service=cold_service, workers=2))
    try:
        summary = replay(
            *daemon.address, SCENARIOS, clients=CLIENTS, timeout=300
        )
    finally:
        daemon.close()
        cold_service.close()

    assert summary["failures"] == []
    assert summary["outcomes"] == {"done": CLIENTS * len(SCENARIOS)}
    # A warm store answers every client without a single new solve (and
    # without a single store write).
    assert summary["computed_delta"] == 0
    assert summary["store_writes_delta"] == 0
    # The N clients' duplicate submits coalesced at the job layer.
    assert summary["coalesced_delta"] > 0
    assert summary["requests_per_sec"] > 0
