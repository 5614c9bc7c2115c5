"""A stdlib client for the ``repro serve`` daemon.

:class:`ServeClient` wraps one request/response exchange per call over
``http.client`` (the server closes each connection, matching its
``Connection: close`` responses), and :func:`replay` is the traffic
generator the serve replay test, the ``repro client replay`` verb and the
CI smoke job share: N threads, each submitting an overlapping scenario
set and polling every job to a terminal state, with requests/sec and the
server-side stats deltas in the summary — the numbers that back the
"zero redundant solves against a warm store" claim.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Sequence

__all__ = ["ServeClient", "ServeError", "replay"]


class ServeError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload: Any) -> None:
        message = (
            payload.get("error", payload)
            if isinstance(payload, dict)
            else payload
        )
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServeClient:
    """Talks JSON to one daemon at ``host:port``."""

    def __init__(
        self, host: str, port: int, *, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> Any:
        """One exchange; raises :class:`ServeError` on non-2xx."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            decoded = json.loads(raw) if raw else {}
            if not 200 <= response.status < 300:
                raise ServeError(response.status, decoded)
            return decoded
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # one method per route
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self.request("GET", "/health")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def submit(self, scenario: str | dict) -> dict:
        """Submit a registry id or scenario document; returns the record."""
        return self.request("POST", "/jobs", {"scenario": scenario})

    def jobs(self) -> list[dict]:
        return self.request("GET", "/jobs")["jobs"]

    def job(self, job_id: str, *, wait: float = 0.0) -> dict:
        path = f"/jobs/{job_id}"
        if wait > 0:
            path += f"?wait={wait}"
        return self.request("GET", path)

    def result(self, job_id: str) -> dict:
        return self.request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def run(self, scenario: str | dict, *, timeout: float = 300.0) -> dict:
        """Submit and long-poll to a terminal state; returns the record."""
        record = self.submit(scenario)
        deadline = time.monotonic() + timeout
        while record["state"] not in ("done", "failed", "cancelled"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {record['job_id']} still {record['state']} "
                    f"after {timeout}s"
                )
            record = self.job(record["job_id"], wait=min(remaining, 30.0))
        return record


def replay(
    host: str,
    port: int,
    scenarios: Sequence[str | dict],
    *,
    clients: int = 4,
    timeout: float = 300.0,
) -> dict:
    """N concurrent clients each replaying the full scenario set.

    Every client thread submits every scenario (staggered start offsets
    so the interleavings overlap rather than convoy) and polls each job
    to a terminal state. Returns a JSON-ready summary: request count and
    requests/sec, per-state job outcomes, and the server-side ``computed``
    / store-writes deltas across the replay — a warm store must show
    ``computed_delta == 0``.
    """
    if clients < 1:
        raise ValueError(f"clients must be at least 1, got {clients}")
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("need at least one scenario to replay")
    before = ServeClient(host, port).stats()
    requests = 0
    outcomes: dict[str, int] = {}
    failures: list[str] = []
    tally_lock = threading.Lock()

    def one_client(offset: int) -> None:
        nonlocal requests
        client = ServeClient(host, port)
        ordered = scenarios[offset:] + scenarios[:offset]
        for scenario in ordered:
            try:
                record = client.run(scenario, timeout=timeout)
                with tally_lock:
                    # submit + the >=1 polls run() performed
                    requests += 2
                    state = record["state"]
                    outcomes[state] = outcomes.get(state, 0) + 1
            except Exception as exc:
                with tally_lock:
                    failures.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=one_client, args=(i % len(scenarios),))
        for i in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    after = ServeClient(host, port).stats()

    def counter(stats: dict, *path: str) -> float:
        node: Any = stats
        for name in path:
            if not isinstance(node, dict) or node.get(name) is None:
                return 0
            node = node[name]
        return node

    return {
        "clients": clients,
        "scenarios": len(scenarios),
        "requests": requests,
        "elapsed_seconds": elapsed,
        "requests_per_sec": requests / elapsed if elapsed > 0 else 0.0,
        "outcomes": outcomes,
        "failures": failures,
        "computed_delta": counter(after, "service", "computed")
        - counter(before, "service", "computed"),
        "store_writes_delta": counter(after, "service", "store", "writes")
        - counter(before, "service", "store", "writes"),
        "coalesced_delta": counter(after, "jobs", "coalesced")
        - counter(before, "jobs", "coalesced"),
    }
