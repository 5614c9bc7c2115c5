"""A stdlib client for the ``repro serve`` daemon.

:class:`ServeClient` makes one request/response exchange per call over
``http.client``, reusing one keep-alive connection per thread, and
:func:`replay` is the traffic generator the serve replay test, the
``repro client replay`` verb and the CI smoke job share: N threads, each
submitting an overlapping scenario set and polling every job to a
terminal state, with requests/sec and the server-side stats deltas in
the summary — the numbers that back the "zero redundant solves against a
warm store" claim.
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
    """Talks JSON to one daemon at ``host:port``.

    Each thread reuses its own keep-alive connection, so one client may
    be shared across threads. :attr:`requests` counts the exchanges made.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        #: Request/response exchanges completed, over every thread.
        self.requests = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> Any:
        """One exchange; raises :class:`ServeError` on non-2xx."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.connection = connection
        reused = connection.sock is not None
        try:
            status, raw = _exchange(connection, method, path, body, headers)
        except (ConnectionError, http.client.BadStatusLine):
            if not reused:
                raise
            # The daemon closed the idle connection: reconnect once.
            status, raw = _exchange(connection, method, path, body, headers)
        with self._lock:
            self.requests += 1
        decoded = json.loads(raw) if raw else {}
        if not 200 <= status < 300:
            raise ServeError(status, decoded)
        return decoded

    def close(self) -> None:
        """Close the calling thread's connection (the next call reopens)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
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


def _exchange(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    body: bytes | None,
    headers: dict,
) -> tuple[int, bytes]:
    """Send one request and read its response; a failure drops the socket.

    ``http.client`` reopens a closed connection on the next request.
    """
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    except BaseException:
        connection.close()
        raise


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
    to a terminal state. Returns a JSON-ready summary: the exchanges the
    threads made and requests/sec, per-state job outcomes, and the
    server-side ``computed`` / store-writes deltas across the replay — a
    warm store must show ``computed_delta == 0``.
    """
    if clients < 1:
        raise ValueError(f"clients must be at least 1, got {clients}")
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("need at least one scenario to replay")
    client = ServeClient(host, port)  # shared: one connection per thread
    before = client.stats()
    outcomes: dict[str, int] = {}
    failures: list[str] = []
    tally_lock = threading.Lock()

    def one_client(offset: int) -> None:
        ordered = scenarios[offset:] + scenarios[:offset]
        for scenario in ordered:
            try:
                record = client.run(scenario, timeout=timeout)
                with tally_lock:
                    state = record["state"]
                    outcomes[state] = outcomes.get(state, 0) + 1
            except Exception as exc:
                with tally_lock:
                    failures.append(f"{type(exc).__name__}: {exc}")
        client.close()

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
    requests = client.requests - 1  # all but the ``before`` probe
    after = client.stats()
    client.close()

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
