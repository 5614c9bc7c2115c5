"""The asyncio HTTP/1.1 front end of ``repro serve``.

Stdlib only: an ``asyncio.start_server`` stream handler plus a
hand-rolled request parser — the container bakes in no web framework, and
the API (five JSON routes, short ``Content-Length`` bodies) does not need
one. Connections are persistent: a client sends request after request on
one socket until it asks for ``Connection: close``, speaks HTTP/1.0, or
the daemon shuts down (which closes every idle connection).

Solves never run on the event loop: every request is handed to the
default thread pool, so a ``?wait=`` long-poll, a ``/stats`` walk of the
store or the parse of a large submitted document never stalls
``/health``. A submitted body is resolved to its scenario and digest once
per daemon: a byte-identical resubmit skips the parse and the digest.

Routes
------
==============================  ==============================================
``GET  /health``                liveness: ``{"status": "ok"}``
``GET  /stats``                 service + store + executor + job counters
``POST /jobs``                  submit ``{"scenario": <id or document>}`` →
                                202 with the job record (200 if coalesced)
``GET  /jobs``                  every job record, oldest first
``GET  /jobs/<id>``             one record; ``?wait=SECONDS`` long-polls for
                                a terminal state
``GET  /jobs/<id>/result``      the solved experiment payload (409 until
                                terminal)
``POST /jobs/<id>/cancel``      cancel a queued job (no-op past queued)
==============================  ==============================================

Errors are JSON too: ``{"error": <message>}`` with a conventional status
(400 malformed, 404 unknown, 405 wrong method, 409 not ready, 413 body
too large).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Any, NamedTuple

from repro.engine.cache import SolveCache
from repro.server.jobs import TERMINAL_STATES, JobManager

__all__ = ["ServeApp", "run_server"]

#: Largest accepted request body: a scenario document is a few KB; a
#: megabyte of headroom keeps generated stress scenarios submittable
#: while bounding what one request can make the daemon buffer.
MAX_BODY_BYTES = 1 << 20

#: Longest honored ``?wait=`` long-poll, seconds.
MAX_WAIT_SECONDS = 60.0

#: Resolved submit bodies kept per daemon (see :meth:`ServeApp._submit`).
RESOLVED_BODIES = 1024

#: How long a shutdown lets a busy connection finish its answer before
#: dropping it: a client that stops reading, or a long-poll, must not hold
#: the daemon open.
SHUTDOWN_GRACE_SECONDS = 1.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _resolve_scenario(document: Any):
    """A submitted scenario: a registry id string or a full document."""
    # Runtime imports keep the server package import-light (repro.io pulls
    # in the scenario spec layer).
    from repro.io import scenario_from_dict
    from repro.scenarios.registry import get_scenario, scenario_ids

    if isinstance(document, str):
        if document not in scenario_ids():
            raise _HttpError(
                404,
                f"unknown scenario id {document!r}; registered: "
                f"{scenario_ids()}",
            )
        return get_scenario(document)
    if isinstance(document, dict):
        try:
            return scenario_from_dict(document)
        except Exception as exc:
            raise _HttpError(400, f"bad scenario document: {exc}") from exc
    raise _HttpError(400, "scenario must be a registry id or a document")


def _resolve_body(body: bytes) -> tuple:
    """A ``POST /jobs`` body as ``(scenario, scenario digest)``."""
    from repro.io import scenario_digest

    try:
        payload = json.loads(body or b"{}")
    except ValueError as exc:
        raise _HttpError(400, f"body is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "scenario" not in payload:
        raise _HttpError(400, 'body must be {"scenario": <id or doc>}')
    scn = _resolve_scenario(payload["scenario"])
    return scn, scenario_digest(scn)


class ServeApp:
    """Routing and JSON semantics, separated from socket handling.

    ``handle`` is synchronous and side-effect-free on the connection —
    the unit tests drive it directly; the asyncio layer is only transport.
    """

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager
        # SHA-256 of a submit body -> (scenario, digest): clients replay
        # the same documents, and parsing plus digesting one costs more
        # than the rest of the request.
        self._resolved = SolveCache(maxsize=RESOLVED_BODIES)

    # ------------------------------------------------------------------
    # routes (each returns (status, payload))
    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        try:
            return self._route(method, path, body)
        except _HttpError as exc:
            return exc.status, {"error": exc.message}
        except Exception as exc:  # a handler bug must not kill the daemon
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        path, _, query = path.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts == ["health"]:
            self._require(method, "GET")
            return 200, {"status": "ok"}
        if parts == ["stats"]:
            self._require(method, "GET")
            return 200, self.stats()
        if parts == ["jobs"]:
            if method == "POST":
                return self._submit(body)
            self._require(method, "GET")
            return 200, {
                "jobs": [job.describe() for job in self.manager.jobs()]
            }
        if len(parts) == 2 and parts[0] == "jobs":
            self._require(method, "GET")
            return self._job(parts[1], query)
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._require(method, "GET")
            return self._result(parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            self._require(method, "POST")
            return self._cancel(parts[1])
        raise _HttpError(404, f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    def stats(self) -> dict:
        return {
            "jobs": self.manager.stats(),
            "service": self.manager.service.stats(),
        }

    def _submit(self, body: bytes) -> tuple[int, dict]:
        key = hashlib.sha256(body).digest()
        resolved = self._resolved.get(key)
        if resolved is None:
            resolved = _resolve_body(body)
            self._resolved.put(key, resolved)
        scn, digest = resolved
        job, coalesced = self.manager.submit(scn, digest=digest)
        record = job.describe()
        record["coalesced"] = coalesced
        return (200 if coalesced else 202), record

    def _lookup(self, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return job

    def _job(self, job_id: str, query: str) -> tuple[int, dict]:
        job = self._lookup(job_id)
        timeout = _wait_seconds(query)
        if timeout > 0 and job.state not in TERMINAL_STATES:
            # The transport layer runs this off the event loop.
            self.manager.wait(job_id, timeout)
        return 200, job.describe()

    def _result(self, job_id: str) -> tuple[int, dict]:
        job = self._lookup(job_id)
        if job.state not in TERMINAL_STATES:
            raise _HttpError(409, f"job {job_id} is {job.state}, not terminal")
        return 200, job.describe(with_result=True)

    def _cancel(self, job_id: str) -> tuple[int, dict]:
        job = self.manager.cancel(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return 200, job.describe()


def _wait_seconds(query: str) -> float:
    """The ``wait=SECONDS`` long-poll bound from a query string."""
    for clause in query.split("&"):
        name, _, raw = clause.partition("=")
        if name != "wait":
            continue
        try:
            value = float(raw)
        except ValueError as exc:
            raise _HttpError(400, f"bad wait value {raw!r}") from exc
        if value < 0:
            raise _HttpError(400, "wait must be non-negative")
        return min(value, MAX_WAIT_SECONDS)
    return 0.0


# ----------------------------------------------------------------------
# the asyncio transport
# ----------------------------------------------------------------------


class _Request(NamedTuple):
    method: str
    path: str
    body: bytes
    keep_alive: bool


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one request off the stream, or ``None`` at end of stream.

    A parse error raises :class:`_HttpError`; the connection then closes,
    since the unread rest of the request would desync the stream.
    """
    try:
        request_line = await reader.readline()
    except ConnectionError:
        return None
    except ValueError:  # a line past the stream limit
        raise _HttpError(400, "request line too long")
    if not request_line.strip():
        return None
    try:
        method, path, version = request_line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line")
    keep_alive = version.upper() != "HTTP/1.0"
    content_length = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise _HttpError(400, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length":
            try:
                content_length = int(value)
            except ValueError:
                raise _HttpError(400, "bad Content-Length")
            if content_length < 0:
                raise _HttpError(400, "bad Content-Length")
        elif name == "transfer-encoding":
            raise _HttpError(400, "send a Content-Length body, not chunks")
        elif name == "connection":
            tokens = {token.strip() for token in value.lower().split(",")}
            keep_alive = keep_alive and "close" not in tokens
    if content_length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = (
        await reader.readexactly(content_length) if content_length else b""
    )
    return _Request(method.upper(), path, body, keep_alive)


def _render_response(status: int, payload: dict, *, close: bool) -> bytes:
    body = json.dumps(payload).encode()
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    )
    return head.encode("latin-1") + body


class _Connections:
    """The daemon's open connections, so a shutdown can close them.

    On Python 3.12+ ``Server.wait_closed()`` waits for every connection,
    so a client idling on a keep-alive socket would hold the daemon open.
    """

    def __init__(self) -> None:
        #: Writers of connections waiting for their next request.
        self.idle: set[asyncio.StreamWriter] = set()
        #: The handler task of every open connection, and its writer.
        self.handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.closing = False

    async def close(self) -> None:
        """Close idle connections now, give busy ones
        :data:`SHUTDOWN_GRACE_SECONDS` to answer, then drop the rest;
        return when every handler has finished."""
        self.closing = True
        for writer in self.idle:
            writer.close()
        if not self.handlers:
            return
        _, stuck = await asyncio.wait(
            set(self.handlers), timeout=SHUTDOWN_GRACE_SECONDS
        )
        for task in stuck:
            # abort(), not close(): close() would wait to flush an answer
            # the client is not reading.
            self.handlers[task].transport.abort()
            task.cancel()
        if stuck:
            await asyncio.wait(stuck)


async def _serve_connection(
    app: ServeApp,
    connections: _Connections,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Answer requests on one connection until either side closes it."""
    loop = asyncio.get_running_loop()
    try:
        while not connections.closing:
            connections.idle.add(writer)
            try:
                request = await _read_request(reader)
            except _HttpError as exc:
                writer.write(
                    _render_response(
                        exc.status, {"error": exc.message}, close=True
                    )
                )
                await writer.drain()
                return
            except asyncio.IncompleteReadError:
                return
            finally:
                connections.idle.discard(writer)
            if request is None:
                return
            method, path, body, keep_alive = request
            status, payload = await loop.run_in_executor(
                None, app.handle, method, path, body
            )
            close = not keep_alive or connections.closing
            writer.write(_render_response(status, payload, close=close))
            await writer.drain()
            if close:
                return
    except ConnectionError:
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass


async def run_server(
    manager: JobManager,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: "asyncio.Future | None" = None,
    on_bound=None,
) -> None:
    """Serve ``manager`` over HTTP until cancelled.

    ``port=0`` binds an ephemeral port; ``on_bound((host, port))`` — and,
    for in-process embedders, the optional ``ready`` future — fire once
    the socket is listening with the *actual* address, which is how the
    CLI's ``--port-file`` and the test harness learn where to connect.
    Cancelling returns once the listener and every connection are closed.
    """
    app = ServeApp(manager)
    connections = _Connections()

    async def handler(reader, writer):
        task = asyncio.current_task()
        connections.handlers[task] = writer
        try:
            await _serve_connection(app, connections, reader, writer)
        except asyncio.CancelledError:
            # Dropped by a shutdown. Ending cancelled makes the stream
            # callback of some Pythons (seen on 3.11.7 and 3.12.1) log a
            # spurious traceback.
            pass
        finally:
            del connections.handlers[task]

    server = await asyncio.start_server(handler, host=host, port=port)
    bound = server.sockets[0].getsockname()[:2]
    if on_bound is not None:
        on_bound(bound)
    if ready is not None and not ready.done():
        ready.set_result(bound)
    try:
        # Not serve_forever(): on cancel it waits for every connection to
        # close (3.12+) before the idle ones could be closed here.
        await asyncio.get_running_loop().create_future()
    except asyncio.CancelledError:
        pass
    finally:
        server.close()
        await connections.close()
        await server.wait_closed()
