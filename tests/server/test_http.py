"""HTTP layer tests for `repro serve`.

Most cases drive :meth:`ServeApp.handle` directly — it is synchronous
and socket-free, so every route, error shape and status code is testable
without a running event loop. The live classes then boot the real
asyncio server on an ephemeral port and talk to it over actual sockets,
through :class:`ServeClient` and raw: keep-alive, connection close and
shutdown are transport behaviour that ``handle`` cannot show.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.io import scenario_to_dict
from repro.providers import AccessISP, Market, exponential_cp
from repro.scenarios.spec import ScenarioSpec
from repro.server import JobManager, ServeApp, ServeClient, replay, run_server
from repro.server.client import ServeError
from repro.server.http import MAX_BODY_BYTES, SHUTDOWN_GRACE_SECONDS

#: An answer size no pair of socket buffers absorbs.
BIG = 16 << 20


def tiny_scenario(sid="tiny-a"):
    market = Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 3.0, value=0.6),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )
    return ScenarioSpec(
        scenario_id=sid,
        title="tiny test scenario",
        market=market,
        prices=(0.5, 1.0),
        policy_levels=(0.0, 0.5),
    )


def stub_runner(scn, service):
    return {"solved": scn.scenario_id}


@pytest.fixture
def app():
    manager = JobManager(runner=stub_runner, workers=0)
    yield ServeApp(manager)
    manager.close()


def submit(app, document):
    return app.handle("POST", "/jobs", json.dumps(document).encode())


class TestRoutes:
    def test_health(self, app):
        status, payload = app.handle("GET", "/health", b"")
        assert status == 200
        assert payload["status"] == "ok"

    def test_stats_shape(self, app):
        status, payload = app.handle("GET", "/stats", b"")
        assert status == 200
        assert set(payload) >= {"jobs", "service"}
        assert payload["jobs"]["submitted"] == 0
        # The service block carries the store + memory tiers the ops
        # story depends on.
        assert "store" in payload["service"]
        assert "memory" in payload["service"]
        assert "inflight" in payload["service"]

    def test_submit_by_registered_id(self, app):
        status, payload = submit(app, {"scenario": "section3"})
        assert status == 202
        assert payload["state"] == "queued"
        assert payload["scenario_id"] == "section3"
        assert not payload["coalesced"]

    def test_submit_by_document(self, app):
        doc = scenario_to_dict(tiny_scenario())
        status, payload = submit(app, {"scenario": doc})
        assert status == 202
        assert payload["scenario_id"] == "tiny-a"

    def test_duplicate_submit_is_200_coalesced(self, app):
        first = submit(app, {"scenario": "section3"})[1]
        status, payload = submit(app, {"scenario": "section3"})
        assert status == 200
        assert payload["coalesced"]
        assert payload["job_id"] == first["job_id"]

    def test_job_listing_and_detail(self, app):
        job_id = submit(app, {"scenario": "section3"})[1]["job_id"]
        status, listing = app.handle("GET", "/jobs", b"")
        assert status == 200
        assert [j["job_id"] for j in listing["jobs"]] == [job_id]
        status, detail = app.handle("GET", f"/jobs/{job_id}", b"")
        assert status == 200
        assert detail["state"] == "queued"

    def test_result_409_until_terminal(self, app):
        doc = scenario_to_dict(tiny_scenario())
        job_id = submit(app, {"scenario": doc})[1]["job_id"]
        status, payload = app.handle("GET", f"/jobs/{job_id}/result", b"")
        assert status == 409
        assert "error" in payload
        app.manager.pump()
        status, payload = app.handle("GET", f"/jobs/{job_id}/result", b"")
        assert status == 200
        assert payload["result"] == {"solved": "tiny-a"}

    def test_cancel(self, app):
        job_id = submit(app, {"scenario": "section3"})[1]["job_id"]
        status, payload = app.handle("POST", f"/jobs/{job_id}/cancel", b"")
        assert status == 200
        assert payload["state"] == "cancelled"

    def test_wait_returns_after_pump(self, app):
        doc = scenario_to_dict(tiny_scenario())
        job_id = submit(app, {"scenario": doc})[1]["job_id"]
        app.manager.pump()
        status, payload = app.handle("GET", f"/jobs/{job_id}?wait=5", b"")
        assert status == 200
        assert payload["state"] == "done"


class TestErrors:
    @pytest.mark.parametrize(
        "method,path,body,status",
        [
            ("GET", "/nope", b"", 404),
            ("GET", "/jobs/job-999", b"", 404),
            ("GET", "/jobs/job-999/result", b"", 404),
            ("POST", "/jobs/job-999/cancel", b"", 404),
            ("POST", "/health", b"", 405),
            ("DELETE", "/jobs", b"", 405),
            ("POST", "/jobs", b"not json", 400),
            ("POST", "/jobs", b"{}", 400),
            ("POST", "/jobs", b'{"scenario": 42}', 400),
            ("POST", "/jobs", b'{"scenario": "no-such-scenario"}', 404),
            ("POST", "/jobs", b'{"scenario": {"bogus": true}}', 400),
        ],
    )
    def test_error_shape(self, app, method, path, body, status):
        got_status, payload = app.handle(method, path, body)
        assert got_status == status
        assert isinstance(payload["error"], str) and payload["error"]

    def test_bad_wait_values(self, app):
        job_id = submit(app, {"scenario": "section3"})[1]["job_id"]
        for query in ("wait=forever", "wait=-3"):
            status, payload = app.handle("GET", f"/jobs/{job_id}?{query}", b"")
            assert status == 400, query
            assert "error" in payload

    def test_wait_is_clamped_not_rejected(self, app):
        job_id = submit(app, {"scenario": "section3"})[1]["job_id"]
        app.manager.cancel(job_id)  # terminal: wait returns immediately
        status, payload = app.handle("GET", f"/jobs/{job_id}?wait=9999", b"")
        assert status == 200
        assert payload["state"] == "cancelled"


class LiveServer:
    """``run_server`` on its own event-loop thread, stoppable mid-test."""

    def __init__(self, manager, port=0):
        import asyncio

        self.loop = asyncio.new_event_loop()
        listening = threading.Event()

        def on_bound(address):
            self.host, self.port = address
            listening.set()

        def runner():
            self.task = self.loop.create_task(
                run_server(manager, host="127.0.0.1", port=port,
                           on_bound=on_bound)
            )
            try:
                self.loop.run_until_complete(self.task)
            finally:
                self.loop.close()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert listening.wait(10), "server failed to bind"

    def stop(self):
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.task.cancel)
            self.thread.join(10)
        assert not self.thread.is_alive()


def read_response(stream):
    """One response off a socket file: (status, headers, JSON body)."""
    status_line = stream.readline()
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, json.loads(body)


@pytest.fixture
def server():
    manager = JobManager(runner=stub_runner, workers=1)
    server = LiveServer(manager)
    yield server
    server.stop()
    manager.close()


class TestLiveServer:
    """Real socket round-trips: asyncio server + HTTP client."""

    @pytest.fixture
    def endpoint(self, server):
        return server.host, server.port

    @pytest.fixture
    def client(self, server):
        client = ServeClient(server.host, server.port, timeout=30)
        yield client
        client.close()

    def test_full_round_trip_over_sockets(self, client):
        assert client.health()["status"] == "ok"
        record = client.run(scenario_to_dict(tiny_scenario()), timeout=60)
        assert record["state"] == "done"
        result = client.result(record["job_id"])
        assert result["result"] == {"solved": "tiny-a"}
        # Duplicate submit over the wire coalesces to the same job.
        again = client.submit(scenario_to_dict(tiny_scenario()))
        assert again["coalesced"]
        assert again["job_id"] == record["job_id"]
        stats = client.stats()
        assert stats["jobs"]["completed"] == 1
        assert stats["jobs"]["coalesced"] == 1

    def test_unknown_scenario_is_serve_error(self, client):
        with pytest.raises(ServeError) as err:
            client.submit("no-such-scenario")
        assert err.value.status == 404

    def test_oversized_body_is_413(self, endpoint):
        host, port = endpoint
        # Raw socket: announce an oversized body without sending it, so
        # the rejection races nothing.
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\n"
                b"Host: test\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        assert b"413" in response.split(b"\r\n", 1)[0]


class TestKeepAlive:
    """Persistent connections: many requests per socket, explicit close,
    and a shutdown that does not wait for idle clients."""

    def connect(self, server):
        sock = socket.create_connection((server.host, server.port), timeout=5)
        return sock, sock.makefile("rb")

    def test_many_requests_over_one_socket(self, server):
        sock, stream = self.connect(server)
        with sock, stream:
            # Pipelined: all five requests are on the wire before the
            # first response is read.
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n" * 5)
            for _ in range(5):
                status, headers, payload = read_response(stream)
                assert status == 200 and payload == {"status": "ok"}
                assert "connection" not in headers
            body = json.dumps({"scenario": "section3"}).encode()
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
                + b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert read_response(stream)[0] == 202
            status, _, stats = read_response(stream)
            assert status == 200 and stats["jobs"]["submitted"] == 1

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n",
            b"GET /health HTTP/1.1\r\nConnection: TE, Close\r\n",
            b"GET /health HTTP/1.0\r\n",
        ],
        ids=["connection-close", "connection-tokens", "http-1.0"],
    )
    def test_close_is_answered_then_closed(self, server, request_head):
        sock, stream = self.connect(server)
        with sock, stream:
            sock.sendall(request_head + b"\r\n")
            status, headers, payload = read_response(stream)
            assert status == 200 and payload == {"status": "ok"}
            assert headers["connection"] == "close"
            assert stream.read() == b""

    @pytest.mark.parametrize(
        "framing",
        [
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            b"Content-Length: -2\r\n\r\n{}",
        ],
        ids=["chunked", "negative-length"],
    )
    def test_unframed_body_is_400_and_closes(self, server, framing):
        sock, stream = self.connect(server)
        with sock, stream:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: t\r\n" + framing)
            status, headers, payload = read_response(stream)
            assert status == 400 and "error" in payload
            assert headers["connection"] == "close"
            assert stream.read() == b""

    def test_shutdown_closes_idle_connections(self, server):
        sock, stream = self.connect(server)
        with sock, stream:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
            assert read_response(stream)[0] == 200
            start = time.monotonic()
            server.stop()  # joins the loop thread, which must not hang
            sock.settimeout(2)
            assert sock.recv(1) == b""
            assert time.monotonic() - start < 2

    def test_shutdown_drops_a_client_that_stops_reading(
        self, server, monkeypatch
    ):
        # An answer far larger than both sockets' buffers: the server
        # waits in drain() for a client that never reads it.
        monkeypatch.setattr(
            ServeApp, "handle", lambda app, *request: (200, {"x": "x" * BIG})
        )
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((server.host, server.port))
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
            time.sleep(0.2)
            start = time.monotonic()
            server.stop()  # joins the loop thread, which must not hang
            assert time.monotonic() - start < SHUTDOWN_GRACE_SECONDS + 2

    def test_one_client_shared_by_threads(self, server):
        client = ServeClient(server.host, server.port, timeout=30)
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    assert client.health() == {"status": "ok"}
                assert client.submit("section3")["scenario_id"] == "section3"
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert client.requests == 4 * 26

    def test_replay_counts_each_exchange(self, server, monkeypatch):
        handled = []
        handle = ServeApp.handle

        def counted(app, *args):
            handled.append(args)
            return handle(app, *args)

        monkeypatch.setattr(ServeApp, "handle", counted)
        document = scenario_to_dict(tiny_scenario())
        cold = replay(server.host, server.port, [document], clients=2)
        # The summary's two /stats probes are not job traffic.
        assert cold["requests"] == len(handled) - 2
        assert cold["outcomes"] == {"done": 2}
        # Against a done job each client's submit is its only request.
        warm = replay(server.host, server.port, [document], clients=2)
        assert warm["requests"] == 2

    def test_client_reconnects_after_the_server_drops_it(self):
        manager = JobManager(runner=stub_runner, workers=1)
        first = LiveServer(manager)
        client = ServeClient(first.host, first.port, timeout=30)
        try:
            assert client.health()["status"] == "ok"
            first.stop()  # closes the client's idle connection
            second = LiveServer(manager, port=first.port)
            try:
                assert client.health()["status"] == "ok"
                assert client.requests == 2
            finally:
                second.stop()
        finally:
            client.close()
            manager.close()


class TestResolvedBodies:
    def test_repeated_body_skips_parse_and_digest(self, app, monkeypatch):
        import repro.io

        calls = []

        def counted(name):
            original = getattr(repro.io, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("scenario_from_dict", "scenario_digest"):
            monkeypatch.setattr(repro.io, name, counted(name))
        body = json.dumps({"scenario": scenario_to_dict(tiny_scenario())})
        first = app.handle("POST", "/jobs", body.encode())
        again = app.handle("POST", "/jobs", body.encode())
        assert (first[0], again[0]) == (202, 200)
        assert again[1]["job_id"] == first[1]["job_id"]
        assert calls == ["scenario_from_dict", "scenario_digest"]
        # Any byte difference misses and resolves again, onto the same job.
        spaced = app.handle("POST", "/jobs", (body + " ").encode())
        assert spaced[1]["job_id"] == first[1]["job_id"]
        assert len(calls) == 4
