"""The HTTP frontend over real TCP: routes, errors, drain-on-shutdown."""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.api import ReceiveRequest, SendRequest
from repro.errors import ServiceError
from repro.faults import RetryPolicy
from repro.service import (
    CircuitBreaker,
    FleetService,
    LoadGenerator,
    ServiceClient,
    ServiceConfig,
    serve_forever,
)
from repro.service import client as client_module
from repro.service import server


def _serve_in_thread(config: ServiceConfig, duration: float = 120):
    """Start ``serve_forever(config)`` in a daemon thread; return the
    thread and the running service."""
    ready = threading.Event()
    box: dict = {}

    def on_ready(service) -> None:
        box["service"] = service
        ready.set()

    thread = threading.Thread(
        target=serve_forever,
        args=(config,),
        kwargs={"duration": duration, "on_ready": on_ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=15), "service never came up"
    return thread, box["service"]


@pytest.fixture(scope="module")
def live_service():
    """One serve_forever loop in a thread for the whole module."""
    thread, service = _serve_in_thread(ServiceConfig(shards=2, port=0))
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    yield client
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass  # already shut down by the shutdown test
    client.close()
    thread.join(timeout=30)
    assert not thread.is_alive(), "serve_forever failed to drain and exit"


def test_healthz(live_service):
    health = live_service.healthz()
    assert health["http_status"] == 200
    assert health["status"] == "ok"
    assert health["healthy_shards"] == ["shard-0", "shard-1"]


def test_send_receive_over_http(live_service):
    sent = live_service.send(
        SendRequest(device_id="http-dev", message=b"over the wire")
    )
    assert sent.device_id == "http-dev"
    assert sent.shard in ("shard-0", "shard-1")
    received = live_service.receive(ReceiveRequest(device_id="http-dev"))
    assert received.message == b"over the wire"
    assert received.shard == sent.shard


def test_load_generator_remote(live_service):
    generator = LoadGenerator(seed=21, message_bytes=6)
    report = generator.run_remote(live_service, 10, concurrency=4)
    assert report.lost == 0
    assert report.completed == 10
    assert report.mismatched == 0


def test_metrics_exposition(live_service):
    text = live_service.metrics()
    assert "repro_service_jobs_total" in text
    assert "# HELP" in text


def test_stats_endpoint(live_service):
    stats = live_service.stats()
    assert stats["accepting"] is True
    assert set(stats["queues"]) == {"shard-0", "shard-1"}


def test_unknown_route_404(live_service):
    conn = HTTPConnection(live_service.host, live_service.port, timeout=10)
    try:
        conn.request("GET", "/nope")
        response = conn.getresponse()
        assert response.status == 404
    finally:
        conn.close()


def test_malformed_job_400(live_service):
    conn = HTTPConnection(live_service.host, live_service.port, timeout=10)
    try:
        conn.request(
            "POST", "/send",
            body=json.dumps({"device_id": "x"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert "message_hex" in json.loads(response.read().decode())["error"]
    finally:
        conn.close()


def _raw_exchange(client, head: bytes) -> "tuple[int, dict]":
    """Send ``head`` over a bare socket; return the answer's status and
    JSON body (a dropped connection answers nothing and fails here)."""
    address = (client.host, client.port)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(head)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    status_line, _, rest = response.partition(b"\r\n")
    assert status_line.startswith(b"HTTP/1.1 "), response[:80]
    body = rest.split(b"\r\n\r\n", 1)[1]
    return int(status_line.split()[1]), json.loads(body)


@pytest.mark.parametrize(
    "head, status",
    [
        (b"POST /send HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /send HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"GET /stats HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 400),
        (b"POST /send HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
    ],
    ids=["non-numeric-length", "negative-length", "long-header", "body-cap"],
)
def test_malformed_head_is_answered(live_service, head, status):
    answered, body = _raw_exchange(live_service, head)
    assert answered == status
    assert body["error"]
    assert live_service.healthz()["status"] == "ok"


def test_a_stalled_request_is_answered_408(live_service, monkeypatch, caplog):
    """A client that promises 100 body bytes and sends 3 is answered 408
    once the read deadline passes, the handler ends cleanly, and the
    service keeps serving."""
    import time

    from repro.service import server

    monkeypatch.setattr(server, "REQUEST_READ_TIMEOUT_S", 0.2)
    address = (live_service.host, live_service.port)
    started = time.monotonic()
    with socket.create_connection(address, timeout=2) as sock:
        sock.sendall(b"POST /send HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc")
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    assert time.monotonic() - started < 2
    assert response.startswith(b"HTTP/1.1 408 "), response
    assert live_service.healthz()["status"] == "ok"
    assert "Unhandled exception" not in caplog.text


def _read_answer(sock) -> "tuple[int, dict, bytes]":
    """Read one answer off ``sock``: its status, headers (lower-cased
    names) and body, by its ``Content-Length``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.lower(): value
        for name, value in (line.split(": ", 1) for line in lines)
    }
    length = int(headers["content-length"])
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, body
        body += chunk
    assert len(body) == length, "bytes past the answer's body"
    return int(status_line.split()[1]), headers, body


@pytest.mark.parametrize(
    "version",
    [b"HTTP/1.1", b"HTTP/1.0\r\nConnection: keep-alive"],
    ids=["http-1.1", "http-1.0-keep-alive"],
)
def test_one_connection_carries_many_requests(live_service, version):
    """Two requests on one socket are both answered, and the frontend
    counts one connection and two requests for them."""
    before = live_service.stats()["http"]
    address = (live_service.host, live_service.port)
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(b"GET /healthz " + version + b"\r\n\r\n")
        health = _read_answer(sock)
        sock.sendall(b"GET /stats " + version + b"\r\n\r\n")
        stats = _read_answer(sock)
    assert health[0] == stats[0] == 200
    assert health[1]["connection"] == stats[1]["connection"] == "keep-alive"
    assert json.loads(health[2])["status"] == "ok"
    assert json.loads(stats[2])["http"] == {
        "connections": before["connections"] + 1,
        "requests": before["requests"] + 2,
    }


@pytest.mark.parametrize(
    "head",
    [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ],
    ids=["connection-close", "http-1.0"],
)
def test_a_request_can_end_its_connection(live_service, head):
    address = (live_service.host, live_service.port)
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(head)
        status, headers, _ = _read_answer(sock)
        assert sock.recv(65536) == b"", "connection left open"
    assert status == 200
    assert headers["connection"] == "close"


def test_an_idle_connection_is_closed_without_an_answer(
    live_service, monkeypatch
):
    monkeypatch.setattr(server, "IDLE_TIMEOUT_S", 0.2)
    address = (live_service.host, live_service.port)
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        status, headers, _ = _read_answer(sock)
        answered = time.monotonic()
        assert sock.recv(65536) == b"", "an idle connection got an answer"
        idled = time.monotonic() - answered
    assert status == 200 and headers["connection"] == "keep-alive"
    assert 0.1 < idled < 2
    assert live_service.healthz()["status"] == "ok"


@pytest.mark.parametrize("ending", ["stop", "abort"])
def test_stopping_closes_idle_kept_alive_connections(ending):
    """``stop()`` and ``abort()`` close a connection that waits for its
    next request, return at once and leave no handler task behind."""

    async def scenario():
        service = FleetService(ServiceConfig(shards=1, port=0))
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"Connection: keep-alive" in head
        started = time.monotonic()
        await asyncio.wait_for(getattr(service, ending)(), 1.0)
        elapsed = time.monotonic() - started
        left = asyncio.all_tasks() - {asyncio.current_task()}
        rest = await asyncio.wait_for(reader.read(), 1.0)
        writer.close()
        await writer.wait_closed()
        return elapsed, left, rest

    elapsed, left, rest = asyncio.run(scenario())
    assert elapsed < 1.0
    assert left == set()
    assert json.loads(rest)["status"] == "ok"  # the body, then EOF


def test_threads_sharing_a_client_never_share_a_connection(live_service):
    """More threads than cores hammer one client with a short switch
    interval: a connection handed to two threads at once would garble
    its answers, and the pool never holds more than its cap."""
    n_threads, n_calls = 12, 15
    before = live_service.stats()["http"]["requests"]
    statuses: "list[int]" = []
    lock = threading.Lock()

    def hammer() -> None:
        for _ in range(n_calls):
            status = live_service.healthz()["http_status"]
            with lock:
                statuses.append(status)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200] * (n_threads * n_calls)
    assert len(live_service._idle) <= client_module.POOL_SIZE
    after = live_service.stats()["http"]["requests"]
    assert after - before == n_threads * n_calls + 1


def test_a_connection_made_stale_by_a_restart_is_replaced_at_once():
    """A pooled connection the restarted service no longer knows fails
    before any answer; the call goes out again on a fresh connection
    without a retry sleep, a retry count or a breaker failure."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = ServiceConfig(shards=1, port=port)
    sleeps: "list[float]" = []
    failures: "list[None]" = []
    breaker = CircuitBreaker()
    breaker.record_failure = lambda: failures.append(None)
    url = f"http://127.0.0.1:{port}"
    thread, _ = _serve_in_thread(config, 60)
    with ServiceClient(
        url,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.01),
        breaker=breaker,
        sleep=sleeps.append,
    ) as client:
        assert client.healthz()["http_status"] == 200
        (stale,) = client._idle
        with ServiceClient(url) as other:
            other.shutdown()
        thread.join(timeout=30)
        thread, service = _serve_in_thread(config, 60)
        try:
            assert client.healthz()["http_status"] == 200
            assert stale.sock is None
            assert len(client._idle) == 1 and client._idle[0] is not stale
            assert service.stats()["http"] == {"connections": 1, "requests": 1}
        finally:
            client.shutdown()
            thread.join(timeout=30)
    assert not thread.is_alive()
    assert sleeps == [] and client.retried == 0 and failures == []


def test_shutdown_drains(live_service):
    # Ordered last by name? No — pytest runs in definition order; this
    # is the final test in the module, so the fixture teardown only has
    # to tolerate an already-closed service.
    assert live_service.shutdown() == {"status": "draining"}


def test_a_job_that_raises_a_non_repro_error_is_answered_500(
    monkeypatch, caplog
):
    """A defect inside a job (here a ``TypeError`` from the receive path)
    is still answered: HTTP 500 naming the exception type, one logged
    traceback, and a typed client error rather than a dropped
    connection the client would count as lost."""
    from repro.errors import ServiceUnavailableError
    from repro.service import Shard

    def broken(self, group, outcomes, lane):
        raise TypeError("receive path defect")

    thread, service = _serve_in_thread(ServiceConfig(shards=1, port=0), 60)
    port = service.port
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        client.send(SendRequest(device_id="dev", message=b"hi"))
        monkeypatch.setattr(Shard, "_execute_receive_group", broken)
        conn = HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(
                "POST",
                "/receive",
                body=json.dumps(ReceiveRequest(device_id="dev").to_dict()),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 500
        assert body["type"] == "TypeError"
        assert "receive path defect" in body["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.receive(ReceiveRequest(device_id="dev"))
        assert not isinstance(excinfo.value, ServiceUnavailableError)
        assert "HTTP 500" in str(excinfo.value)
        logged = [r for r in caplog.records if r.exc_info is not None]
        assert len(logged) == 2  # one traceback per failed request
        assert all(r.exc_info[0] is TypeError for r in logged)
    finally:
        monkeypatch.undo()
        client.shutdown()
        client.close()
        thread.join(timeout=30)
    assert not thread.is_alive()
