"""The HTTP frontend over real TCP: routes, errors, drain-on-shutdown."""

from __future__ import annotations

import json
import socket
import threading
from http.client import HTTPConnection

import pytest

from repro.api import ReceiveRequest, SendRequest
from repro.errors import ServiceError
from repro.service import (
    LoadGenerator,
    ServiceClient,
    ServiceConfig,
    serve_forever,
)


@pytest.fixture(scope="module")
def live_service():
    """One serve_forever loop in a thread for the whole module."""
    ready = threading.Event()
    box: dict = {}

    def on_ready(service) -> None:
        box["service"] = service
        ready.set()

    thread = threading.Thread(
        target=serve_forever,
        args=(ServiceConfig(shards=2, port=0),),
        kwargs={"duration": 120, "on_ready": on_ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=15), "service never came up"
    client = ServiceClient(f"http://127.0.0.1:{box['service'].port}")
    yield client
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass  # already shut down by the shutdown test
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

    ready = threading.Event()
    box: dict = {}

    def on_ready(service) -> None:
        box["service"] = service
        ready.set()

    thread = threading.Thread(
        target=serve_forever,
        args=(ServiceConfig(shards=1, port=0),),
        kwargs={"duration": 60, "on_ready": on_ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=15), "service never came up"
    port = box["service"].port
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
        thread.join(timeout=30)
    assert not thread.is_alive()
