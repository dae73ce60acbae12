"""Client hardening: circuit breaker states, retry schedule, idempotency keys."""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import SendRequest
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    ServiceUnavailableError,
)
from repro.faults import RetryPolicy
from repro.service import CircuitBreaker, LoadGenerator, ServiceClient
from repro.service import client as client_module


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def make_breaker(monkeypatch):
    """A breaker built under a patched threshold and cooldown."""

    def make(threshold: int, cooldown_s: float = 1.0, **kwargs):
        monkeypatch.setattr(client_module, "BREAKER_THRESHOLD", threshold)
        monkeypatch.setattr(client_module, "BREAKER_COOLDOWN_S", cooldown_s)
        return CircuitBreaker(**kwargs)

    return make


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self, make_breaker):
        breaker = make_breaker(3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.before_call()  # no raise

    def test_opens_at_threshold_and_fails_fast(self, make_breaker):
        clock = FakeClock()
        breaker = make_breaker(3, 5.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1
        with pytest.raises(CircuitOpenError, match="3 consecutive failures"):
            breaker.before_call()
        clock.now = 4.9
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_half_open_admits_exactly_one_probe(self, make_breaker):
        clock = FakeClock()
        breaker = make_breaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.state == "half-open"
        breaker.before_call()  # the single probe slot
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # a concurrent caller is refused

    def test_half_open_success_closes(self, make_breaker):
        clock = FakeClock()
        breaker = make_breaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        breaker.before_call()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.before_call()  # freely admitted again

    def test_non_socket_failure_releases_the_half_open_latch(
        self, make_breaker, monkeypatch
    ):
        """A probe that dies on a non-OSError (e.g. a garbage response
        raising BadStatusLine) must not leak ``_half_open_busy`` — that
        would leave the breaker raising CircuitOpenError forever."""
        from http.client import BadStatusLine

        clock = FakeClock()
        breaker = make_breaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.state == "half-open"

        class GarbageConnection:
            def __init__(self, *args, **kwargs):
                pass

            def request(self, *args, **kwargs):
                raise BadStatusLine("HTP/9.9 garbage")

            def close(self):
                pass

        monkeypatch.setattr(
            "repro.service.client.HTTPConnection", GarbageConnection
        )
        client = ServiceClient(
            "http://127.0.0.1:9", retry=RetryPolicy.none(), breaker=breaker
        )
        with pytest.raises(BadStatusLine):
            client.stats()
        # The failed probe re-opened the circuit for a cooldown instead
        # of wedging it: after the window, another probe is admitted.
        assert breaker.state == "open"
        clock.now = 3.0
        assert breaker.state == "half-open"
        with pytest.raises(BadStatusLine):
            client.stats()

    def test_half_open_failure_reopens_for_another_cooldown(
        self, make_breaker
    ):
        clock = FakeClock()
        breaker = make_breaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        clock.now = 2.4  # still inside the new cooldown window
        with pytest.raises(CircuitOpenError):
            breaker.before_call()


def _dead_client(**kwargs) -> ServiceClient:
    # Port 9 on loopback: nothing listens; connect fails immediately.
    return ServiceClient("http://127.0.0.1:9", timeout=0.2, **kwargs)


class TestClientRetries:
    def test_connection_failures_retry_then_surface(self):
        sleeps: "list[float]" = []
        client = _dead_client(
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.01, max_delay_s=0.05
            ),
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceUnavailableError, match="cannot reach"):
            client.stats()
        assert client.retried == 2  # two retries between three attempts
        assert len(sleeps) == 2
        assert sleeps == client.retry.delays()[:2]

    def test_open_breaker_short_circuits_without_sleeping(self, make_breaker):
        sleeps: "list[float]" = []
        breaker = make_breaker(2, 60.0)
        client = _dead_client(
            retry=RetryPolicy(
                max_attempts=2, base_delay_s=0.01, max_delay_s=0.05
            ),
            breaker=breaker,
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceUnavailableError):
            client.stats()  # two attempts = two failures: breaker opens
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.stats()  # fails fast: no socket, no retry sleep
        assert len(sleeps) == 1  # only the first call's inter-attempt sleep

    def test_bad_url_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceClient("http://")


class TestIdempotencyKeys:
    def test_keyed_mints_unique_client_keys(self):
        bare = SendRequest(device_id="d", message=b"x")
        first = ServiceClient._keyed(bare)
        second = ServiceClient._keyed(bare)
        assert first.idempotency_key.startswith("client-")
        assert first.idempotency_key != second.idempotency_key
        assert first.device_id == "d" and first.message == b"x"

    def test_keyed_preserves_an_explicit_key(self):
        keyed = SendRequest(device_id="d", message=b"x", idempotency_key="k")
        assert ServiceClient._keyed(keyed) is keyed

    def test_soak_keys_are_deterministic_per_op(self):
        generator = LoadGenerator(seed=9, idempotency=True)
        send, receive = generator._requests(3)
        assert send.idempotency_key == "soak-9-3-send"
        assert receive.idempotency_key == "soak-9-3-recv"
        again, _ = generator._requests(3)
        assert again.idempotency_key == send.idempotency_key

    def test_keys_off_by_default(self):
        send, receive = LoadGenerator(seed=9)._requests(3)
        assert send.idempotency_key is None
        assert receive.idempotency_key is None


@pytest.fixture
def paired_server():
    """A keep-alive HTTP/1.1 server that holds its first two answers until
    both requests are in flight; yields its URL and the client port of
    every request."""
    peers: "list[int]" = []
    both_in_flight = threading.Barrier(2)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            peers.append(self.client_address[1])
            if len(peers) <= 2:
                both_in_flight.wait(timeout=10)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"{}")

        def log_message(self, *args) -> None:
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}", peers
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)


def _two_calls_at_once(client: ServiceClient) -> None:
    threads = [threading.Thread(target=client.stats) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=15)


class TestConnectionPool:
    def test_two_threads_each_get_their_own_connection(self, paired_server):
        url, peers = paired_server
        client = ServiceClient(url, timeout=10)
        _two_calls_at_once(client)
        assert len(set(peers)) == 2
        pooled = list(client._idle)
        assert len(pooled) == 2
        client.stats()  # a later call reuses one of the two
        assert len(set(peers)) == 2 and len(peers) == 3
        client.close()
        assert client._idle == []
        assert all(conn.sock is None for conn in pooled)

    def test_the_context_manager_releases_the_pool(self, paired_server):
        url, _ = paired_server
        with ServiceClient(url, timeout=10) as client:
            _two_calls_at_once(client)
            pooled = list(client._idle)
        assert len(pooled) == 2
        assert client._idle == []
        assert all(conn.sock is None for conn in pooled)


def test_restart_retries_require_idempotency():
    generator = LoadGenerator(seed=1)  # idempotency=False
    client = _dead_client(retry=RetryPolicy.none())
    with pytest.raises(ConfigurationError, match="idempotency"):
        generator.run_remote(client, 1, restart_retries=3)
