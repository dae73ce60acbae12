"""Clients for the fleet service: hardened HTTP wrapper and load generator.

:class:`ServiceClient` is the synchronous wrapper over the service HTTP
surface (stdlib ``http.client`` — the container has no requests library,
and none is needed for a loopback control plane), hardened for restart
windows: per-call timeouts, capped-exponential retries on
connection-level failures (reusing the repo-wide
:class:`~repro.faults.RetryPolicy` schedule), and a per-endpoint
:class:`CircuitBreaker` that fails fast while the endpoint is clearly
down.  Job calls auto-assign an ``idempotency_key`` when the request has
none, so a retry that lands after the original was actually executed is
deduplicated by the journaled service instead of aging silicon twice.

:class:`LoadGenerator` drives soak traffic: every message gets a fresh
deterministic ``device_id`` and payload (blake2b of the run seed and
index), goes through send → receive, and is verified byte-exact on the
way back.  It runs either **in-process** against a
:class:`~repro.service.server.FleetService` (the bench path — no socket
overhead in the measured number) or **remotely** against a URL (the CI
smoke path).  The resulting :class:`LoadReport` carries the invariant
the soak tests pin: ``lost == 0`` — every submitted message is accounted
for as completed, failed, or shed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from http.client import HTTPConnection
from urllib.parse import urlsplit

from .. import telemetry
from ..api import ReceiveRequest, ReceiveResult, SendRequest, SendResult
from ..telemetry import context as trace_ctx
from ..errors import (
    AdmissionError,
    CircuitOpenError,
    ConfigurationError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
)
from ..faults import RetryPolicy

__all__ = ["CircuitBreaker", "LoadGenerator", "LoadReport", "ServiceClient"]


def _traceparent_header() -> "str | None":
    """The ``traceparent`` value for the caller's current position.

    Prefers the innermost live span (its id becomes the server-side
    parent, so the remote spans graft onto the client's tree); falls
    back to the ambient trace context; ``None`` outside any trace.
    """
    span = telemetry.current_span()
    trace_id = getattr(span, "trace_id", None)
    if trace_id is not None:
        return trace_ctx.to_traceparent(
            trace_ctx.TraceContext(trace_id, span.span_id)
        )
    return trace_ctx.to_traceparent()


#: Connection-level failures in a row that open a circuit breaker.
BREAKER_THRESHOLD = 5
#: Seconds an open circuit fails fast before admitting a probe call.
BREAKER_COOLDOWN_S = 1.0
#: Idle connections a :class:`ServiceClient` keeps for reuse; one
#: handed back past this is closed.
POOL_SIZE = 8


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one endpoint.

    ``BREAKER_THRESHOLD`` connection-level failures in a row open the
    circuit: calls fail fast with :class:`~repro.errors.CircuitOpenError`
    (no socket touched) until ``BREAKER_COOLDOWN_S`` passes, then exactly
    one half-open probe call is let through — success closes the circuit,
    failure re-opens it for another cooldown.  Thread-safe: the load
    generator's soak threads share their client's breaker.
    """

    def __init__(self, *, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._open_until = 0.0
        self._half_open_busy = False
        self.opens = 0

    @property
    def state(self) -> str:
        with self._lock:
            if self._failures < BREAKER_THRESHOLD:
                return "closed"
            return "open" if self._clock() < self._open_until else "half-open"

    def before_call(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` while open."""
        with self._lock:
            if self._failures < BREAKER_THRESHOLD:
                return
            now = self._clock()
            if now < self._open_until or self._half_open_busy:
                raise CircuitOpenError(
                    f"circuit open for {self._open_until - now:.2f}s more "
                    f"after {self._failures} consecutive failures"
                )
            # Half-open: admit exactly one probe call at a time.
            self._half_open_busy = True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._half_open_busy = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._half_open_busy = False
            if self._failures >= BREAKER_THRESHOLD:
                self._open_until = self._clock() + BREAKER_COOLDOWN_S
                self.opens += 1
                telemetry.count("client.circuit_opened")


class ServiceClient:
    """Synchronous HTTP client for one service endpoint.

    Calls reuse kept-alive connections from a small pool that threads
    share: each call takes an idle connection (or opens one) and hands
    it back once the answer is read, unless the answer closed it.
    ``close()``, or leaving a ``with`` block, closes the idle ones.  A
    pooled connection the server closed while it sat idle (the idle
    limit, a restart) fails before any answer arrives; that call is
    re-sent at once on a fresh connection, which is neither a retry nor
    a breaker failure.

    Errors the service classified come back as the matching
    :mod:`repro.errors` type — 429 →
    :class:`~repro.errors.AdmissionError`, 5xx →
    :class:`~repro.errors.ServiceError`, connection-level failures →
    :class:`~repro.errors.ServiceUnavailableError` (retried on the
    ``retry`` policy's capped-exponential schedule with real sleeps
    before surfacing).  ``retry=RetryPolicy.none()`` disables retries;
    ``breaker=None`` disables the circuit breaker.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 60.0,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        sleep=time.sleep,
    ):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if not parts.hostname:
            raise ConfigurationError(f"bad service url {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=4, base_delay_s=0.1, max_delay_s=2.0
        )
        self.breaker = breaker
        self._sleep = sleep
        self.retried = 0
        self._idle: "list[HTTPConnection]" = []
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle pooled connections; a later call opens anew."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, conn, method, path, body, headers, *, reused: bool):
        """One request and its whole answer on ``conn``, which goes back
        to the pool unless the answer closed it.  ``None`` when a
        ``reused`` connection turned out stale: it failed before the
        answer's status line."""
        try:
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                telemetry.count("client.stale_connections")
                return None
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        if not response.will_close:
            self._release(conn)
        return response.status, raw

    def _release(self, conn) -> None:
        with self._pool_lock:
            if len(self._idle) < POOL_SIZE:
                self._idle.append(conn)
                return
        conn.close()

    def _request_once(
        self, method: str, path: str, payload: "dict | None" = None
    ):
        if self.breaker is not None:
            self.breaker.before_call()
        try:
            body = (
                json.dumps(payload).encode() if payload is not None else None
            )
            headers = {"Content-Type": "application/json"} if body else {}
            traceparent = _traceparent_header()
            if traceparent is not None:
                headers[trace_ctx.TRACEPARENT_HEADER] = traceparent
            with self._pool_lock:
                conn = self._idle.pop() if self._idle else None
            result = None
            if conn is not None:
                result = self._exchange(
                    conn, method, path, body, headers, reused=True
                )
            if result is None:
                result = self._exchange(
                    HTTPConnection(self.host, self.port, timeout=self.timeout),
                    method, path, body, headers, reused=False,
                )
        except OSError as exc:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise ServiceUnavailableError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from exc
        except BaseException:
            # Every post-``before_call`` exit must resolve the breaker's
            # half-open probe latch: a non-socket failure here (e.g. a
            # garbage response raising http.client.BadStatusLine) would
            # otherwise leak ``_half_open_busy`` and leave the breaker
            # raising CircuitOpenError forever.
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return result

    def _request(self, method: str, path: str, payload: "dict | None" = None):
        """One logical request: retries connection-level failures.

        Retrying is safe for every route the client owns — the GET
        surfaces are read-only and the job POSTs carry idempotency keys
        (see :meth:`_keyed`) — so a retry that follows a
        half-executed original is deduplicated server-side.
        ``CircuitOpenError`` propagates immediately: the whole point of
        the breaker is not to queue more work behind a dead endpoint.
        """
        delays = self.retry.delays()
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                return self._request_once(method, path, payload)
            except CircuitOpenError:
                raise
            except ServiceUnavailableError:
                if attempt == self.retry.max_attempts:
                    raise
                self.retried += 1
                telemetry.count("client.retries")
                self._sleep(delays[attempt - 1])
        raise AssertionError("unreachable")  # pragma: no cover

    def _json(self, method: str, path: str, payload: "dict | None" = None):
        status, raw = self._request(method, path, payload)
        try:
            data = json.loads(raw.decode() or "{}")
        except ValueError:
            data = {"error": raw.decode(errors="replace")}
        if status == 429:
            raise AdmissionError(
                str(data.get("error", "shed")), shard=data.get("shard")
            )
        if status == 503:
            raise ServiceUnavailableError(
                str(data.get("error", "service unavailable"))
            )
        if status >= 400:
            detail = data.get("error", repr(raw))
            raise ServiceError(f"HTTP {status} on {method} {path}: {detail}")
        return data

    @staticmethod
    def _keyed(request):
        """The request with an idempotency key, minting one if absent —
        the piece that makes the retry loop exactly-once end to end."""
        if request.idempotency_key is not None:
            return request
        return dataclasses.replace(
            request, idempotency_key=f"client-{uuid.uuid4().hex}"
        )

    def send(self, request: SendRequest) -> SendResult:
        request = self._keyed(request)
        with trace_ctx.trace_context(request.trace_id) as ctx:
            if request.trace_id is None:
                request = dataclasses.replace(request, trace_id=ctx.trace_id)
            with telemetry.trace("client.send", device_id=request.device_id):
                return SendResult.from_dict(
                    self._json("POST", "/send", request.to_dict())
                )

    def receive(self, request: ReceiveRequest) -> ReceiveResult:
        request = self._keyed(request)
        with trace_ctx.trace_context(request.trace_id) as ctx:
            if request.trace_id is None:
                request = dataclasses.replace(request, trace_id=ctx.trace_id)
            with telemetry.trace("client.receive", device_id=request.device_id):
                return ReceiveResult.from_dict(
                    self._json("POST", "/receive", request.to_dict())
                )

    def metrics(self) -> str:
        status, raw = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"HTTP {status} on GET /metrics")
        return raw.decode()

    def healthz(self) -> dict:
        status, raw = self._request("GET", "/healthz")
        data = json.loads(raw.decode() or "{}")
        data["http_status"] = status
        return data

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def shutdown(self) -> dict:
        return self._json("POST", "/shutdown")


@dataclass(frozen=True)
class LoadReport:
    """Accounting for one load run; ``lost`` must always be zero."""

    messages: int
    completed: int
    failed: int
    shed: int
    mismatched: int
    elapsed_s: float
    errors: "tuple[str, ...]" = field(default=())

    @property
    def lost(self) -> int:
        """Messages not accounted for — the zero-lost-jobs invariant."""
        return self.messages - self.completed - self.failed - self.shed

    @property
    def throughput_msgs_per_s(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "messages": self.messages,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "mismatched": self.mismatched,
            "lost": self.lost,
            "elapsed_s": self.elapsed_s,
            "throughput_msgs_per_s": self.throughput_msgs_per_s,
            "errors": list(self.errors),
        }


class _Tally:
    """The outcome count both soaks share.

    Each message ends completed (and perhaps mismatched), shed or
    failed; the first ten error lines are kept.  A
    :class:`~repro.errors.ServiceUnavailableError` (the HTTP soak out of
    restart budget) is noted but left uncounted, so it surfaces as
    ``lost``, which is what the zero-lost gate should trip on.  Locked,
    for the threaded HTTP soak.
    """

    def __init__(self, messages: int):
        self.messages = messages
        self.counts = dict.fromkeys(
            ("completed", "failed", "shed", "mismatched"), 0
        )
        self.errors: "list[str]" = []
        self._lock = threading.Lock()

    def record(self, device_id: str, message: bytes, outcome) -> None:
        """Count one message: its receive result, or the error that
        ended it."""
        error = None
        with self._lock:
            if isinstance(outcome, ServiceUnavailableError):
                error = f"unreachable: {outcome}"
            elif isinstance(outcome, AdmissionError):
                self.counts["shed"] += 1
                error = f"shed: {outcome}"
            elif isinstance(outcome, ReproError):
                self.counts["failed"] += 1
                error = f"{type(outcome).__name__}: {outcome}"
            else:
                self.counts["completed"] += 1
                if outcome.message != message:
                    self.counts["mismatched"] += 1
                    error = "payload mismatch"
            if error is not None and len(self.errors) < 10:
                self.errors.append(f"{device_id}: {error}")

    def report(self, elapsed_s: float) -> LoadReport:
        return LoadReport(
            messages=self.messages,
            elapsed_s=elapsed_s,
            errors=tuple(self.errors),
            **self.counts,
        )


def _payload_for(seed: int, index: int, message_bytes: int) -> bytes:
    """Deterministic per-message payload: reproducible and self-checking."""
    out = b""
    counter = 0
    while len(out) < message_bytes:
        out += hashlib.blake2b(
            f"{seed}:{index}:{counter}".encode(), digest_size=32
        ).digest()
        counter += 1
    return out[:message_bytes]


class LoadGenerator:
    """Deterministic send→receive→verify traffic against a service."""

    def __init__(
        self,
        *,
        seed: int = 0,
        message_bytes: int = 8,
        stress_hours: "float | None" = None,
        idempotency: bool = False,
    ):
        if message_bytes < 1:
            raise ConfigurationError(
                f"message_bytes must be >= 1, got {message_bytes}"
            )
        if stress_hours is not None and stress_hours <= 0:
            raise ConfigurationError(
                f"stress_hours must be positive, got {stress_hours}"
            )
        self.seed = seed
        self.message_bytes = message_bytes
        #: Encode stress per message (None = the device recipe default).
        #: Longer stress buys raw-BER margin at the tail of a large
        #: varied fleet (the paper's stress-time-vs-error tradeoff), so
        #: big soaks run hotter than the 12 h recipe default.
        self.stress_hours = stress_hours
        #: Stamp every request with a deterministic per-op idempotency
        #: key (``soak-<seed>-<index>-<op>``).  Against a journaled
        #: service, rerunning the same soak after a crash resumes it:
        #: already-executed ops come back from the cache, only the lost
        #: tail actually runs.  Off by default so repeated soaks against
        #: one long-lived service measure real work, not cache hits.
        self.idempotency = idempotency

    def device_id(self, index: int) -> str:
        return f"dev-{self.seed}-{index:06d}"

    def message(self, index: int) -> bytes:
        return _payload_for(self.seed, index, self.message_bytes)

    def _key(self, index: int, op: str) -> "str | None":
        return f"soak-{self.seed}-{index}-{op}" if self.idempotency else None

    def _requests(self, index: int) -> "tuple[SendRequest, ReceiveRequest]":
        return (
            SendRequest(
                device_id=self.device_id(index),
                message=self.message(index),
                stress_hours=self.stress_hours,
                idempotency_key=self._key(index, "send"),
            ),
            ReceiveRequest(
                device_id=self.device_id(index),
                idempotency_key=self._key(index, "recv"),
            ),
        )

    async def run(
        self,
        service,
        n_messages: int,
        *,
        concurrency: int = 32,
        wait: bool = True,
    ) -> LoadReport:
        """In-process soak against a started :class:`FleetService`."""
        if n_messages < 1:
            raise ConfigurationError(f"need >= 1 message, got {n_messages}")
        if concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        gate = asyncio.Semaphore(concurrency)
        tally = _Tally(n_messages)

        async def one(index: int) -> None:
            device_id = self.device_id(index)
            message = self.message(index)
            send_request, receive_request = self._requests(index)
            # One fresh trace per message: the send and receive land as
            # one connected span tree under a single trace_id.
            async with gate:
                with trace_ctx.trace_context(inherit=False), telemetry.trace(
                    "load.message", index=index, device_id=device_id
                ):
                    try:
                        await service.submit(send_request, wait=wait)
                        outcome = await service.submit(
                            receive_request, wait=wait
                        )
                    except ReproError as exc:
                        outcome = exc
                    tally.record(device_id, message, outcome)

        start = time.perf_counter()
        await asyncio.gather(*(one(i) for i in range(n_messages)))
        return tally.report(time.perf_counter() - start)

    def run_remote(
        self,
        client: ServiceClient,
        n_messages: int,
        *,
        concurrency: int = 8,
        restart_retries: int = 0,
        restart_backoff_s: float = 0.5,
    ) -> LoadReport:
        """Threaded soak over HTTP (the CI smoke path).

        ``restart_retries > 0`` makes the soak survive a service restart
        window: an op that hits a connection-level failure (reset,
        refused, circuit open — the kill-9 signature) backs off
        ``restart_backoff_s`` and re-issues the *same* request, up to
        the bound, before being left uncounted (``lost``).  Requires
        :attr:`idempotency` so re-issues after a half-executed original
        dedup server-side instead of double-aging silicon.
        """
        from concurrent.futures import ThreadPoolExecutor

        if n_messages < 1:
            raise ConfigurationError(f"need >= 1 message, got {n_messages}")
        if restart_retries < 0:
            raise ConfigurationError(
                f"restart_retries must be >= 0, got {restart_retries}"
            )
        if restart_retries > 0 and not self.idempotency:
            raise ConfigurationError(
                "restart_retries needs idempotency=True — re-issuing "
                "unkeyed jobs across a restart can execute them twice"
            )
        tally = _Tally(n_messages)

        def call_through_restarts(fn):
            for attempt in range(restart_retries + 1):
                try:
                    return fn()
                except ServiceUnavailableError:
                    if attempt == restart_retries:
                        raise
                    telemetry.count("load.restart_retries")
                    time.sleep(restart_backoff_s)
            raise AssertionError("unreachable")  # pragma: no cover

        def one(index: int) -> None:
            device_id = self.device_id(index)
            message = self.message(index)
            send_request, receive_request = self._requests(index)
            # One fresh trace per message, exactly like the in-process
            # soak: the client spans (and everything server-side they
            # cause via the traceparent header) share one trace_id.
            with trace_ctx.trace_context(inherit=False), telemetry.trace(
                "load.message", index=index, device_id=device_id
            ):
                try:
                    call_through_restarts(lambda: client.send(send_request))
                    outcome = call_through_restarts(
                        lambda: client.receive(receive_request)
                    )
                except ReproError as exc:
                    outcome = exc
                tally.record(device_id, message, outcome)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            list(pool.map(one, range(n_messages)))
        return tally.report(time.perf_counter() - start)
