"""End-to-end request tracing through the fleet service.

The acceptance claim of the tracing PR: a traced soak yields **one
connected span tree per request** — client → server → queue → lane →
capture/decode → journal — under a single ``trace_id``, including when
the request reroutes off a faulted lane, hits the idempotency cache, or
replays from the journal after a crash.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import metrics, telemetry
from repro.api import ReceiveRequest, SendRequest
from repro.errors import ServiceError
from repro.faults import FaultPlan, StuckRegion
from repro.service import (
    FleetService,
    ServiceClient,
    ServiceConfig,
    serve_forever,
)
from repro.service.journal import read_journal
from repro.service.recovery import journal_path, recover_components
from repro.telemetry import RingBufferSink

SEED = 99

T_SEND = "aa" * 16
T_RECV = "bb" * 16
T_OTHER = "cc" * 16


def _sink():
    sink = RingBufferSink(capacity=65536)
    telemetry.add_sink(sink)
    return sink


def _spans_of(sink, trace_id):
    return [
        r for r in sink.records(type="span") if r.get("trace_id") == trace_id
    ]


def _wait_for_spans(sink, trace_id, names, timeout=15.0):
    """Spans finish slightly after the HTTP response; poll briefly."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        seen = {s["name"] for s in _spans_of(sink, trace_id)}
        if set(names) <= seen:
            return
        time.sleep(0.02)
    raise AssertionError(f"missing spans: {set(names) - seen}")


def _assert_single_tree(spans):
    """Every span reaches one root by walking parent links; no cycles."""
    by_id = {s["span_id"]: s for s in spans}
    assert len(by_id) == len(spans), "span ids collide"
    roots = set()
    for span in spans:
        node, hops = span, 0
        while node["parent_id"] in by_id:
            node = by_id[node["parent_id"]]
            hops += 1
            assert hops <= len(spans), "parent links form a cycle"
        roots.add(node["span_id"])
    assert len(roots) == 1, (
        f"expected one connected tree, found {len(roots)} roots: "
        f"{[by_id[r]['name'] for r in roots]}"
    )
    return by_id[next(iter(roots))]


#: Shared with tests that need the live service's journal directory.
_MODULE_STATE: dict = {}


@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    """A journaled serve_forever loop in a thread for the whole module."""
    journal_dir = tmp_path_factory.mktemp("tracing-journal")
    _MODULE_STATE["journal_dir"] = journal_dir
    ready = threading.Event()
    box: dict = {}

    def on_ready(service) -> None:
        box["service"] = service
        ready.set()

    thread = threading.Thread(
        target=serve_forever,
        args=(
            ServiceConfig(
                shards=2, port=0, seed=SEED, journal_dir=str(journal_dir)
            ),
        ),
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
        pass
    client.close()
    thread.join(timeout=30)
    assert not thread.is_alive(), "serve_forever failed to drain and exit"


class TestConnectedTreeOverHttp:
    def test_send_spans_form_one_tree_under_the_request_trace(
        self, live_service
    ):
        sink = _sink()
        live_service.send(
            SendRequest(
                device_id="traced-dev", message=b"follow me", trace_id=T_SEND
            )
        )
        _wait_for_spans(
            sink,
            T_SEND,
            (
                "client.send",
                "service.request",
                "service.submit",
                "lane.execute",
                "channel.send",
                "service.journal",
            ),
        )
        spans = _spans_of(sink, T_SEND)
        root = _assert_single_tree(spans)
        # The client's span is the root: the server tree parented under
        # it via the traceparent header, not a fresh server-side trace.
        assert root["name"] == "client.send"

    def test_receive_tree_includes_capture_and_decode(self, live_service):
        sink = _sink()
        live_service.receive(
            ReceiveRequest(device_id="traced-dev", trace_id=T_RECV)
        )
        _wait_for_spans(
            sink,
            T_RECV,
            (
                "client.receive",
                "service.request",
                "service.submit",
                "lane.capture",
                "lane.execute",
                "channel.decode_state",
                "service.journal",
            ),
        )
        spans = _spans_of(sink, T_RECV)
        root = _assert_single_tree(spans)
        assert root["name"] == "client.receive"

    def test_journal_records_carry_the_trace(self, live_service):
        # Both requests above were journaled under their trace ids —
        # admits and completions alike, which is what lets a crash
        # replay correlate with the original request.
        records, _torn = read_journal(
            journal_path(_MODULE_STATE["journal_dir"])
        )
        traced = [r for r in records if r.get("trace") == T_SEND]
        assert {r["op"] for r in traced} == {"admit", "complete"}

    def test_stats_expose_latency_breakdown(self, live_service):
        stats = live_service.stats()
        latency = stats["latency"]
        assert latency["requests"] >= 2
        assert latency["mean_ms"] > 0
        phases = latency["phases"]
        # Send contributes queue_wait/encode/journal_fsync, receive adds
        # capture/decode.
        for phase in ("queue_wait", "encode", "capture", "decode",
                      "journal_fsync"):
            assert phase in phases, f"missing phase {phase}"
            assert phases[phase]["mean_ms"] >= 0
            assert phases[phase]["total_ms"] >= 0

    def test_metrics_exposition_carries_exemplars(self, live_service):
        # The autouse metrics fixture disabled the registry; the service
        # enabled it at start, so re-enable for this test's traffic.
        metrics.registry.enable()
        live_service.send(
            SendRequest(
                device_id="exemplar-dev", message=b"mark me", trace_id=T_OTHER
            )
        )
        text = live_service.metrics()
        assert "repro_service_request_latency_seconds_bucket" in text
        line = next(
            l
            for l in text.splitlines()
            if l.startswith("repro_service_request_latency_seconds_bucket")
            and T_OTHER in l
        )
        assert f'# {{trace_id="{T_OTHER}"}}' in line


class TestIdempotentReplayContinuity:
    def test_cache_hit_span_carries_the_original_trace(self):
        sink = _sink()

        async def scenario():
            service = FleetService(ServiceConfig(shards=1, seed=SEED))
            await service.start()
            request = SendRequest(
                device_id="idem-dev",
                message=b"once",
                idempotency_key="idem-k1",
                trace_id=T_SEND,
            )
            await service.submit(request)
            # A retry from a *different* trace: the replay span must
            # re-home onto the trace that did the work.
            retry = SendRequest(
                device_id="idem-dev",
                message=b"once",
                idempotency_key="idem-k1",
                trace_id=T_OTHER,
            )
            first = await service.submit(request)
            second = await service.submit(retry)
            await service.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.to_dict() == second.to_dict()
        replays = [
            r
            for r in sink.records(type="span")
            if r["name"] == "service.idempotent_replay"
        ]
        assert replays, "no idempotent replay spans recorded"
        for span in replays:
            assert span["trace_id"] == T_SEND
            assert span["parent_id"] is None


class TestCrashReplayContinuity:
    def test_replay_reenters_the_admits_trace(self, tmp_path):
        config = ServiceConfig(
            shards=1, seed=SEED, journal_dir=str(tmp_path / "jd")
        )

        async def crash():
            service = FleetService(config)
            await service.start()
            # The crash window: admitted on disk under its trace, never
            # executed, never completed.
            dangling = SendRequest(device_id="crash-dev", message=b"lost")
            service.ledger.journal.admit(
                "crash-k1", "send", dangling.to_dict(), trace=T_SEND
            )
            await service.abort()

        asyncio.run(crash())
        sink = _sink()
        host, ledger = recover_components(config)
        ledger.journal.close()
        report = ledger.report
        assert report.replayed == 1
        assert ledger.traces == {"crash-k1": T_SEND}
        replay_spans = [
            r
            for r in sink.records(type="span")
            if r["name"] == "recovery.replay"
        ]
        assert len(replay_spans) == 1
        assert replay_spans[0]["trace_id"] == T_SEND
        # Lane spans under the replay join the same trace.
        lane_spans = [
            r
            for r in sink.records(type="span")
            if r["name"] == "lane.execute" and r["trace_id"] == T_SEND
        ]
        assert lane_spans, "replayed execution lost the original trace"
        # The appended completion correlates on disk too.
        records, _torn = read_journal(journal_path(config.journal_dir))
        completion = next(
            r
            for r in records
            if r["op"] == "complete" and r["key"] == "crash-k1"
        )
        assert completion["trace"] == T_SEND
        assert completion["replayed"] is True

    def test_idempotency_traces_survive_restart(self, tmp_path):
        config = ServiceConfig(
            shards=1, seed=SEED, journal_dir=str(tmp_path / "jd")
        )

        async def first_life():
            service = FleetService(config)
            await service.start()
            await service.submit(
                SendRequest(
                    device_id="restart-dev",
                    message=b"keyed",
                    idempotency_key="restart-k1",
                    trace_id=T_SEND,
                )
            )
            await service.stop()

        asyncio.run(first_life())
        sink = _sink()

        async def second_life():
            service = FleetService(config)
            await service.start()
            result = await service.submit(
                SendRequest(
                    device_id="restart-dev",
                    message=b"keyed",
                    idempotency_key="restart-k1",
                    trace_id=T_OTHER,
                )
            )
            await service.stop()
            return result

        asyncio.run(second_life())
        replays = [
            r
            for r in sink.records(type="span")
            if r["name"] == "service.idempotent_replay"
        ]
        assert replays, "restart lost the idempotency hit"
        # The hit correlates with the first life's trace, not the retry's.
        assert replays[-1]["trace_id"] == T_SEND


N_DEVICES = 24
SRAM_KIB = 0.25


def _stuck_plan() -> FaultPlan:
    n_bits = int(SRAM_KIB * 8192)
    return FaultPlan(
        seed=0,
        models=(
            StuckRegion(offset=n_bits // 2, length=n_bits // 2, value=0),
        ),
    )


class TestFaultedLaneContinuity:
    def test_rerouted_jobs_keep_their_request_trace(self):
        sink = _sink()
        send_traces = {
            f"dev-{i:03d}": f"{i:02x}" * 16 for i in range(N_DEVICES)
        }
        recv_traces = {
            f"dev-{i:03d}": f"{i + 64:02x}" * 16 for i in range(N_DEVICES)
        }

        async def scenario():
            service = FleetService(
                ServiceConfig(
                    shards=4,
                    seed=77,
                    sram_kib=SRAM_KIB,
                    max_batch=4,
                    fault_plan=_stuck_plan(),
                    fault_shards=("shard-2",),
                )
            )
            await service.start()

            async def one(device_id):
                await service.submit(
                    SendRequest(
                        device_id=device_id,
                        message=f"m {device_id}".encode(),
                        trace_id=send_traces[device_id],
                    )
                )
                # The raw-BER SLO only observes captures, so the trip
                # (and the reroutes it causes) happen on the receives.
                await service.submit(
                    ReceiveRequest(
                        device_id=device_id,
                        trace_id=recv_traces[device_id],
                    )
                )

            outcomes = await asyncio.gather(
                *(one(d) for d in send_traces), return_exceptions=True
            )
            stats = service.stats()
            await service.stop()
            return outcomes, stats

        outcomes, stats = asyncio.run(scenario())
        for out in outcomes:
            if isinstance(out, BaseException):
                raise out
        # The faulted lane tripped, so some jobs rerouted mid-flight.
        assert "shard-2" in stats["admission"]["tripped"]
        # Every device's lane execution happened under that device's own
        # trace — rerouting never re-minted or cross-wired a trace.
        for traces in (send_traces, recv_traces):
            for device_id, trace_id in traces.items():
                lane_spans = [
                    r
                    for r in _spans_of(sink, trace_id)
                    if r["name"] == "lane.execute"
                ]
                assert lane_spans, f"{device_id} lost its trace"
                for span in lane_spans:
                    assert span["attrs"]["device_id"] == device_id
