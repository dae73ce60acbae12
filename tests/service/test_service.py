"""FleetService end to end: soak, drain, shed, sticky routing, metrics."""

from __future__ import annotations

import asyncio

import pytest

from repro import metrics
from repro.api import ReceiveRequest, SendRequest
from repro.errors import AdmissionError, ServiceError, ServiceStoppedError
from repro.service import (
    FleetService,
    LoadGenerator,
    ServiceConfig,
    ServiceClient,
)


def run(coro):
    return asyncio.run(coro)


def test_soak_round_trips_every_message_across_shards():
    async def scenario():
        service = FleetService(ServiceConfig(shards=4))
        await service.start()
        generator = LoadGenerator(seed=11, message_bytes=8)
        report = await generator.run(service, 60, concurrency=24)
        stats = service.stats()
        await service.stop()
        return report, stats

    report, stats = run(scenario())
    assert report.lost == 0
    assert report.completed == 60
    assert report.failed == 0 and report.shed == 0 and report.mismatched == 0
    # Work really spread over all four lanes.
    busy = [q for q in stats["queues"].values() if q["enqueued"] > 0]
    assert len(busy) == 4
    assert stats["devices"] == 60


def test_results_carry_shard_and_digests():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        sent = await service.submit(
            SendRequest(device_id="dev-a", message=b"payload")
        )
        received = await service.submit(ReceiveRequest(device_id="dev-a"))
        await service.stop()
        return sent, received

    sent, received = run(scenario())
    assert sent.shard in ("shard-0", "shard-1")
    # Sticky home: both legs of a device's life run on the same lane.
    assert received.shard == sent.shard
    assert received.message == b"payload"
    assert received.raw_ber is not None  # service knows the truth
    assert len(received.state_digest) == 16


def test_receive_before_send_fails_cleanly():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        try:
            with pytest.raises(ServiceError, match="no staged message"):
                await service.submit(ReceiveRequest(device_id="ghost"))
        finally:
            await service.stop()

    run(scenario())


def test_submit_after_drain_is_rejected():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        await service.submit(SendRequest(device_id="dev-b", message=b"x"))
        await service.drain()
        with pytest.raises(ServiceStoppedError):
            await service.submit(ReceiveRequest(device_id="dev-b"))
        await service.stop(drain=False)

    run(scenario())


def test_wait_false_sheds_on_full_queue():
    async def scenario():
        # One shard, tiny queue, and no workers started yet: the queue
        # genuinely backs up.
        service = FleetService(ServiceConfig(shards=1, queue_depth=2))
        await service.start()
        # Stall the single worker with a slow first job, then overfill.
        jobs = [
            asyncio.create_task(
                service.submit(
                    SendRequest(device_id=f"dev-{i}", message=b"x"),
                    wait=False,
                )
            )
            for i in range(12)
        ]
        done = await asyncio.gather(*jobs, return_exceptions=True)
        await service.stop()
        return done, service

    done, service = run(scenario())
    shed = [r for r in done if isinstance(r, AdmissionError)]
    succeeded = [r for r in done if not isinstance(r, BaseException)]
    assert len(shed) + len(succeeded) == 12
    assert shed, "a 2-deep queue must shed some of 12 instant submissions"
    assert service.admission.stats()["shed"] == len(shed)


def test_drain_completes_all_queued_jobs():
    async def scenario():
        service = FleetService(ServiceConfig(shards=3))
        await service.start()
        sends = [
            asyncio.create_task(
                service.submit(
                    SendRequest(device_id=f"dev-{i}", message=b"drain me")
                )
            )
            for i in range(12)
        ]
        await asyncio.sleep(0)  # jobs enqueued, most still unserved
        await service.drain()
        results = await asyncio.gather(*sends)
        await service.stop(drain=False)
        return results

    results = run(scenario())
    assert len(results) == 12
    assert all(r.payload_digest for r in results)


def test_service_metrics_flow_into_global_registry():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        generator = LoadGenerator(seed=13)
        await generator.run(service, 8, concurrency=4)
        exposition = metrics.registry.expose()
        await service.stop()
        return exposition

    exposition = run(scenario())
    assert "repro_service_jobs_total" in exposition
    assert 'status="ok"' in exposition
    assert "repro_service_queue_depth" in exposition


def test_stats_shape():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        await service.submit(SendRequest(device_id="dev-s", message=b"x"))
        stats = service.stats()
        await service.stop()
        return stats

    stats = run(scenario())
    assert stats["completed"] == 1
    assert set(stats["queues"]) == {"shard-0", "shard-1"}
    assert stats["admission"]["healthy"] == ["shard-0", "shard-1"]
    for shard_stats in stats["shards"].values():
        assert shard_stats["active_alerts"] == []


@pytest.mark.parametrize("ending", ["stop", "abort"])
def test_every_lane_runs_on_the_one_lane_thread(monkeypatch, ending):
    """Two lanes, 64 requests in flight: every batch runs on one thread,
    no two batches overlap, lane work sees its own job's trace, and the
    lane thread exits when the service stops or aborts."""
    import threading
    import time

    from repro.core.pipeline import InvisibleBits
    from repro.service.shards import Shard
    from repro.telemetry import context as trace_ctx

    batches = []  # (thread, start, end)
    lane_calls = []  # (channel, trace id current inside the lane call)
    execute_batch = Shard.execute_batch
    send = InvisibleBits.send
    decode_state = InvisibleBits.decode_state

    def recording_execute_batch(self, jobs):
        start = time.perf_counter()
        try:
            return execute_batch(self, jobs)
        finally:
            batches.append(
                (threading.current_thread(), start, time.perf_counter())
            )

    def recording_send(self, *args, **kwargs):
        lane_calls.append((self, trace_ctx.current_trace_id()))
        return send(self, *args, **kwargs)

    def recording_decode_state(self, *args, **kwargs):
        lane_calls.append((self, trace_ctx.current_trace_id()))
        return decode_state(self, *args, **kwargs)

    monkeypatch.setattr(Shard, "execute_batch", recording_execute_batch)
    monkeypatch.setattr(InvisibleBits, "send", recording_send)
    monkeypatch.setattr(InvisibleBits, "decode_state", recording_decode_state)
    n = 64
    traces = {f"dev-{i:02d}": f"{i + 1:032x}" for i in range(n)}

    async def round_trip(device_id):
        trace_id = traces[device_id]
        message = device_id.encode()
        await service.submit(
            SendRequest(
                device_id=device_id, message=message, trace_id=trace_id
            )
        )
        got = await service.submit(
            ReceiveRequest(device_id=device_id, trace_id=trace_id)
        )
        assert got.message == message

    async def scenario():
        await service.start()
        tasks = [asyncio.create_task(round_trip(d)) for d in traces]
        if ending == "stop":
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=120)
            stats = service.stats()
            channels = dict(service.host._channels)
            await service.stop()
            return stats, channels
        # Abort mid-soak, with batches still queued and in flight.
        for _ in range(6000):
            if len(batches) >= 4:
                break
            await asyncio.sleep(0.01)
        assert len(batches) >= 4, "the soak never got going"
        await service.abort()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        return None, dict(service.host._channels)

    service = FleetService(ServiceConfig(shards=2, queue_depth=n))
    stats, channels = run(scenario())

    threads = {thread for thread, _, _ in batches}
    assert len(threads) == 1, "lanes ran on more than one thread"
    spans = sorted((start, end) for _, start, end in batches)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start, "two batches overlapped"
    device_of = {id(channel): device for device, channel in channels.items()}
    assert lane_calls
    for channel, trace_id in lane_calls:
        assert trace_id == traces[device_of[id(channel)]]
    if stats is not None:
        assert stats["completed"] == 2 * n
        busy = {name for name, q in stats["queues"].items() if q["enqueued"]}
        assert busy == {"shard-0", "shard-1"}
        assert "dispatch" in stats["latency"]["phases"]
    (lane_thread,) = threads
    lane_thread.join(timeout=10)
    assert not lane_thread.is_alive()


def test_client_rejects_bad_url():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ServiceClient("http://")


@pytest.mark.parametrize("decision", ["hard", "soft"])
def test_configured_decision_mode_is_the_one_that_runs(decision):
    """A soft scheme decodes the kernel's vote margins on the service;
    the same service built hard still decodes hard."""
    from repro import telemetry
    from repro.core.scheme import paper_end_to_end_scheme
    from repro.telemetry import RingBufferSink

    sink = RingBufferSink(capacity=4096)
    telemetry.add_sink(sink)
    scheme = paper_end_to_end_scheme(copies=7).with_decision(decision)

    async def scenario():
        service = FleetService(ServiceConfig(shards=1, scheme=scheme))
        await service.start()
        await service.submit(SendRequest(device_id="dev-d", message=b"margins"))
        received = await service.submit(ReceiveRequest(device_id="dev-d"))
        await service.stop()
        return received

    received = run(scenario())
    assert received.message == b"margins"
    decodes = [
        r for r in sink.records(type="span") if r["name"] == "channel.decode_state"
    ]
    assert decodes
    assert {r["attrs"]["decision"] for r in decodes} == {decision}


def test_importing_the_service_skips_the_experiments_package():
    import subprocess
    import sys

    probe = (
        "import sys, repro.service; "
        "sys.exit('repro.experiments' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
