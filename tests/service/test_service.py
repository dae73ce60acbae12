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
