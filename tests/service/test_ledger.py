"""Exactly-once bookkeeping: the in-flight latch and shed accounting.

A send is an NBTI stress whose aging is permanent, so a duplicate
request must never reach silicon twice, and every job the service
refuses must be counted the same way by every tally that claims to
count it.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import metrics, telemetry
from repro.api import SendRequest
from repro.errors import AdmissionError, ServiceStoppedError
from repro.service import FleetService, ServiceConfig, server
from repro.telemetry import RingBufferSink

SEED = 41

T_FIRST = "ab" * 16
T_SECOND = "cd" * 16


def _total(name: str, **labels) -> float:
    """Sum of a process-registry instrument's series matching ``labels``."""
    instrument = metrics.registry.get(name)
    total = 0.0
    for key, series in instrument.series().items():
        values = dict(zip(instrument.labelnames, key))
        if all(values.get(k) == v for k, v in labels.items()):
            total += series.value
    return total


def _keyed_send(trace_id: str) -> SendRequest:
    return SendRequest(
        device_id="latch-dev",
        message=b"once only",
        idempotency_key="latch-k1",
        trace_id=trace_id,
    )


def test_concurrent_duplicate_latches_onto_the_in_flight_job():
    """Two concurrent submits under one key: the second awaits the
    first's future, so the device is stressed exactly once."""
    sink = RingBufferSink(capacity=4096)
    telemetry.add_sink(sink)

    async def single():
        service = FleetService(ServiceConfig(shards=1, seed=SEED))
        await service.start()
        await service.submit(_keyed_send(T_FIRST))
        digest = service.host.state_digest()
        await service.stop()
        return digest

    async def duplicated():
        service = FleetService(ServiceConfig(shards=1, seed=SEED))
        await service.start()
        replays = _total("repro_service_idempotent_replays_total")
        first = asyncio.create_task(service.submit(_keyed_send(T_FIRST)))
        await asyncio.sleep(0)  # admitted and queued, not yet executed
        assert not first.done()
        second = asyncio.create_task(service.submit(_keyed_send(T_SECOND)))
        results = await asyncio.gather(first, second)
        replays = _total("repro_service_idempotent_replays_total") - replays
        digest = service.host.state_digest()
        completed = service.completed
        await service.stop()
        return results, replays, digest, completed

    twin_digest = asyncio.run(single())
    (a, b), replays, digest, completed = asyncio.run(duplicated())
    assert digest == twin_digest
    assert completed == 1
    assert a.to_dict() == b.to_dict()
    assert replays == 1
    spans = [
        r
        for r in sink.records(type="span")
        if r["name"] == "service.idempotent_replay"
    ]
    assert len(spans) == 1
    assert spans[0]["trace_id"] == T_FIRST


async def _settle() -> None:
    await asyncio.sleep(0.05)


def _device_homed_at(service, shard: str, start: int = 0) -> str:
    index = start
    while True:
        device_id = f"dev-{index}"
        if service.router.route(device_id, service.admission.healthy) == shard:
            return device_id
        index += 1


def _send(device_id: str) -> SendRequest:
    return SendRequest(device_id=device_id, message=b"shed me")


async def _wait_false_full_queue(service):
    jobs = [
        service.submit(_send(f"dev-{i}"), wait=False) for i in range(8)
    ]
    return await asyncio.gather(*jobs, return_exceptions=True)


async def _no_healthy_lane(service):
    service.admission.trip("shard-0", "test")
    return await asyncio.gather(
        service.submit(_send("dev-0")), return_exceptions=True
    )


async def _reroute_with_lane_tripped(service):
    """One job held at the checkpoint gate while its lane trips."""
    service._pause.clear()
    device_id = _device_homed_at(service, "shard-0")
    job = asyncio.create_task(service.submit(_send(device_id)))
    await _settle()
    service.admission.trip("shard-0", "test")
    service._pause.set()
    return await asyncio.gather(job, return_exceptions=True)


async def _reroute_to_saturated_queue(service):
    # Hold the lane thread so shard-1's worker sits on its first job
    # while a second fills shard-1's one-deep queue.
    gate = threading.Event()
    blocker = service._on_lane_thread(gate.wait)
    tasks = [
        asyncio.create_task(
            service.submit(_send(_device_homed_at(service, "shard-1", i)))
        )
        for i in (0, 100)
    ]
    await _settle()
    service._pause.clear()
    tasks.append(
        asyncio.create_task(
            service.submit(_send(_device_homed_at(service, "shard-0")))
        )
    )
    await _settle()
    service.admission.trip("shard-0", "test")
    service._pause.set()
    await _settle()
    gate.set()
    await blocker
    return await asyncio.gather(*tasks, return_exceptions=True)


async def _stop_without_drain(service):
    service._pause.clear()
    tasks = [
        asyncio.create_task(service.submit(_send(f"dev-{i}")))
        for i in range(4)
    ]
    await _settle()
    await service.stop(drain=False)
    return await asyncio.gather(*tasks, return_exceptions=True)


#: path -> (config overrides, scenario, refusals it must produce)
SHED_PATHS = {
    "wait-false-full-queue": (
        dict(shards=1, queue_depth=2, max_batch=1),
        _wait_false_full_queue,
        None,
    ),
    "no-healthy-lane": (dict(shards=1), _no_healthy_lane, 1),
    "reroute-no-healthy-target": (
        dict(shards=1),
        _reroute_with_lane_tripped,
        1,
    ),
    "reroute-saturated-queue": (
        dict(shards=2, queue_depth=1, max_batch=1),
        _reroute_to_saturated_queue,
        1,
    ),
    "max-reroutes-exceeded": (
        dict(shards=2),
        _reroute_with_lane_tripped,
        1,
    ),
    # max_batch=1: the worker holds one job mid-batch (failed, not
    # shed — it may have half-run), the other three are shed.
    "stop-without-drain": (
        dict(shards=1, max_batch=1, queue_depth=16),
        _stop_without_drain,
        3,
    ),
}


#: Service constants a shed path lowers to reach its refusal.
SHED_CONSTANTS = {"max-reroutes-exceeded": {"MAX_REROUTES": 0}}


@pytest.mark.parametrize("path", sorted(SHED_PATHS))
def test_every_refusal_is_counted_once_everywhere(path, monkeypatch):
    overrides, scenario, expected = SHED_PATHS[path]
    for name, value in SHED_CONSTANTS.get(path, {}).items():
        monkeypatch.setattr(server, name, value)

    async def run():
        service = FleetService(ServiceConfig(seed=SEED, **overrides))
        await service.start()
        outcomes = await scenario(service)
        if service.started:
            await service.stop()
        return service, outcomes

    service, outcomes = asyncio.run(run())
    refused = [
        o
        for o in outcomes
        if isinstance(o, AdmissionError)
        or (isinstance(o, ServiceStoppedError) and "shed" in str(o))
    ]
    if expected is None:
        assert refused, "the scenario never refused a job"
    else:
        assert len(refused) == expected, outcomes
    stats = service.stats()
    assert stats["admission"]["shed"] == len(refused)
    assert _total("repro_service_shed_total") == len(refused)
    assert _total("repro_service_jobs_total", status="shed") == len(refused)
    assert stats["failed"] == len(refused)
