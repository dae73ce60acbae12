"""SLO-driven shed/reroute: a faulted lane must not perturb healthy ones.

The scenario the serving layer exists for: one shard's harness lane has a
stuck-at region (half the capture readback forced to 0 — raw BER ~50%
against the staged payloads, the pattern from tests/monitor).  The lane's
raw-BER SLO pages, admission trips exactly that lane, its jobs reroute,
and — the load-bearing claim — every device homed on a *healthy* lane
produces results bit-identical to the same run without any fault.
"""

from __future__ import annotations

import asyncio

from repro.faults import FaultPlan, FlakyDebugPort, StuckRegion
from repro.service import (
    AdmissionController,
    FleetHost,
    FleetService,
    Job,
    ServiceConfig,
    Shard,
    ShardRouter,
    shards,
)
from repro.api import ReceiveRequest, SendRequest

N_DEVICES = 24
SRAM_KIB = 0.25
SEED = 77


def _stuck_plan() -> FaultPlan:
    n_bits = int(SRAM_KIB * 8192)
    return FaultPlan(
        seed=0,
        models=(
            StuckRegion(offset=n_bits // 2, length=n_bits // 2, value=0),
        ),
    )


def _config(**overrides) -> ServiceConfig:
    base = dict(shards=4, seed=SEED, sram_kib=SRAM_KIB, max_batch=4)
    base.update(overrides)
    return ServiceConfig(**base)


async def _run_fleet(
    config: ServiceConfig, device_ids: "list[str] | None" = None
) -> "tuple[dict, dict]":
    """Send+receive one message per device; returns (results, stats)."""
    service = FleetService(config)
    await service.start()

    async def one(index: int, device_id: str):
        message = f"msg {index:03d}".encode()
        await service.submit(SendRequest(device_id=device_id, message=message))
        received = await service.submit(ReceiveRequest(device_id=device_id))
        return device_id, message, received

    if device_ids is None:
        device_ids = [f"dev-{index:03d}" for index in range(N_DEVICES)]
    outcomes = await asyncio.gather(
        *(one(i, device_id) for i, device_id in enumerate(device_ids)),
        return_exceptions=True,
    )
    stats = service.stats()
    await service.stop()
    results = {}
    for out in outcomes:
        if isinstance(out, BaseException):
            raise out
        device_id, message, received = out
        results[device_id] = (message, received)
    return results, stats


def test_fault_on_one_shard_trips_reroutes_and_preserves_the_rest():
    baseline, baseline_stats = asyncio.run(_run_fleet(_config()))
    faulted, faulted_stats = asyncio.run(
        _run_fleet(
            _config(fault_plan=_stuck_plan(), fault_shards=("shard-2",))
        )
    )

    # Sanity on the baseline: every lane healthy, nothing rerouted.
    assert baseline_stats["admission"]["tripped"] == {}
    assert all(
        received.message == message
        for message, received in baseline.values()
    )

    # Exactly the faulted lane tripped, on the raw-BER SLO.
    tripped = faulted_stats["admission"]["tripped"]
    assert set(tripped) == {"shard-2"}
    assert "raw-ber-slo" in tripped["shard-2"]
    assert faulted_stats["admission"]["healthy"] == [
        "shard-0", "shard-1", "shard-3",
    ]

    # Zero lost jobs: every message still round-trips exactly — the
    # tripped lane's jobs were rescued by reroute, not dropped.
    assert set(faulted) == set(baseline)
    for device_id, (message, received) in faulted.items():
        assert received.message == message, device_id

    # Devices homed on healthy lanes are *bit-identical* to the
    # unfaulted run: same executing shard, same majority-voted power-on
    # state digest, same diagnostics-bearing payload.
    router = ShardRouter(_config().shard_names)
    healthy_homed = [
        device_id
        for device_id in baseline
        if router.route(device_id) != "shard-2"
    ]
    assert healthy_homed, "routing should put some devices off shard-2"
    for device_id in healthy_homed:
        _, base_received = baseline[device_id]
        _, fault_received = faulted[device_id]
        assert fault_received.shard == base_received.shard
        assert fault_received.state_digest == base_received.state_digest
        assert fault_received.raw_ber == base_received.raw_ber

    # And the faulted lane's devices really moved somewhere healthy.
    moved = [
        device_id
        for device_id in baseline
        if router.route(device_id) == "shard-2"
    ]
    assert moved, "routing should put some devices on shard-2"
    for device_id in moved:
        _, fault_received = faulted[device_id]
        assert fault_received.shard != "shard-2"


def _lane_round(shard: Shard, device_ids: "list[str]"):
    """One send batch then one receive batch; returns the receive verdict."""
    shard.execute_batch(
        [
            Job("send", SendRequest(device_id=d, message=b"lane"), None)
            for d in device_ids
        ]
    )
    _, reason = shard.execute_batch(
        [Job("receive", ReceiveRequest(device_id=d), None) for d in device_ids]
    )
    return reason


def _lane(**kwargs) -> Shard:
    host = FleetHost(
        scheme=_config().resolved_scheme(), seed=SEED, sram_kib=SRAM_KIB
    )
    return Shard("shard-0", host, **kwargs)


def test_readmitted_lane_re_trips_on_every_violating_batch():
    """A readmitted lane that is still sick must page again: the verdict
    is the batch's own raw BER, not a rule latched on stale history."""
    shard = _lane(fault_plan=_stuck_plan())
    admission = AdmissionController(("shard-0",))
    for round_index in range(3):
        reason = _lane_round(
            shard, [f"r{round_index}-d{i}" for i in range(4)]
        )
        assert reason and "raw-ber-slo" in str(reason), round_index
        assert shard.stats()["active_alerts"] == ["raw-ber-slo"]
        assert admission.trip("shard-0", str(reason)), round_index
        assert admission.readmit("shard-0")


def test_lane_state_does_not_grow_with_the_fleet():
    shard = _lane()

    def n_series() -> int:
        return sum(
            len(instrument.series())
            for instrument in shard.registry.instruments()
        )

    counts = []
    for first, stop in ((0, 64), (64, 192)):
        for start in range(first, stop, 16):
            reason = _lane_round(
                shard, [f"dev-{i:03d}" for i in range(start, start + 16)]
            )
            assert not reason
        counts.append(n_series())
    assert counts == [2, 2]
    stats = shard.stats()
    assert stats["active_alerts"] == []
    assert 0.0 < stats["raw_ber"] <= 0.2
    assert stats["retry_attempts"] == 0


def test_lane_stats_report_the_last_batch_and_the_retry_total():
    """``Shard.stats()``'s keys and values: the last batch's largest raw
    BER (a float, 0.0 for a batch without receives) and the running
    count of extra capture attempts (an int)."""
    shard = _lane()
    assert shard.stats() == {
        "name": "shard-0",
        "jobs_done": 0,
        "batches": 0,
        "faulted": False,
        "active_alerts": [],
        "raw_ber": 0.0,
        "retry_attempts": 0,
    }
    devices = [f"dev-{i}" for i in range(4)]
    shard.execute_batch(
        [Job("send", SendRequest(device_id=d, message=b"lane"), None) for d in devices]
    )
    outcomes, _ = shard.execute_batch(
        [Job("receive", ReceiveRequest(device_id=d), None) for d in devices]
    )
    stats = shard.stats()
    assert stats == {
        "name": "shard-0",
        "jobs_done": 8,
        "batches": 2,
        "faulted": False,
        "active_alerts": [],
        "raw_ber": max(result.raw_ber for _, result in outcomes),
        "retry_attempts": 0,
    }
    assert type(stats["raw_ber"]) is float and stats["raw_ber"] > 0.0
    assert type(stats["retry_attempts"]) is int
    shard.execute_batch(
        [Job("send", SendRequest(device_id="dev-9", message=b"lane"), None)]
    )
    assert shard.stats()["raw_ber"] == 0.0


def test_flaky_debug_port_trips_the_retry_slo(monkeypatch):
    """Retried debug-port reads count against the lane's retry budget;
    the page reroutes the batch's receives, so the flaky lane loses none.

    Without the fault plan, d9 (homed on the healthy lane) decodes
    ``msg 009`` as ``msg 409``: raw BER 0.129, under the 0.2 SLO, and a
    silent Hamming miscorrection, since the frame carries no integrity
    check.  So healthy-lane devices are held to the unfaulted run,
    bit for bit, and the flaky lane's devices to their messages.
    """
    device_ids = [f"d{i}" for i in range(12)]
    monkeypatch.setattr(shards, "RETRY_BUDGET", 0)
    base = dict(shards=2, seed=3, max_batch=4)
    baseline, _ = asyncio.run(_run_fleet(ServiceConfig(**base), device_ids))
    faulted, stats = asyncio.run(
        _run_fleet(
            ServiceConfig(
                **base,
                fault_plan=FaultPlan(
                    seed=0, models=(FlakyDebugPort(rate=0.5),)
                ),
                fault_shards=("shard-1",),
            ),
            device_ids,
        )
    )
    tripped = stats["admission"]["tripped"]
    assert set(tripped) == {"shard-1"}
    assert "retry-slo" in tripped["shard-1"]
    router = ShardRouter(("shard-0", "shard-1"))
    flaky_homed = [d for d in device_ids if router.route(d) == "shard-1"]
    assert flaky_homed, "routing should put some devices on shard-1"
    for device_id in device_ids:
        message, received = faulted[device_id]
        if device_id in flaky_homed:
            assert received.message == message, device_id
            assert received.shard == "shard-0", device_id
        else:
            _, base_received = baseline[device_id]
            assert received.message == base_received.message, device_id
            assert received.state_digest == base_received.state_digest
