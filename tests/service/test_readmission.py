"""Self-healing readmission: the prober, backoff, and trip/readmit races."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.faults import FaultPlan, HealthLedger, StuckRegion
from repro.service import AdmissionController, FleetService, ServiceConfig

NAMES = ("shard-0", "shard-1", "shard-2", "shard-3")


async def _wait_until(predicate, *, timeout_s: float = 10.0) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return predicate()


def test_prober_readmits_a_recovered_lane(monkeypatch):
    """ISSUE acceptance: a tripped lane is auto-readmitted by the prober
    once its raw-BER SLO clears ``readmit_after`` consecutive probes.
    Probes run on the event loop's thread, like every other call that
    touches devices."""
    from repro.api import SendRequest
    from repro.service.shards import Shard

    threads = {"probe": set(), "batch": set(), "loop": set()}
    probe_lane = FleetService._probe_lane
    execute_batch = Shard.execute_batch

    def recording_probe_lane(self, *args):
        threads["probe"].add(threading.current_thread())
        return probe_lane(self, *args)

    def recording_execute_batch(self, jobs):
        threads["batch"].add(threading.current_thread())
        return execute_batch(self, jobs)

    monkeypatch.setattr(FleetService, "_probe_lane", recording_probe_lane)
    monkeypatch.setattr(Shard, "execute_batch", recording_execute_batch)

    async def scenario():
        threads["loop"].add(threading.current_thread())
        service = FleetService(
            ServiceConfig(
                shards=2,
                seed=5,
                probe_interval_s=0.02,
                readmit_after=2,
            )
        )
        await service.start()
        try:
            # Trip the lane by hand (an operator page); the lane's
            # hardware is actually fine, so probes come back clean.
            assert service.admission.trip("shard-1", "operator page")
            assert service.admission.healthy == {"shard-0"}
            recovered = await _wait_until(
                lambda: service.admission.is_healthy("shard-1")
            )
            stats = service.stats()
            await service.submit(SendRequest(device_id="d0", message=b"x"))
        finally:
            await service.stop()
        return recovered, stats

    recovered, stats = asyncio.run(scenario())
    assert recovered, "prober never readmitted the healthy lane"
    assert threads["probe"] == threads["batch"] == threads["loop"]
    assert stats["admission"]["tripped"] == {}
    assert stats["admission"]["readmissions"] == 1
    assert stats["durability"]["probes"] >= 2  # the clean streak


def test_prober_keeps_a_sick_lane_quarantined():
    n_bits = int(0.25 * 8192)
    plan = FaultPlan(
        seed=0,
        models=(StuckRegion(offset=0, length=n_bits // 2, value=0),),
    )

    async def scenario():
        service = FleetService(
            ServiceConfig(
                shards=2,
                seed=5,
                probe_interval_s=0.02,
                readmit_after=1,
                fault_plan=plan,
                fault_shards=("shard-1",),
            )
        )
        await service.start()
        try:
            service.admission.trip("shard-1", "raw-ber-slo")
            # Give the prober several intervals; the stuck half keeps
            # every probe's raw BER over the ceiling.
            await asyncio.sleep(0.3)
            probed = service.probes
            still_tripped = not service.admission.is_healthy("shard-1")
        finally:
            await service.stop()
        return probed, still_tripped

    probed, still_tripped = asyncio.run(scenario())
    assert probed >= 1
    assert still_tripped, "a lane probing dirty must stay quarantined"


def test_probe_devices_never_enter_the_fleet_host():
    """Probes are ephemeral: they must not perturb the journal/checkpoint
    bit-identity of real traffic by growing the host."""

    async def scenario():
        service = FleetService(
            ServiceConfig(shards=2, seed=5, probe_interval_s=0.02)
        )
        await service.start()
        try:
            service.admission.trip("shard-0", "operator page")
            await _wait_until(lambda: service.probes >= 2)
        finally:
            await service.stop()
        return service.host.n_devices

    assert asyncio.run(scenario()) == 0


class TestHealthLedgerReset:
    def test_reset_clears_quarantine_and_history(self):
        ledger = HealthLedger(quarantine_after=2)
        ledger.record_failure("lane")
        assert ledger.record_failure("lane") is True
        assert ledger.is_quarantined("lane")
        assert ledger.reset("lane") is True
        assert not ledger.is_quarantined("lane")
        # History is gone too: quarantine needs a full fresh streak.
        assert ledger.record_failure("lane") is False
        assert ledger.record_failure("lane") is True

    def test_reset_of_a_clean_slot_is_a_no_op(self):
        ledger = HealthLedger(quarantine_after=1)
        assert ledger.reset("lane") is False


def test_concurrent_trips_and_readmissions_never_split_state():
    """Satellite: hammer trip/readmit from threads; no lane may end up
    both tripped and serving (quarantined without a reason, or healthy
    with a stale one)."""
    admission = AdmissionController(NAMES)
    rng = np.random.default_rng(7)
    plans = [rng.integers(0, 2, size=400).tolist() for _ in NAMES]
    start = threading.Barrier(len(NAMES) + 1)
    errors: "list[BaseException]" = []

    def hammer(name: str, plan: "list[int]") -> None:
        try:
            start.wait()
            for flip in plan:
                if flip:
                    admission.trip(name, f"hammer {flip}")
                else:
                    admission.readmit(name)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def observer() -> None:
        try:
            start.wait()
            for _ in range(400):
                # tripped is copied under the controller lock: every
                # entry present must carry its reason atomically.
                for name, reason in admission.tripped.items():
                    assert name in NAMES and reason
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(name, plan))
        for name, plan in zip(NAMES, plans)
    ] + [threading.Thread(target=observer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    # Final state is exactly what each lane's last flip dictates, and
    # the ledger and the reason book agree lane by lane.
    for name, plan in zip(NAMES, plans):
        tripped_last = bool(plan[-1])
        assert admission.is_healthy(name) == (not tripped_last)
        assert (name in admission.tripped) == tripped_last
    healthy = admission.healthy
    for name in NAMES:
        assert (name in healthy) != (name in admission.tripped)


def test_readmissions_counter_tracks_real_edges():
    admission = AdmissionController(NAMES)
    admission.trip("shard-0", "x")
    admission.readmit("shard-0")
    admission.readmit("shard-0")  # no-op: not tripped
    admission.trip("shard-0", "y")
    admission.readmit("shard-0")
    assert admission.readmissions == 2
    assert admission.stats()["readmissions"] == 2


def test_prober_config_validation():
    with pytest.raises(Exception, match="probe_interval_s"):
        ServiceConfig(probe_interval_s=-1.0)
    with pytest.raises(Exception, match="readmit_after"):
        ServiceConfig(readmit_after=0)
