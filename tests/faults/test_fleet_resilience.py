"""Fleet resilience: per-slot errors, quarantine, partial results."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.batch import encode_fleet
from repro.device.catalog import make_device
from repro.errors import (
    CapacityError,
    DebugPortError,
    QuarantinedDeviceError,
    SlotError,
)
from repro.faults import FaultPlan, FlakyDebugPort, RetryPolicy
from repro.harness.rack import EncodingRack, SlotResult


def _rack(n=3, **kwargs):
    devices = [
        make_device("MSP432P401", rng=100 + i, sram_kib=0.25) for i in range(n)
    ]
    return EncodingRack(devices, **kwargs)


class TestStrictMaps:
    def test_map_slots_wraps_errors_with_slot_index(self):
        rack = _rack(3)

        def explode(board):
            if board is rack.boards[1]:
                raise DebugPortError("loose ribbon cable")
            return "ok"

        with pytest.raises(SlotError) as info:
            rack._map_slots(explode)
        assert info.value.slot == 1
        assert "slot 1" in str(info.value)
        assert isinstance(info.value.__cause__, DebugPortError)

    def test_strict_stage_payloads_raises_slot_error(self):
        rack = _rack(2)
        good = np.zeros(rack.boards[0].device.sram.n_bits, dtype=np.uint8)
        bad = np.zeros(7, dtype=np.uint8)  # wrong size -> CapacityError
        with pytest.raises(SlotError) as info:
            rack.stage_payloads([good, bad], use_firmware=False)
        assert info.value.slot == 1
        assert isinstance(info.value.__cause__, CapacityError)


class TestRunSlots:
    def test_all_healthy_slots_report_ok(self):
        rack = _rack(3)
        results = rack.run_slots(lambda board: board.device.spec.name)
        assert [r.status for r in results] == ["ok"] * 3
        assert [r.slot for r in results] == [0, 1, 2]
        assert all(r.ok and r.attempts == 1 and r.error is None for r in results)

    def test_transient_failure_is_retried(self):
        rack = _rack(2)
        seen = set()

        def flaky_once(board):
            if board not in seen:
                seen.add(board)
                raise DebugPortError("blip")
            return "fine"

        results = rack.run_slots(flaky_once)
        assert [r.status for r in results] == ["retried", "retried"]
        assert all(r.ok and r.value == "fine" and r.attempts == 2 for r in results)

    def test_persistent_failure_is_partial_not_fatal(self):
        rack = _rack(3)

        def bad_middle(board):
            if board is rack.boards[1]:
                raise DebugPortError("dead slot")
            return "fine"

        with telemetry.trace("t", force=True) as span:
            results = rack.run_slots(bad_middle)
            assert span.counters["slots.failed"] == 1
            assert span.counters["retry.attempts"] > 0
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        failed = results[1]
        assert not failed.ok
        assert failed.attempts == rack.retry.max_attempts
        assert failed.error is not None

    def test_non_retryable_failure_burns_one_attempt(self):
        rack = _rack(1)

        def broken(board):
            raise CapacityError("wrong size")

        result = rack.run_slots(broken)[0]
        assert result.status == "failed"
        assert result.attempts == 1
        assert isinstance(result.error, CapacityError)


class TestQuarantine:
    def test_consecutive_failures_quarantine_the_slot(self):
        rack = _rack(2, quarantine_after=2, retry=RetryPolicy.none())

        def bad_zero(board):
            if board is rack.boards[0]:
                raise DebugPortError("dying")
            return "fine"

        with telemetry.trace("t", force=True) as span:
            rack.run_slots(bad_zero)
            rack.run_slots(bad_zero)  # second strike -> quarantine
            assert span.counters["slots.quarantined"] == 1
        assert rack.health.is_quarantined(0)

        # Quarantined slots are skipped outright; healthy ones still run.
        results = rack.run_slots(lambda board: "fine")
        assert results[0].status == "quarantined"
        assert results[0].attempts == 0
        assert isinstance(results[0].error, QuarantinedDeviceError)
        assert results[1].status == "ok"

    def test_release_returns_slot_to_service(self):
        rack = _rack(1, quarantine_after=1, retry=RetryPolicy.none())
        rack.run_slots(lambda board: (_ for _ in ()).throw(DebugPortError("x")))
        assert rack.health.is_quarantined(0)
        rack.health.release(0)
        assert rack.run_slots(lambda board: "back")[0].status == "ok"


class TestResilientTrayOps:
    def test_resilient_measure_returns_partial_results(self):
        rack = _rack(2, quarantine_after=1)
        payloads = [
            np.random.default_rng(i).integers(
                0, 2, board.device.sram.n_bits
            ).astype(np.uint8)
            for i, board in enumerate(rack.boards)
        ]
        rack.stage_payloads(payloads, use_firmware=False)
        rack.stress_all(stress_hours=12)
        rack.health.record_failure(1)  # slot 1 went dark -> quarantined
        results = rack.measure_errors(payloads, resilient=True)
        assert results[0].ok and results[0].value < 0.5
        assert results[1].status == "quarantined"

    def test_stress_all_skip_unpowered(self):
        rack = _rack(2)
        payloads = [
            np.zeros(board.device.sram.n_bits, dtype=np.uint8)
            for board in rack.boards
        ]
        rack.stage_payloads(payloads, use_firmware=False)
        rack.boards[1].power_off()  # slot 1 dropped off the tray
        with pytest.raises(Exception):
            rack.stress_all(stress_hours=12)
        rack.stress_all(stress_hours=12, skip_unpowered=True)
        assert not rack.boards[0].device.powered


class TestFleetPartialResults:
    def test_encode_fleet_drops_failed_candidates(self):
        plan = FaultPlan(seed=6, models=(FlakyDebugPort(rate=0.25),))
        selection = encode_fleet(
            n_devices=3, sram_kib=0.25, rng=5,
            fault_plan=plan, retry=RetryPolicy.none(),
        )
        assert selection.survivors == 2
        assert [f.slot for f in selection.failures] == [2]
        assert all(isinstance(f, SlotError) for f in selection.failures)
        assert selection.winner.measured_error <= selection.errors[-1]

    def test_encode_fleet_raises_when_no_survivors(self):
        plan = FaultPlan(seed=0, models=(FlakyDebugPort(rate=0.25),))
        with pytest.raises(SlotError):
            encode_fleet(
                n_devices=3, sram_kib=0.25, rng=5,
                fault_plan=plan, retry=RetryPolicy.none(),
            )

    def test_encode_fleet_healthy_path_reports_no_failures(self):
        selection = encode_fleet(n_devices=2, sram_kib=0.25, rng=5)
        assert selection.failures == ()
        assert selection.survivors == 2


def test_slot_result_ok_property():
    assert SlotResult(slot=0, status="ok").ok
    assert SlotResult(slot=0, status="retried").ok
    assert not SlotResult(slot=0, status="failed").ok
    assert not SlotResult(slot=0, status="quarantined").ok
