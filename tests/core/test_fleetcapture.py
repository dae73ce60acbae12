"""The fleet-vectorized capture kernel (repro.core.fleetcapture).

Bit-identity of the stacked kernel against the per-device capture loop
is the `fleet.capture_vs_device_loop` verify oracle's job; these tests
pin the kernel's edge cases and plumbing: tiny and heterogeneous
fleets, empty noise bands, fallback slots, resilient failure capture,
and input validation.
"""

import numpy as np
import pytest

from repro.bitutils import bit_error_rate, invert_bits, majority_vote
from repro.core.fleetcapture import capture_fleet
from repro.device import make_device
from repro.errors import ConfigurationError, SlotError
from repro.harness.controlboard import ControlBoard
from repro.harness.rack import EncodingRack


@pytest.fixture(autouse=True)
def _no_ambient_fault_plan(monkeypatch):
    """These tests pin which slots vectorize; an ambient chaos plan
    (the CI fault-smoke job's ``REPRO_FAULT_PLAN``) wires an injector
    into every board and legitimately routes all slots to the loop, so
    it is stripped here.  Injector behaviour is tested explicitly below
    with boards that construct their own."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


def _tray(seeds, kib=0.25, stress_hours=4.0):
    """A staged-and-stressed tray; heterogeneous ``kib`` is allowed."""
    if not isinstance(kib, (list, tuple)):
        kib = [kib] * len(seeds)
    devices = [
        make_device("MSP432P401", rng=seed, sram_kib=k)
        for seed, k in zip(seeds, kib)
    ]
    rack = EncodingRack(devices)
    rng = np.random.default_rng(11)
    payloads = [
        rng.integers(0, 2, board.device.sram.n_bits).astype(np.uint8)
        for board in rack.boards
    ]
    rack.stage_payloads(payloads)
    rack.stress_all(stress_hours=stress_hours)
    return rack, payloads


def _loop_measure(board, payload, n_captures):
    stack = board.capture_power_on_states(n_captures)
    vote = majority_vote(stack)
    return stack, vote, bit_error_rate(payload, invert_bits(vote))


def test_single_device_fleet_matches_loop():
    rack_a, payloads = _tray([30])
    rack_b, _ = _tray([30])
    fleet = capture_fleet(
        rack_a.boards, 3, payloads=payloads, return_frames=True
    )
    stack, vote, error = _loop_measure(rack_b.boards[0], payloads[0], 3)
    assert fleet.vectorized == (True,)
    assert np.array_equal(fleet.frames[0], stack)
    assert np.array_equal(fleet.states[0], vote)
    assert np.array_equal(fleet.ones[0], stack.sum(axis=0))
    assert fleet.errors[0] == error


def test_heterogeneous_sram_sizes_stack_raggedly():
    rack_a, payloads = _tray([31, 32, 33], kib=[0.25, 0.5, 0.25])
    rack_b, _ = _tray([31, 32, 33], kib=[0.25, 0.5, 0.25])
    fleet = capture_fleet(rack_a.boards, 3, payloads=payloads)
    assert fleet.vectorized == (True, True, True)
    for index, board in enumerate(rack_b.boards):
        _, vote, error = _loop_measure(board, payloads[index], 3)
        assert np.array_equal(fleet.states[index], vote)
        assert fleet.errors[index] == error


@pytest.mark.parametrize(
    "args",
    [(7, 16, 5, 0.25, 24.0), (8, 6, 3, "mixed", 2.0), (9, 1, 5, 0.5, 24.0)],
    ids=["service-group-16x0.25KiB-24h", "mixed-tray", "one-slot"],
)
def test_capture_oracle_on_stacked_trays(args):
    """The verify oracle's contract on the trays the stacked pass exists
    for, pinned here so every run covers them (the oracle itself samples
    tray shapes at random)."""
    from repro.verify.oracles import fleet_capture_vs_device_loop

    fleet_capture_vs_device_loop(*args)


def test_band_budget_splits_chunks_without_changing_results(monkeypatch):
    """Any chunking of a tray gives the same bits: each slot draws its
    own noise, so a budget that forces one slot per chunk agrees with
    one chunk for the whole tray."""
    from repro.core import fleetcapture

    results = []
    for budget in (1, fleetcapture.STACK_BAND_CELLS):
        monkeypatch.setattr(fleetcapture, "STACK_BAND_CELLS", budget)
        rack, payloads = _tray(list(range(50, 58)), kib=[0.25, 0.5] * 4)
        results.append(
            capture_fleet(rack.boards, 3, payloads=payloads, return_frames=True)
        )
    one_by_one, stacked = results
    assert one_by_one.errors == stacked.errors
    for a, b in zip(one_by_one.frames, stacked.frames):
        assert np.array_equal(a, b)


def test_stacked_results_are_views_of_disjoint_slices():
    rack, payloads = _tray([60, 61, 62], kib=[0.25, 0.5, 0.25])
    fleet = capture_fleet(rack.boards, 3, payloads=payloads)
    for state, ones, board in zip(fleet.states, fleet.ones, rack.boards):
        assert state.shape == ones.shape == (board.device.sram.n_bits,)
    fleet.states[0][:] = 7  # a consumer writing its row touches no other
    assert fleet.states[1].max() <= 1 and fleet.states[2].max() <= 1


def test_empty_noise_band_slot_is_deterministic():
    """A slot whose band is empty consumes zero noise columns and returns
    the cached deterministic decisions, without perturbing its neighbours'
    RNG streams."""
    rack_a, payloads = _tray([34, 35])
    rack_b, _ = _tray([34, 35])
    for rack in (rack_a, rack_b):
        rack.boards[0].device.sram.NOISE_TAIL_SIGMA = 0.0
    fleet = capture_fleet(
        rack_a.boards, 3, payloads=payloads, return_frames=True
    )
    assert fleet.vectorized == (True, True)
    # Deterministic slot: every capture is the cached decision base.
    assert np.array_equal(fleet.frames[0][0], fleet.frames[0][1])
    for index, board in enumerate(rack_b.boards):
        stack, vote, error = _loop_measure(board, payloads[index], 3)
        assert np.array_equal(fleet.frames[index], stack)
        assert np.array_equal(fleet.ones[index], stack.sum(axis=0))
        assert fleet.errors[index] == error


def test_fault_injector_slot_falls_back_to_loop():
    from repro.faults import FaultInjector, FaultPlan

    rack_a, payloads = _tray([36, 37])
    rack_b, _ = _tray([36, 37])
    # Benign plan (no models): triggers the fallback path, changes nothing.
    rack_a.boards[1].fault_injector = FaultInjector(FaultPlan(seed=1))
    fleet = capture_fleet(rack_a.boards, 3, payloads=payloads)
    assert fleet.vectorized == (True, False)
    for index, board in enumerate(rack_b.boards):
        stack, vote, error = _loop_measure(board, payloads[index], 3)
        assert np.array_equal(fleet.states[index], vote)
        assert np.array_equal(fleet.ones[index], stack.sum(axis=0))
        assert fleet.errors[index] == error


def test_resilient_records_failures_without_raising():
    rack, payloads = _tray([38, 39])

    def broken(*args, **kwargs):
        raise RuntimeError("slot died")

    rack.boards[0].device.load_firmware = broken
    fleet = capture_fleet(rack.boards, 3, payloads=payloads, resilient=True)
    assert isinstance(fleet.slot_errors[0], RuntimeError)
    assert fleet.states[0] is None and fleet.errors[0] is None
    assert fleet.slot_errors[1] is None
    assert fleet.errors[1] is not None


def test_strict_mode_raises_sloterror_naming_the_slot():
    rack, payloads = _tray([40, 41])

    def broken(*args, **kwargs):
        raise RuntimeError("slot died")

    rack.boards[1].device.load_firmware = broken
    with pytest.raises(SlotError) as excinfo:
        capture_fleet(rack.boards, 3, payloads=payloads)
    assert excinfo.value.slot == 1
    assert "RuntimeError" in str(excinfo.value)


def test_input_validation():
    board = ControlBoard(make_device("MSP432P401", rng=42, sram_kib=0.25))
    with pytest.raises(ConfigurationError):
        capture_fleet([board], 0)
    with pytest.raises(ConfigurationError):
        capture_fleet([board], 4)  # even: majority could tie
    with pytest.raises(ConfigurationError):
        capture_fleet([board], True)
    with pytest.raises(ConfigurationError):
        capture_fleet([board], 3, payloads=[])


def test_quarantined_slot_skipped_mid_tray():
    """Resilient rack measurement skips a quarantined middle slot and
    still measures its neighbours through the kernel."""
    rack, payloads = _tray([43, 44, 45])
    for _ in range(rack.health.quarantine_after):
        rack.health.record_failure(1)
    results = rack.measure_errors(payloads, n_captures=3, resilient=True)
    assert [r.status for r in results] == ["ok", "quarantined", "ok"]
    assert results[1].attempts == 0
    twin, _ = _tray([43, 44, 45])
    _, _, error = _loop_measure(twin.boards[0], payloads[0], 3)
    assert results[0].value == error
