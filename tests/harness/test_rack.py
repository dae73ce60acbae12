"""Unit tests for the encoding rack (§5.3's parallel encoding)."""

import numpy as np
import pytest

from repro.core.batch import encode_fleet
from repro.device import make_device
from repro.errors import ConfigurationError
from repro.harness.rack import EncodingRack


@pytest.fixture
def rack():
    devices = [
        make_device("MSP432P401", rng=70 + i, sram_kib=1) for i in range(3)
    ]
    return EncodingRack(devices)


@pytest.fixture
def payloads(rack):
    rng = np.random.default_rng(5)
    return [
        rng.integers(0, 2, board.device.sram.n_bits).astype(np.uint8)
        for board in rack.boards
    ]


def test_shared_chamber(rack):
    assert len({id(board.chamber) for board in rack.boards}) == 1
    rack.chamber.set_temperature(60.0)
    for board in rack.boards:
        assert board.device.sram.temp_k == pytest.approx(333.15)
    rack.chamber.set_temperature(25.0)


def test_parallel_encode_matches_recipe_error(rack, payloads):
    rack.stage_payloads(payloads)
    rack.stress_all(stress_hours=10.0)
    errors = rack.measure_errors(payloads)
    assert len(errors) == 3
    for error in errors:
        assert error == pytest.approx(0.065, abs=0.02)


def test_constant_time_property(rack, payloads):
    """§5.3/abstract: one stress period encodes the whole tray — encoding
    time is independent of how many devices share the chamber."""
    rack.stage_payloads(payloads)
    rack.stress_all(stress_hours=4.0)
    errors = rack.measure_errors(payloads)
    spread = max(errors) - min(errors)
    assert spread < 0.05  # all slots saw the same stress


def test_stage_before_stress_enforced(rack):
    with pytest.raises(ConfigurationError):
        rack.stress_all(stress_hours=1.0)


def test_payload_count_validated(rack, payloads):
    with pytest.raises(ConfigurationError):
        rack.stage_payloads(payloads[:-1])
    rack.stage_payloads(payloads)
    rack.stress_all(stress_hours=2.0)
    with pytest.raises(ConfigurationError):
        rack.measure_errors(payloads[:-1])


@pytest.mark.parametrize("n_items", [2, 4])
def test_run_slots_item_count_validated(rack, n_items):
    """A short or long ``items`` list must be rejected before any slot
    runs, not silently zipped down to the shorter length."""
    called = []
    with pytest.raises(ConfigurationError):
        rack.run_slots(
            lambda board, item: called.append(item), list(range(n_items))
        )
    assert called == []


def test_empty_rack_rejected():
    with pytest.raises(ConfigurationError):
        EncodingRack([])


@pytest.mark.parametrize("n_voltages", [2, 4])
def test_vdd_per_board_length_validated_before_heating(
    rack, payloads, n_voltages
):
    """An undersized or oversized ``vdd_per_board`` must be rejected as a
    ConfigurationError *before* the chamber is set to the stress
    temperature (the regression was a raw IndexError with the tray
    already at 85 C)."""
    rack.stage_payloads(payloads)
    setpoint = rack.chamber.setpoint_k
    with pytest.raises(ConfigurationError):
        rack.stress_all(stress_hours=1.0, vdd_per_board=[3.0] * n_voltages)
    assert rack.chamber.setpoint_k == setpoint  # chamber untouched


def test_stress_advance_touches_live_slots_only(rack, payloads):
    """With ``skip_unpowered=True`` the time-advance fan-out must call
    only the powered slots — dead slots used to be mapped and silently
    no-opped through an O(n^2) membership scan."""
    rack.stage_payloads(payloads)
    rack.boards[1].power_off()
    advanced = []
    for index, board in enumerate(rack.boards):
        original = board.device.advance

        def advance(seconds, *, _index=index, _original=original):
            advanced.append(_index)
            return _original(seconds)

        board.device.advance = advance
    rack.stress_all(stress_hours=1.0, skip_unpowered=True)
    assert sorted(advanced) == [0, 2]


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda: EncodingRack(
            [make_device("MSP432P401", rng=70, sram_kib=1)], max_workers=1
        ),
        lambda: encode_fleet(n_devices=1, sram_kib=0.25, max_workers=2),
    ],
    ids=["EncodingRack", "encode_fleet"],
)
def test_max_workers_is_not_an_option(entry_point):
    """Tray slots and fleet candidates always run serially, so neither
    entry point takes a worker count."""
    with pytest.raises(TypeError, match="max_workers"):
        entry_point()
