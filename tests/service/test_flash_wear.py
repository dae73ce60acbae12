"""A receive does not wear the device's Flash.

Every receive loads the retention program before its captures.  Loading
the program the device already holds, with no Flash write since, erases
and programs nothing, so a resident device's erase counts stop growing
after its first receive; before, each receive spent an endurance cycle
of Flash block 0 and a device failed every receive from about its
10 000th on.
"""

from __future__ import annotations

import pytest

from repro.api import ReceiveRequest, SendRequest
from repro.core.fleetcapture import capture_fleet
from repro.isa.programs import camouflage_program, retention_program
from repro.service import FleetHost, ServiceConfig, Shard
from repro.service.queue import Job


def _sent(camouflage: bool = True):
    shard = Shard("lane", FleetHost(scheme=ServiceConfig().resolved_scheme(), seed=3))
    request = SendRequest(device_id="d", message=b"hello", camouflage=camouflage)
    shard.execute_batch([Job("send", request, None)])
    return shard, shard.host.channel("d").board.device


def _receive(shard: Shard, n: int = 1) -> list:
    outcomes = []
    for _ in range(n):
        (_, outcome), = shard.execute_batch(
            [Job("receive", ReceiveRequest(device_id="d"), None)]
        )[0]
        outcomes.append(outcome)
    return outcomes


def test_receives_leave_the_erase_counts_where_the_send_left_them():
    shard, device = _sent(camouflage=False)
    sent = list(device.flash.erase_counts)
    assert all(o.message == b"hello" for o in _receive(shard, 25))
    assert device.flash.erase_counts == sent


def test_a_receive_after_the_camouflage_program_reflashes_once():
    shard, device = _sent()
    camouflaged = list(device.flash.erase_counts)
    _receive(shard)
    assert device.flash.erase_counts[0] == camouflaged[0] + 1
    assert device.firmware.image == device.flash.dump(0, len(device.firmware.image))
    first = list(device.flash.erase_counts)
    assert all(o.message == b"hello" for o in _receive(shard, 25))
    assert device.flash.erase_counts == first
    # Another program in between: the next receive flashes once more.
    shard.host.channel("d").board.load_camouflage()
    _receive(shard, 3)
    assert device.flash.erase_counts[0] == first[0] + 2


def test_receives_outlast_the_flash_endurance():
    """Block 0 at its endurance limit: every receive still succeeds (the
    retention program is already resident), as long as nothing else
    needs to flash it."""
    shard, device = _sent()
    _receive(shard)
    device.flash.endurance_cycles = device.flash.erase_counts[0]
    assert all(o.message == b"hello" for o in _receive(shard, 40))


@pytest.mark.parametrize("kernel", [True, False])
def test_the_capture_loop_and_the_fleet_kernel_share_the_rule(kernel):
    """``capture_fleet`` (kernel slot) and the per-capture board loop
    (fallback slot) load the retention program through the same rule."""
    shard, device = _sent()
    board = shard.host.channel("d").board
    for _ in range(2):
        if kernel:
            capture_fleet([board], 5)
        else:
            board.capture_power_on_states(5)
    counts = list(device.flash.erase_counts)
    for _ in range(5):
        if kernel:
            capture_fleet([board], 5)
        else:
            board.capture_power_on_states(5)
    assert device.flash.erase_counts == counts
    device.load_firmware(camouflage_program(words=16))
    device.load_firmware(retention_program())
    assert device.flash.erase_counts[0] == counts[0] + 2
