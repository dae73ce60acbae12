"""Per-device memory of a service fleet.

A resident device should hold its physics (mismatch, four NBTI clock
arrays), the capture cache and one Flash block, not a dense Flash image or
a second copy of the offsets vector.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.core.scheme import paper_end_to_end_scheme
from repro.service.shards import FleetHost

#: Ceiling on traced KiB per resident 0.25 KiB device after a send and a
#: receive.  ~97 KiB today: NBTI 64, mismatch 16, one 4 KiB Flash block,
#: the capture cache and the staged payload bits.
MAX_KIB_PER_DEVICE = 110


def _host() -> FleetHost:
    return FleetHost(
        scheme=paper_end_to_end_scheme(copies=7, n_captures=5), seed=3
    )


def _send_receive(host: FleetHost, device_id: str) -> None:
    channel = host.channel(device_id)
    sent = channel.send(b"8 bytes!", stress_hours=24)
    host.store_payload(device_id, sent.payload_bits)
    assert channel.receive().message == b"8 bytes!"


def test_resident_device_memory_after_send_and_receive():
    host = _host()
    # Warm up: first-use imports, assembled firmware and scheme caches are
    # shared by the fleet, not per device.
    for i in range(4):
        _send_receive(host, f"warm-{i}")
    gc.collect()
    n_devices = 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(n_devices):
            _send_receive(host, f"dev-{i}")
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert host.n_resident == 4 + n_devices
    kib_per_device = grown / n_devices / 1024
    assert kib_per_device <= MAX_KIB_PER_DEVICE, kib_per_device


def test_offsets_after_capture_match_the_physics_bit_for_bit():
    host = _host()
    _send_receive(host, "dev-a")
    sram = host.channel("dev-a").board.device.sram
    nbti = sram._nbti
    expected = (
        sram.mismatch
        + nbti.dvth(sram.age_when_0.copy())
        - nbti.dvth(sram.age_when_1.copy())
    )
    assert np.array_equal(sram.offsets(), expected)
    # Outside the noise band the capture cache's decisions agree with the
    # on-demand vector.
    cache = sram._capture_cache
    assert cache is not None
    out_of_band = np.ones(sram.n_bits, dtype=bool)
    out_of_band[cache["band"]] = False
    assert np.array_equal(
        cache["decision_base"][out_of_band], (expected > 0.0)[out_of_band]
    )
