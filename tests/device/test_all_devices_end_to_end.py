"""Every Table 1 device carries a message end to end at its recipe.

The evaluation benches exercise the four fully characterised devices; this
test closes the loop on the other eight: plan an ECC from the device's
recipe error, send a message, get it back.
"""

import pytest

from repro.core.channel import ChannelModel
from repro.core.message import max_message_bytes
from repro.core.pipeline import InvisibleBits
from repro.core.scheme import CodingScheme
from repro.core.planner import plan_scheme
from repro.device import make_device
from repro.device.catalog import all_device_specs
from repro.harness import ControlBoard

KEY = b"all-devices-16by"


@pytest.mark.parametrize(
    "name", [spec.name for spec in all_device_specs()]
)
def test_device_round_trip_at_recipe(name):
    from repro.device.catalog import device_spec

    import zlib

    kib = min(1.0, device_spec(name).sram_kib)
    # zlib.crc32, not hash(): str hashes are salted per process and would
    # make the test seeds non-deterministic across runs.
    device = make_device(name, rng=zlib.crc32(name.encode()), sram_kib=kib)
    board = ControlBoard(device)
    error = ChannelModel(device.spec).recipe_error()
    scheme = plan_scheme(error, 1e-5)
    # High-error channels (the cache-class BCM2837 at ~21%) need a stronger
    # frame header too: the 15-copy default starts failing above ~15%.
    from repro.core.message import FrameFormat

    frame = FrameFormat(header_copies=15 if error < 0.15 else 41)
    channel = InvisibleBits(
        board,
        scheme=CodingScheme(key=KEY, ecc=scheme, frame=frame),
        use_firmware=False,
    )

    budget = max_message_bytes(device.sram.n_bits, ecc=scheme, frame=frame)
    message = b"per-device proof " * 4
    message = message[: min(len(message), budget)]
    assert message, f"{name}: scheme leaves no capacity in a 1 KiB slice"

    channel.send(message)
    assert channel.receive().message == message, name
