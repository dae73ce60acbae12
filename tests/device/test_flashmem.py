"""Unit tests for on-chip Flash semantics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeviceError, EmulatorError
from repro.device.flashmem import OnChipFlash


@pytest.fixture
def flash():
    return OnChipFlash(0, 16 * 1024, block_size=4096, endurance_cycles=5)


def test_erased_state_reads_ones(flash):
    assert flash.load_word(0) == 0xFFFF_FFFF


def test_program_clears_bits(flash):
    flash.erase_block(0)
    flash.program(b"\x0F\x00\xFF\xAA")
    assert flash.dump(0, 4) == b"\x0F\x00\xFF\xAA"


def test_programming_ones_over_zeros_rejected(flash):
    flash.erase_block(0)
    flash.program(b"\x00")
    with pytest.raises(DeviceError):
        flash.program(b"\x01")


def test_erase_restores_block(flash):
    flash.erase_block(0)
    flash.program(b"\x00" * 16)
    flash.erase_block(0)
    assert flash.dump(0, 16) == b"\xff" * 16


def test_endurance_limit(flash):
    for _ in range(5):
        flash.erase_block(1)
    with pytest.raises(DeviceError):
        flash.erase_block(1)


def test_load_firmware_spans_blocks(flash):
    image = bytes(range(256)) * 20  # 5120 bytes -> 2 blocks
    flash.load_firmware(image)
    assert flash.dump(0, len(image)) == image
    assert flash.erase_counts[0] == 1
    assert flash.erase_counts[1] == 1
    assert flash.erase_counts[2] == 0


def test_cpu_store_faults(flash):
    with pytest.raises(EmulatorError):
        flash.store_word(0, 0)


def test_validation(flash):
    with pytest.raises(ConfigurationError):
        OnChipFlash(0, 1000, block_size=300)
    with pytest.raises(ConfigurationError):
        flash.erase_block(99)
    with pytest.raises(ConfigurationError):
        flash.program(b"\x00" * 99999)
    with pytest.raises(ConfigurationError):
        flash.dump(0, 99999)


def test_unprogrammed_blocks_are_not_stored(flash):
    flash.load_firmware(b"\x00\x01\x02\x03")
    assert sorted(flash._blocks) == [0]
    flash.program(b"\xff" * 8, 4096)  # all-ones writes clear nothing
    assert sorted(flash._blocks) == [0]
    flash.erase_block(0)
    assert flash._blocks == {}
    assert flash.dump() == b"\xff" * flash.size


def test_program_straddling_blocks(flash):
    image = bytes(range(1, 21))
    flash.program(image, 4090)  # 6 bytes in block 0, 14 in block 1
    assert flash.dump(4090, 20) == image
    assert sorted(flash._blocks) == [0, 1]
    assert flash.dump(0, 4090) == b"\xff" * 4090
    # An all-ones tail in a block allocates nothing there.
    flash.program(b"\x00" * 4 + b"\xff" * 8, 3 * 4096 - 4)
    assert sorted(flash._blocks) == [0, 1, 2]
    assert flash.dump(3 * 4096 - 4, 12) == b"\x00" * 4 + b"\xff" * 8


def test_reprogramming_a_programmed_block_clears_more_bits(flash):
    flash.program(b"\x0f\xf0\xff\xaa", 8)
    flash.program(b"\x0f\xf0\xff\xaa", 8)  # same bytes: a no-op
    flash.program(b"\x0e\x00\x7f\x22", 8)  # only clears bits
    assert flash.dump(8, 4) == b"\x0e\x00\x7f\x22"
    assert sorted(flash._blocks) == [0]


@pytest.mark.parametrize("start", [8, 4090])
def test_set_bit_violation_names_the_first_failing_offset(flash, start):
    flash.program(b"\x00", start + 9)  # a cleared byte the image sets bits in
    image = bytes([0x5A] * 9) + b"\x01" + bytes([0x11] * 6)
    with pytest.raises(DeviceError, match=f"offset {start + 9:#x} "):
        flash.program(image, start)
    # The bytes before the failing one stay programmed; the rest do not.
    assert flash.dump(start, 16) == bytes([0x5A] * 9) + b"\x00" + b"\xff" * 6


class _DenseFlash:
    """Reference model: the whole part as one ``bytearray`` (base 0),
    raising the same errors with the same messages."""

    name = "flash"

    def __init__(self, size, block_size, endurance_cycles):
        self.size = size
        self.block_size = block_size
        self.endurance_cycles = endurance_cycles
        self.bytes = bytearray(b"\xff" * size)
        self.erase_counts = [0] * (size // block_size)

    def load_word(self, address):
        return int.from_bytes(self.bytes[address : address + 4], "little")

    def erase_block(self, block_index):
        if not 0 <= block_index < len(self.erase_counts):
            raise ConfigurationError(f"block {block_index} out of range")
        if self.erase_counts[block_index] >= self.endurance_cycles:
            raise DeviceError(
                f"{self.name}: block {block_index} exceeded endurance "
                f"({self.endurance_cycles} cycles)"
            )
        self.erase_counts[block_index] += 1
        start = block_index * self.block_size
        self.bytes[start : start + self.block_size] = b"\xff" * self.block_size

    def erase_all(self):
        for block in range(len(self.erase_counts)):
            self.erase_block(block)

    def program(self, image, offset=0):
        if offset < 0 or offset + len(image) > self.size:
            raise ConfigurationError(
                f"{self.name}: image of {len(image)} bytes at {offset:#x} "
                f"exceeds size {self.size:#x}"
            )
        for i, byte in enumerate(image):
            current = self.bytes[offset + i]
            if byte & ~current:
                raise DeviceError(
                    f"{self.name}: programming would set bits at offset "
                    f"{offset + i:#x} (erase first)"
                )
            self.bytes[offset + i] = current & byte

    def load_firmware(self, image):
        for block in range(-(-len(image) // self.block_size)):
            self.erase_block(block)
        self.program(image, 0)

    def dump(self, offset=0, count=None):
        count = self.size - offset if count is None else count
        if offset < 0 or count < 0 or offset + count > self.size:
            raise ConfigurationError("dump range out of bounds")
        return bytes(self.bytes[offset : offset + count])


def _random_op(rng, ref):
    """One random programmer/bus call, as ``(method name, args)``."""
    size, n_blocks = ref.size, len(ref.erase_counts)
    kind = rng.choice(
        ["erase_block", "program", "load_firmware", "load_word", "dump",
         "erase_all"],
        p=[0.22, 0.3, 0.08, 0.2, 0.18, 0.02],
    )
    if kind == "erase_block":
        return kind, (int(rng.integers(-1, n_blocks + 1)),)
    if kind in ("program", "load_firmware"):
        offset = 0 if kind == "load_firmware" else int(rng.integers(-2, size))
        length = int(rng.integers(0, 3 * ref.block_size))
        image = rng.integers(0, 256, length, dtype=np.uint8)
        if rng.random() < 0.7:  # mostly clear-only writes that succeed
            lo = max(offset, 0)
            current = np.frombuffer(
                bytes(ref.bytes[lo : lo + length]).ljust(length, b"\xff"),
                dtype=np.uint8,
            )
            image &= current
        return kind, (bytes(image),) if kind == "load_firmware" else (
            bytes(image), offset)
    if kind == "load_word":
        return kind, (4 * int(rng.integers(0, size // 4)),)
    if kind == "dump":
        if rng.random() < 0.1:
            return kind, ()
        offset = int(rng.integers(-1, size + 1))
        return kind, (offset, int(rng.integers(-1, size - max(offset, 0) + 2)))
    return kind, ()


@pytest.mark.parametrize(
    "size,block_size,seed",
    [(64, 16, 0), (64, 16, 1), (48, 12, 2), (24, 6, 3), (96, 32, 4)],
)
def test_sparse_matches_dense_reference(size, block_size, seed):
    """Seeded random call sequences: every result, error (type and
    message), dump and erase count of the block-sparse part equals the
    dense reference's (block sizes that are not a word multiple make words
    straddle blocks)."""
    rng = np.random.default_rng(seed)
    flash = OnChipFlash(0, size, block_size=block_size, endurance_cycles=6)
    ref = _DenseFlash(size, block_size, endurance_cycles=6)
    errors = set()
    for _ in range(600):
        kind, args = _random_op(rng, ref)
        outcomes = []
        for target in (flash, ref):
            try:
                outcomes.append(("ok", getattr(target, kind)(*args)))
            except (ConfigurationError, DeviceError) as exc:
                outcomes.append(("raised", type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (kind, args)
        if outcomes[0][0] == "raised":
            _, error_type, message = outcomes[0]
            errors.add((error_type, "endurance" in message, "set bits" in message))
        assert flash.erase_counts == ref.erase_counts
        assert flash.dump() == bytes(ref.bytes)
    # The sequences reached every error path: out of range, endurance and
    # program-over-zero.
    assert errors == {
        (ConfigurationError, False, False),
        (DeviceError, True, False),
        (DeviceError, False, True),
    }
