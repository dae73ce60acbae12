"""On-chip Flash memory.

Firmware executes from Flash (the paper's programs run "from non-volatile
memory on the device, i.e., not the SRAM", §4.2).  The model keeps real
Flash semantics — erase-to-ones blocks, program can only clear bits, finite
endurance — because the Flash-based steganography baselines
(:mod:`repro.flashsteg`) and the camouflage-reload flow both exercise them.

Storage is block-sparse: only blocks holding a cleared bit are stored, as
one ``bytearray`` per block index, and every other block reads all-ones.
Erasing a block drops its bytes (the endurance count still advances), and
programming allocates a block at the first byte that clears a bit.  A
device whose 64 KiB of Flash carries a few-word program so holds one
block, not the whole part.

Every erase and program call advances :attr:`OnChipFlash.writes`, so a
programmer can tell whether the part still holds what it last wrote
(:meth:`repro.device.device.Device.load_firmware` skips re-flashing an
image that is already resident).
"""

from __future__ import annotations

from ..errors import ConfigurationError, DeviceError, EmulatorError
from ..isa.memory import MemoryRegion
from ..isa.opcodes import WORD_BYTES

_ERASED_WORD = int.from_bytes(b"\xff" * WORD_BYTES, "little")


class OnChipFlash(MemoryRegion):
    """NOR-style code Flash on the CPU bus.

    CPU loads read it; CPU stores fault (programming goes through the
    debugger/controller path, as on real parts).
    """

    def __init__(
        self,
        base: int,
        size: int,
        *,
        block_size: int = 4096,
        endurance_cycles: int = 10_000,
        name: str = "flash",
    ):
        super().__init__(base, size, name)
        if block_size <= 0 or size % block_size:
            raise ConfigurationError(
                f"{name}: size {size:#x} is not a multiple of block {block_size:#x}"
            )
        self.block_size = block_size
        self.endurance_cycles = endurance_cycles
        #: Block index -> its bytes, for blocks programmed since their last
        #: erase; absent blocks read all-ones.
        self._blocks: dict[int, bytearray] = {}
        self.erase_counts = [0] * (size // block_size)
        #: Erase and program calls so far: equal values mean no write in
        #: between.
        self.writes = 0

    def _read(self, offset: int, count: int) -> bytes:
        """``count`` bytes from ``offset``, erased blocks reading ``0xff``."""
        out = bytearray(b"\xff" * count)
        end = offset + count
        bs = self.block_size
        for block in range(offset // bs, -(-end // bs)):
            stored = self._blocks.get(block)
            if stored is None:
                continue
            lo = max(offset, block * bs)
            hi = min(end, (block + 1) * bs)
            out[lo - offset : hi - offset] = stored[lo - block * bs : hi - block * bs]
        return bytes(out)

    # -- CPU bus ---------------------------------------------------------------

    def load_word(self, address: int) -> int:
        offset = address - self.base
        block, start = divmod(offset, self.block_size)
        if start + WORD_BYTES > self.block_size:  # word straddles two blocks
            return int.from_bytes(self._read(offset, WORD_BYTES), "little")
        stored = self._blocks.get(block)
        if stored is None:
            return _ERASED_WORD
        return int.from_bytes(stored[start : start + WORD_BYTES], "little")

    def store_word(self, address: int, value: int) -> None:
        raise EmulatorError(
            f"CPU store to Flash at {address:#010x}; use the debugger to program"
        )

    # -- programmer path -----------------------------------------------------------

    def erase_block(self, block_index: int) -> None:
        """Erase one block to all-ones, consuming an endurance cycle."""
        if not 0 <= block_index < len(self.erase_counts):
            raise ConfigurationError(f"block {block_index} out of range")
        if self.erase_counts[block_index] >= self.endurance_cycles:
            raise DeviceError(
                f"{self.name}: block {block_index} exceeded endurance "
                f"({self.endurance_cycles} cycles)"
            )
        self.erase_counts[block_index] += 1
        self.writes += 1
        self._blocks.pop(block_index, None)

    def erase_all(self) -> None:
        """Mass erase."""
        for block in range(len(self.erase_counts)):
            self.erase_block(block)

    def program(self, image: bytes, offset: int = 0) -> None:
        """Program bytes: Flash programming can only clear bits (1 -> 0).

        Callers must erase first; programming a 1 over a 0 raises, exactly
        like a real part's verify step failing.  Bytes before the failing
        one stay programmed.  Works a block at a time: each spanned
        block's segment is checked against its current bytes in one
        big-integer test and copied in; a segment that changes nothing
        (all-ones over an erased block) allocates no block.
        """
        if offset < 0 or offset + len(image) > self.size:
            raise ConfigurationError(
                f"{self.name}: image of {len(image)} bytes at {offset:#x} "
                f"exceeds size {self.size:#x}"
            )
        image = bytes(image)
        self.writes += 1
        bs = self.block_size
        end = offset + len(image)
        position = offset
        while position < end:
            block, start = divmod(position, bs)
            count = min(end - position, bs - start)
            segment = image[position - offset : position - offset + count]
            stored = self._blocks.get(block)
            current = (
                b"\xff" * count if stored is None else stored[start : start + count]
            )
            # Bits the segment sets over a cleared bit; the highest set
            # bit of the big-endian value is the first failing byte.
            violation = int.from_bytes(segment, "big") & ~int.from_bytes(
                current, "big"
            )
            if violation:
                count = count - 1 - (violation.bit_length() - 1) // 8
                segment = segment[:count]
                current = current[:count]
            if segment != current:
                if stored is None:
                    stored = self._blocks[block] = bytearray(b"\xff" * bs)
                stored[start : start + count] = segment
            if violation:
                raise DeviceError(
                    f"{self.name}: programming would set bits at offset "
                    f"{position + count:#x} (erase first)"
                )
            position += count

    def load_firmware(self, image: bytes) -> None:
        """Erase the blocks an image spans, then program it at offset 0."""
        n_blocks = -(-len(image) // self.block_size)
        for block in range(n_blocks):
            self.erase_block(block)
        self.program(image, 0)

    def dump(self, offset: int = 0, count: "int | None" = None) -> bytes:
        """Debugger read-out."""
        count = self.size - offset if count is None else count
        if offset < 0 or count < 0 or offset + count > self.size:
            raise ConfigurationError("dump range out of bounds")
        return self._read(offset, count)
