"""Message framing: bytes in, SRAM-sized payload bits out, and back.

The paper assumes the parties pre-share message length, ECC choice and key
(§4.1 footnote 3), so the *wire format* is trivial; a practical library
still wants self-describing frames.  Both modes exist:

- **framed** (default): a 32-bit big-endian message-byte-length header,
  protected by a fixed 15-copy bitwise repetition code, precedes the coded
  body.  The header is inside the encryption envelope, so framing leaks
  nothing.
- **raw**: no header; the receiver must know the message length.

Either way the full SRAM image is produced: coded bits first, the remainder
zero-filled (after encryption the fill is keystream — indistinguishable
from a fresh power-on state, which is the point of §6).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import telemetry
from ..bitutils import as_bit_array, bits_to_bytes, bytes_to_bits
from ..ecc.base import Code, IdentityCode
from ..ecc.repetition import RepetitionCode
from ..errors import (
    BlockLengthError,
    CapacityError,
    ConfigurationError,
    ExtractionError,
)


@functools.lru_cache(maxsize=None)
def _header_code(copies: int) -> RepetitionCode:
    """The header's bitwise repetition code, built once per copy count
    (codes are immutable after construction)."""
    return RepetitionCode(copies, layout="bitwise")


@dataclass(frozen=True)
class FrameFormat:
    """Framing parameters shared by both parties."""

    framed: bool = True
    header_copies: int = 15

    def __post_init__(self) -> None:
        if self.header_copies < 1 or self.header_copies % 2 == 0:
            raise ConfigurationError("header_copies must be positive odd")

    @property
    def header_bits(self) -> int:
        return 32 * self.header_copies if self.framed else 0

    def _header_code(self) -> RepetitionCode:
        return _header_code(self.header_copies)

    def encode_header(self, message_bytes_len: int) -> np.ndarray:
        if not 0 <= message_bytes_len < 2**32:
            raise ConfigurationError("message length does not fit the header")
        raw = bytes_to_bits(message_bytes_len.to_bytes(4, "big"))
        return self._header_code().encode(raw)

    def decode_header(self, bits: np.ndarray) -> int:
        raw = self._header_code().decode(bits)
        return int.from_bytes(bits_to_bytes(raw), "big")

    def decode_header_soft(self, llrs: np.ndarray) -> int:
        """Soft-combine the header's repetition copies (sum of LLRs)."""
        from ..ecc.soft import soft_decode

        raw = soft_decode(self._header_code(), llrs)
        return int.from_bytes(bits_to_bytes(raw), "big")


def _pad_to_multiple(bits: np.ndarray, k: int) -> np.ndarray:
    remainder = bits.size % k
    if remainder == 0:
        return bits
    return np.concatenate([bits, np.zeros(k - remainder, dtype=np.uint8)])


def build_payload(
    message: bytes,
    sram_bits: int,
    *,
    ecc: "Code | None" = None,
    frame: "FrameFormat | None" = None,
) -> np.ndarray:
    """Pre-process a message into the plain (pre-encryption) payload bits.

    Applies framing and ECC, then zero-fills to exactly ``sram_bits``.
    Raises :class:`CapacityError` when the coded message cannot fit.
    """
    if sram_bits <= 0 or sram_bits % 8:
        raise ConfigurationError("sram_bits must be a positive byte multiple")
    code = ecc or IdentityCode()
    frame = frame or FrameFormat()

    data_bits = _pad_to_multiple(bytes_to_bits(message), code.k)
    coded = code.encode(data_bits) if data_bits.size else np.zeros(0, dtype=np.uint8)
    header = (
        frame.encode_header(len(message)) if frame.framed else np.zeros(0, dtype=np.uint8)
    )
    used = header.size + coded.size
    if used > sram_bits:
        raise CapacityError(
            f"message of {len(message)} bytes needs {used} coded bits but the "
            f"SRAM holds {sram_bits} (code {code.name}, rate {code.rate:.3f})"
        )
    fill = np.zeros(sram_bits - used, dtype=np.uint8)
    return np.concatenate([header, coded, fill]).astype(np.uint8)


def _coded_bits(length: int, code: Code) -> int:
    """Code bits a ``length``-byte message occupies after padding to ``k``."""
    return -(-length * 8 // code.k) * code.n


def _overlong(length: int, body_bits: int) -> ExtractionError:
    return ExtractionError(
        f"header claims {length} bytes but only {body_bits} coded bits "
        "are present — header corrupted beyond repair?"
    )


def extract_messages(
    rows: np.ndarray,
    *,
    ecc: "Code | None" = None,
    frame: "FrameFormat | None" = None,
    message_lens: "Sequence[int | None] | None" = None,
) -> "tuple[list[bytes | ExtractionError], list[list[tuple[str, int]]]]":
    """Post-process a stack of recovered payloads, one per row.

    Returns ``(outcomes, counts)``: ``outcomes[i]`` is row ``i``'s message
    bytes, or the :class:`ExtractionError` that row raises in
    :func:`extract_message` (its neighbours still decode);
    ``counts[i]`` is row ``i``'s ``(counter, value)`` sequence, in the
    order :func:`extract_message` counts it.  Framed rows vote their
    headers together and decode in groups of equal length; raw rows use
    ``message_lens[i]``.
    """
    bits = np.asarray(rows, dtype=np.uint8)
    if bits.ndim != 2:
        raise ConfigurationError(
            f"expected (n_rows, n_bits) payloads, got {bits.shape}"
        )
    if bits.size and bits.max() > 1:
        raise BlockLengthError("bit array contains values other than 0/1")
    code = ecc or IdentityCode()
    frame = frame or FrameFormat()
    n_rows = bits.shape[0]
    outcomes: "list[bytes | ExtractionError]" = [b""] * n_rows
    counts: "list[list[tuple[str, int]]]" = [[] for _ in range(n_rows)]

    # Header and body widths are whole blocks by construction, and the
    # stack was range-checked above, so both decode unchecked.
    if frame.framed:
        if bits.shape[1] < frame.header_bits:
            short = [
                ExtractionError("payload shorter than the frame header")
                for _ in range(n_rows)
            ]
            return short, counts
        raw, header_counts = frame._header_code()._decode_rows(
            bits[:, : frame.header_bits]
        )
        for name, values in header_counts:
            for row_counts, value in zip(counts, values.tolist()):
                row_counts.append((name, value))
        lengths = np.packbits(raw, axis=1).view(">u4")[:, 0].tolist()
        body = bits[:, frame.header_bits :]
    else:
        lengths = list(message_lens) if message_lens is not None else [None] * n_rows
        if len(lengths) != n_rows:
            raise ConfigurationError(
                f"{len(lengths)} message lengths for {n_rows} payload rows"
            )
        body = bits

    by_length: "dict[int | None, list[int]]" = {}
    for index, length in enumerate(lengths):
        by_length.setdefault(length, []).append(index)
    for length, members in by_length.items():
        if length is None:
            for index in members:
                outcomes[index] = ExtractionError(
                    "raw mode needs the pre-shared message length"
                )
            continue
        coded_bits = _coded_bits(length, code)
        if coded_bits > body.shape[1]:
            for index in members:
                outcomes[index] = _overlong(length, body.shape[1])
            continue
        if not coded_bits:
            continue  # a zero-length message is b"", with no body decode
        group = slice(None) if len(members) == n_rows else members
        decoded, body_counts = code._decode_rows(body[group, :coded_bits])
        packed = np.packbits(decoded[:, : length * 8], axis=1)
        body_counts = [(name, values.tolist()) for name, values in body_counts]
        for slot, index in enumerate(members):
            outcomes[index] = packed[slot].tobytes()
            counts[index] += [(name, values[slot]) for name, values in body_counts]
    return outcomes, counts


def extract_message(
    payload_bits: np.ndarray,
    *,
    ecc: "Code | None" = None,
    frame: "FrameFormat | None" = None,
    message_len: "int | None" = None,
) -> bytes:
    """Post-process recovered payload bits back into message bytes.

    ``message_len`` overrides the header in raw mode (and is required
    there); in framed mode the header is authoritative.  The one-row case
    of :func:`extract_messages`: the row's ECC counters are counted on the
    active telemetry span, then its error (if any) is raised.
    """
    (outcome,), (counts,) = extract_messages(
        as_bit_array(payload_bits)[None, :],
        ecc=ecc,
        frame=frame,
        message_lens=[message_len],
    )
    if counts and telemetry.active():
        for name, value in counts:
            telemetry.count(name, value)
    if isinstance(outcome, ExtractionError):
        raise outcome
    return outcome


def extract_message_soft(
    payload_llrs: np.ndarray,
    *,
    ecc: "Code | None" = None,
    frame: "FrameFormat | None" = None,
    message_len: "int | None" = None,
) -> bytes:
    """Soft-decision twin of :func:`extract_message`.

    Takes per-bit log-likelihood ratios of the *plain* payload (positive
    favours 0 — the convention of :mod:`repro.ecc.soft`) instead of hard
    bits.  The frame geometry is identical: one LLR per payload bit, so
    header/body slicing works on the same offsets.
    """
    llrs = np.asarray(payload_llrs, dtype=np.float64).ravel()
    code = ecc or IdentityCode()
    frame = frame or FrameFormat()

    from ..ecc.soft import soft_decode

    if frame.framed:
        if llrs.size < frame.header_bits:
            raise ExtractionError("payload shorter than the frame header")
        length = frame.decode_header_soft(llrs[: frame.header_bits])
        body = llrs[frame.header_bits :]
    else:
        if message_len is None:
            raise ExtractionError("raw mode needs the pre-shared message length")
        length = message_len
        body = llrs

    coded_bits = _coded_bits(length, code)
    if coded_bits > body.size:
        raise _overlong(length, body.size)
    decoded = (
        soft_decode(code, body[:coded_bits])
        if coded_bits
        else np.zeros(0, dtype=np.uint8)
    )
    return bits_to_bytes(decoded[: length * 8]) if length else b""


def max_message_bytes(
    sram_bits: int, *, ecc: "Code | None" = None, frame: "FrameFormat | None" = None
) -> int:
    """Largest message (bytes) that fits — the §5.3 capacity arithmetic."""
    code = ecc or IdentityCode()
    frame = frame or FrameFormat()
    body_bits = sram_bits - frame.header_bits
    if body_bits <= 0:
        return 0
    data_bits = body_bits // code.n * code.k
    return data_bits // 8
