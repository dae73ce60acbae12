"""Unit tests for message framing."""

import numpy as np
import pytest

from repro.core.message import (
    FrameFormat,
    build_payload,
    extract_message,
    extract_messages,
    max_message_bytes,
)
from repro.ecc import RepetitionCode, hamming_7_4
from repro.ecc.product import paper_end_to_end_code
from repro.errors import CapacityError, ConfigurationError, ExtractionError

SRAM_BITS = 16 * 1024


class TestFramedRoundTrip:
    @pytest.mark.parametrize("message", [b"", b"x", b"hello world", bytes(range(256))])
    def test_no_ecc(self, message):
        payload = build_payload(message, SRAM_BITS)
        assert payload.size == SRAM_BITS
        assert extract_message(payload) == message

    def test_with_repetition(self):
        code = RepetitionCode(3)
        payload = build_payload(b"secret", SRAM_BITS, ecc=code)
        assert extract_message(payload, ecc=code) == b"secret"

    def test_with_paper_stack(self):
        code = paper_end_to_end_code(7)
        payload = build_payload(b"dead drop", SRAM_BITS, ecc=code)
        assert extract_message(payload, ecc=code) == b"dead drop"

    def test_survives_channel_errors_with_ecc(self):
        code = paper_end_to_end_code(7)
        payload = build_payload(b"resilient", SRAM_BITS, ecc=code)
        rng = np.random.default_rng(0)
        noisy = payload ^ (rng.random(SRAM_BITS) < 0.05).astype(np.uint8)
        assert extract_message(noisy, ecc=code) == b"resilient"

    def test_header_survives_errors(self):
        payload = build_payload(b"hdr", SRAM_BITS)
        rng = np.random.default_rng(1)
        noisy = payload.copy()
        header_bits = FrameFormat().header_bits
        flips = rng.choice(header_bits, size=header_bits // 10, replace=False)
        noisy[flips] ^= 1
        # 10% of header bits flipped; 15-copy repetition still decodes.
        assert extract_message(noisy)[:3] == b"hdr"


class TestRawMode:
    def test_round_trip(self):
        frame = FrameFormat(framed=False)
        payload = build_payload(b"raw mode", SRAM_BITS, frame=frame)
        out = extract_message(payload, frame=frame, message_len=8)
        assert out == b"raw mode"

    def test_length_required(self):
        frame = FrameFormat(framed=False)
        payload = build_payload(b"raw", SRAM_BITS, frame=frame)
        with pytest.raises(ExtractionError):
            extract_message(payload, frame=frame)

    def test_raw_mode_has_no_header_overhead(self):
        frame = FrameFormat(framed=False)
        assert frame.header_bits == 0
        assert max_message_bytes(SRAM_BITS, frame=frame) == SRAM_BITS // 8


class TestCapacity:
    def test_overflow_rejected(self):
        big = bytes(SRAM_BITS)  # 8x too large
        with pytest.raises(CapacityError):
            build_payload(big, SRAM_BITS)

    def test_max_message_fits_exactly(self):
        limit = max_message_bytes(SRAM_BITS, ecc=hamming_7_4())
        message = b"\xAB" * limit
        payload = build_payload(message, SRAM_BITS, ecc=hamming_7_4())
        assert extract_message(payload, ecc=hamming_7_4()) == message

    def test_one_over_max_rejected(self):
        code = RepetitionCode(5)
        limit = max_message_bytes(SRAM_BITS, ecc=code)
        with pytest.raises(CapacityError):
            build_payload(b"\x00" * (limit + 40), SRAM_BITS, ecc=code)

    def test_sram_bits_validation(self):
        with pytest.raises(ConfigurationError):
            build_payload(b"x", 0)
        with pytest.raises(ConfigurationError):
            build_payload(b"x", 1001)  # not byte multiple


class TestHeader:
    def test_header_round_trip(self):
        frame = FrameFormat()
        header = frame.encode_header(123456)
        assert frame.decode_header(header) == 123456

    def test_header_length_limit(self):
        with pytest.raises(ConfigurationError):
            FrameFormat().encode_header(2**32)

    def test_even_copies_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameFormat(header_copies=4)

    def test_corrupt_header_detected_on_length_overflow(self):
        payload = build_payload(b"ok", SRAM_BITS)
        # Smash the header so it decodes to a huge length.
        payload[: FrameFormat().header_bits] = 1
        with pytest.raises(ExtractionError):
            extract_message(payload)


class TestExtractMessages:
    """The row-wise extractor ``extract_message`` is the one-row case of."""

    def _noisy(self, message, *, ecc=None, frame=None, seed=0, rate=0.04):
        payload = build_payload(message, SRAM_BITS, ecc=ecc, frame=frame)
        rng = np.random.default_rng(seed)
        return payload ^ (rng.random(SRAM_BITS) < rate).astype(np.uint8)

    def test_mixed_header_lengths_decode_row_by_row(self):
        code = paper_end_to_end_code(7)
        messages = [b"ab", b"", b"longer message", b"cd", b"ab"]
        rows = np.stack(
            [self._noisy(m, ecc=code, seed=i) for i, m in enumerate(messages)]
        )
        outcomes, counts = extract_messages(rows, ecc=code)
        assert outcomes == messages
        # The zero-length row votes its header and decodes no body.
        assert [name for name, _ in counts[1]] == [
            "ecc.repetition.overruled",
            "ecc.repetition.corrections",
            "ecc.repetition.bits",
        ]
        assert len(counts[0]) == 3 + 5  # header, then repetition + Hamming
        for row, row_counts in zip(rows, counts):
            sink_counts = _counted(lambda: extract_message(row, ecc=code))
            assert sink_counts == row_counts

    def test_corrupt_header_fails_only_its_own_row(self):
        rows = np.stack([self._noisy(b"one", rate=0), self._noisy(b"two", rate=0)])
        rows[0, : FrameFormat().header_bits] = 1
        (bad, good), counts = extract_messages(rows)
        assert isinstance(bad, ExtractionError)
        assert "header claims 4294967295 bytes" in str(bad)
        assert good == b"two"
        assert counts[0] and [n for n, _ in counts[0]] == [n for n, _ in counts[1]]

    def test_raw_mode_uses_each_rows_length(self):
        frame = FrameFormat(framed=False)
        code = hamming_7_4()
        messages = [b"raw", b"", b"mode!"]
        rows = np.stack(
            [build_payload(m, SRAM_BITS, ecc=code, frame=frame) for m in messages]
        )
        lens = [len(m) for m in messages]
        outcomes, counts = extract_messages(
            rows, ecc=code, frame=frame, message_lens=lens
        )
        assert outcomes == messages
        assert counts[1] == []
        outcomes, _ = extract_messages(
            rows, ecc=code, frame=frame, message_lens=[3, None, SRAM_BITS]
        )
        assert outcomes[0] == b"raw"
        assert isinstance(outcomes[1], ExtractionError)
        assert isinstance(outcomes[2], ExtractionError)

    def test_raw_mode_needs_one_length_per_row(self):
        frame = FrameFormat(framed=False)
        rows = np.zeros((2, 64), dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            extract_messages(rows, frame=frame, message_lens=[1])

    def test_short_payload_fails_every_row(self):
        outcomes, _ = extract_messages(np.zeros((2, 64), dtype=np.uint8))
        assert all(isinstance(o, ExtractionError) for o in outcomes)
        assert outcomes[0] is not outcomes[1]


def _counted(fn):
    from repro import telemetry
    from repro.telemetry import RingBufferSink

    sink = RingBufferSink(capacity=64)
    telemetry.add_sink(sink)
    try:
        with telemetry.trace("test.extract"):
            fn()
    finally:
        telemetry.remove_sink(sink)
    return [(r["name"], r["value"]) for r in sink.records(type="counter")]
