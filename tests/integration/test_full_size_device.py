"""One full-size run: the complete 64 KiB MSP432, exactly as in the paper.

Everything else in the suite uses SRAM slices for speed; these tests prove
the stack holds at the real device size, including the §5.3 capacity
arithmetic (12.8 KiB of payload at 5 copies) and the re-encoding
degradation a reused carrier device suffers.
"""

import numpy as np
import pytest

from repro.bitutils import bit_error_rate, bytes_to_bits, invert_bits
from repro.core.message import max_message_bytes
from repro.core.pipeline import InvisibleBits
from repro.core.scheme import CodingScheme
from repro.device import make_device
from repro.ecc import RepetitionCode
from repro.ecc.product import paper_end_to_end_code
from repro.harness import ControlBoard

KEY = b"fullsize-key-16b"


def test_full_size_capacity_matches_paper():
    """§5.3: 'Using five copies allows Invisible Bits to hide 12.8KB'."""
    device_bits = 64 * 1024 * 8
    capacity = max_message_bytes(device_bits, ecc=RepetitionCode(5))
    assert capacity == pytest.approx(12.8 * 1024, rel=0.01)


def test_full_size_end_to_end_five_copies():
    """10 KiB through the full-size device at 5 copies: raw channel at the
    Table 4 rate and residual message error at the §5.3 <0.3% level (five
    copies trade capacity for *low*, not zero, error — 13 copies or the
    Hamming stack are the zero-error configurations, Figure 10)."""
    device = make_device("MSP432P401", rng=4096)
    board = ControlBoard(device)
    channel = InvisibleBits(
        board,
        scheme=CodingScheme(key=KEY, ecc=RepetitionCode(5)),
        use_firmware=False,
    )
    message = bytes(range(256)) * 40  # 10 KiB of payload
    sent = channel.send(message)
    result = channel.receive(expected_payload=sent.payload_bits)
    assert result.raw_error_vs == pytest.approx(0.065, abs=0.005)
    residual = bit_error_rate(
        bytes_to_bits(message), bytes_to_bits(result.message)
    )
    assert residual < 0.004  # paper's matching target: < 0.3%


def test_full_size_exact_recovery_with_paper_stack():
    """The §6 stack (Hamming(7,4) x 7 copies) recovers a 5 KiB message
    exactly on the full-size device."""
    device = make_device("MSP432P401", rng=4097)
    board = ControlBoard(device)
    channel = InvisibleBits(
        board,
        scheme=CodingScheme(key=KEY, ecc=paper_end_to_end_code(7)),
        use_firmware=False,
    )
    message = bytes(range(256)) * 20  # 5 KiB
    channel.send(message)
    assert channel.receive().message == message


def test_full_size_bit_rate():
    """Abstract: >90% of 524,288 cells take their encoded value."""
    device = make_device("MSP432P401", rng=4098)
    board = ControlBoard(device)
    payload = np.random.default_rng(5).integers(
        0, 2, device.sram.n_bits
    ).astype(np.uint8)
    board.encode_message(payload, use_firmware=False, camouflage=False)
    state = board.majority_power_on_state(5)
    bit_rate = 1.0 - bit_error_rate(payload, invert_bits(state))
    assert bit_rate > 0.90


def test_reencoding_a_used_carrier_degrades():
    """A device that already carried one message fights its own history:
    the first payload's aging opposes the second's on half the cells.
    (The paper never re-uses a carrier; this documents why.)"""
    device = make_device("MSP432P401", rng=4099, sram_kib=2)
    board = ControlBoard(device)
    rng = np.random.default_rng(6)
    first = rng.integers(0, 2, device.sram.n_bits).astype(np.uint8)
    board.encode_message(first, use_firmware=False, camouflage=False)

    second = rng.integers(0, 2, device.sram.n_bits).astype(np.uint8)
    board.encode_message(second, use_firmware=False, camouflage=False)
    error = bit_error_rate(
        second, invert_bits(board.majority_power_on_state(5))
    )
    # Much worse than a fresh device's 6.5% — roughly: the half of the
    # cells whose first-message direction opposes the second start from
    # a large deficit.
    assert error > 0.15
