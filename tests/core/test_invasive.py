"""Tests for the invasive-adversary boundary (§3's restriction, made
executable)."""

import numpy as np
import pytest

from repro.core.invasive import invasive_offset_analysis
from repro.core.pipeline import InvisibleBits
from repro.core.scheme import CodingScheme
from repro.device import make_device
from repro.errors import ConfigurationError
from repro.harness import ControlBoard

KEY = b"invasive-key-16b"


def test_fresh_device_reads_clean():
    device = make_device("MSP432P401", rng=81, sram_kib=2)
    report = invasive_offset_analysis(device.sram)
    assert not report.aged
    assert report.offset_std == pytest.approx(1.0, abs=0.05)
    assert abs(report.excess_kurtosis) < 0.2


def test_encrypted_encode_is_invisible_noninvasively_but_not_invasively():
    """The paper's claim holds for its threat model (non-invasive), and
    this test pins down exactly where it stops holding."""
    from repro.core.steganalysis import analyze_power_on_state

    device = make_device("MSP432P401", rng=82, sram_kib=2)
    board = ControlBoard(device)
    channel = InvisibleBits(
        board, scheme=CodingScheme(key=KEY), use_firmware=False
    )
    channel.send(b"hidden from inspectors, not from electron microscopes")

    # Non-invasive: the power-on state looks clean (paper SS6).
    state = board.majority_power_on_state(5)
    assert not analyze_power_on_state(state, device.sram.grid_shape()).looks_encoded()

    # Invasive: per-cell Vth probing sees the aging magnitude.
    report = invasive_offset_analysis(device.sram)
    assert report.aged
    assert report.offset_std > 1.5  # sqrt(1 + D^2) with D ~ 1.5
    assert report.excess_kurtosis < -0.5


def test_normal_use_does_not_trip_the_detector():
    """A device that merely ran for a week is not falsely flagged."""
    device = make_device("MSP432P401", rng=83, sram_kib=2)
    device.power_on()
    device.run_workload(7 * 86400.0)
    device.power_off()
    assert not invasive_offset_analysis(device.sram).aged


def test_threshold_validated():
    device = make_device("MSP432P401", rng=84, sram_kib=1)
    with pytest.raises(ConfigurationError):
        invasive_offset_analysis(device.sram, std_threshold=0.9)
