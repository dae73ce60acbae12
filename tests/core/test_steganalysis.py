"""Integration tests for the steganalysis suite (§6, Table 5)."""

import numpy as np
import pytest

from repro.core import (
    CodingScheme,
    InvisibleBits,
    analyze_power_on_state,
    compare_device_populations,
)
from repro.core.steganalysis import SteganalysisReport
from repro.device import make_device
from repro.errors import ConfigurationError
from repro.harness import ControlBoard

KEY = b"0123456789abcdef"


from repro.core.payloads import synthetic_image_bytes


def structured_message(n_bytes: int) -> bytes:
    """An image-like message (long runs), as in the paper's Figure 1."""
    return synthetic_image_bytes(n_bytes, rng=5)


def capture_state(channel):
    state = channel.board.majority_power_on_state(5)
    return state


@pytest.fixture(scope="module")
def device_states():
    """Power-on states for clean / plaintext-encoded / encrypted-encoded."""
    states = {}
    # clean device
    dev = make_device("MSP432P401", rng=100, sram_kib=2)
    board = ControlBoard(dev)
    states["clean"] = (board.majority_power_on_state(5), dev.sram.grid_shape())
    # plaintext-encoded device
    dev_p = make_device("MSP432P401", rng=101, sram_kib=2)
    ch_p = InvisibleBits(ControlBoard(dev_p), use_firmware=False)
    ch_p.send(structured_message(1800))
    states["plain"] = (capture_state(ch_p), dev_p.sram.grid_shape())
    # encrypted-encoded device
    dev_e = make_device("MSP432P401", rng=102, sram_kib=2)
    ch_e = InvisibleBits(
        ControlBoard(dev_e), scheme=CodingScheme(key=KEY), use_firmware=False
    )
    ch_e.send(structured_message(1800))
    states["encrypted"] = (capture_state(ch_e), dev_e.sram.grid_shape())
    return states


class TestSingleDeviceAnalysis:
    def test_clean_device_looks_clean(self, device_states):
        bits, grid = device_states["clean"]
        report = analyze_power_on_state(bits, grid)
        assert not report.looks_encoded()
        assert report.mean_bias == pytest.approx(0.5, abs=0.02)

    def test_plaintext_payload_detected(self, device_states):
        """Table 5: unencrypted messages show spatial structure and bias."""
        bits, grid = device_states["plain"]
        report = analyze_power_on_state(bits, grid)
        assert report.looks_encoded()
        assert report.morans_i.statistic > 0.05

    def test_encrypted_payload_undetected(self, device_states):
        """Table 5: encrypted payloads are indistinguishable from clean."""
        bits, grid = device_states["encrypted"]
        report = analyze_power_on_state(bits, grid)
        assert not report.looks_encoded()
        assert abs(report.morans_i.statistic) < 0.05
        assert report.mean_bias == pytest.approx(0.5, abs=0.02)

    def test_entropy_ordering_figure12(self, device_states):
        """Plaintext drops symbol entropy; encryption restores it."""
        from repro.stats import normalized_entropy

        clean = normalized_entropy(device_states["clean"][0])
        plain = normalized_entropy(device_states["plain"][0])
        enc = normalized_entropy(device_states["encrypted"][0])
        assert plain < clean
        assert enc == pytest.approx(clean, abs=0.002)

    def test_report_fields(self, device_states):
        bits, grid = device_states["clean"]
        report = analyze_power_on_state(bits, grid)
        assert isinstance(report, SteganalysisReport)
        assert report.weight_axis.shape == (129,)
        assert report.weight_density.sum() == pytest.approx(1.0)
        assert report.entropy_per_symbol.shape == (256,)

    def test_grid_mismatch_rejected(self, device_states):
        bits, _ = device_states["clean"]
        with pytest.raises(ConfigurationError):
            analyze_power_on_state(bits, (10, 10))


class TestPopulationComparison:
    def test_encrypted_vs_clean_not_distinguishable(self):
        """The §6 Welch's t-test: null not rejected (paper p = 0.071)."""
        clean, hidden = [], []
        for i in range(4):
            dev = make_device("MSP432P401", rng=200 + i, sram_kib=1)
            clean.append(ControlBoard(dev).majority_power_on_state(5))
        for i in range(4):
            dev = make_device("MSP432P401", rng=300 + i, sram_kib=1)
            ch = InvisibleBits(
                ControlBoard(dev), scheme=CodingScheme(key=KEY), use_firmware=False
            )
            ch.send(structured_message(900))
            hidden.append(capture_state(ch))
        result = compare_device_populations(hidden, clean)
        assert not result.rejects_null(one_tailed=True)

    def test_needs_two_devices_each(self, device_states):
        bits, _ = device_states["clean"]
        with pytest.raises(ConfigurationError):
            compare_device_populations([bits], [bits, bits])
