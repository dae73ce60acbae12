"""Unit tests for the Device lifecycle."""

import numpy as np
import pytest

from repro.device import make_device
from repro.errors import FirmwareError, PowerError
from repro.isa.assembler import assemble
from repro.isa.memory import FLASH_BASE
from repro.isa.programs import (
    camouflage_program,
    payload_writer_program,
    retention_program,
)
from repro.units import celsius_to_kelvin


@pytest.fixture
def device():
    return make_device("MSP432P401", rng=3, sram_kib=1)


class TestPower:
    def test_power_on_returns_state(self, device):
        state = device.power_on()
        assert state.shape == (device.sram.n_bits,)
        assert device.powered
        assert device.core_voltage == pytest.approx(1.2)

    def test_double_power_on_rejected(self, device):
        device.power_on()
        with pytest.raises(PowerError):
            device.power_on()

    def test_power_off(self, device):
        device.power_on()
        device.power_off()
        assert not device.powered
        assert device.core_voltage is None

    def test_power_off_unpowered_rejected(self, device):
        with pytest.raises(PowerError):
            device.power_off()

    def test_supply_elevation_reaches_core_on_bare_mcu(self, device):
        device.power_on()
        device.set_supply(3.3)
        assert device.core_voltage == pytest.approx(3.3)

    def test_supply_elevation_blocked_by_regulator(self):
        rpi = make_device("BCM2837", rng=4, sram_kib=1)
        rpi.power_on()  # 5 V rail, regulated to 1.2 V core
        assert rpi.core_voltage == pytest.approx(1.2)
        rpi.set_supply(2.2)
        assert rpi.core_voltage == pytest.approx(1.2)  # regulator wins
        rpi.regulator.bypass()
        rpi.set_supply(2.2)
        assert rpi.core_voltage == pytest.approx(2.2)  # §7.2 bypass


class TestFirmware:
    def test_boot_runs_firmware(self, device):
        payload = bytes(range(128))
        device.load_firmware(payload_writer_program(payload))
        device.power_on()
        assert device.cpu.spinning
        from repro.device.debugport import DebugPort

        assert DebugPort(device).read_sram(0, len(payload)) == payload

    def test_source_text_accepted(self, device):
        device.load_firmware(retention_program())
        device.power_on()
        assert device.cpu.spinning

    def test_reflash_requires_power_off(self, device):
        device.load_firmware(retention_program())
        device.power_on()
        with pytest.raises(PowerError):
            device.load_firmware(retention_program())

    def test_runaway_firmware_detected(self, device):
        runaway = "loop:\n  addi r1, r1, 1\n  beq r0, r0, next\nnext:\n  jmp loop\n"
        device.load_firmware(runaway)
        with pytest.raises(FirmwareError):
            device.power_on(max_steps=1000)

    def test_source_text_assembled_once_and_shared(self, device):
        source = camouflage_program(words=64)
        other = make_device("MSP432P401", rng=4, sram_kib=1)
        device.load_firmware(source)
        other.load_firmware(source)
        assert device.firmware is other.firmware
        fresh = assemble(source, base_address=FLASH_BASE)
        assert device.firmware.image == fresh.image
        assert device.firmware.entry_point == fresh.entry_point
        assert device.flash.dump(0, len(fresh.image)) == fresh.image

    def test_wrong_link_address_rejected(self, device):
        prog = assemble("nop\nhalt\n", base_address=0x1000)
        with pytest.raises(FirmwareError):
            device.load_firmware(prog)


class TestFlashWear:
    """Reloading the resident program flashes nothing; anything that may
    have changed the Flash since forces a re-flash."""

    def test_reloading_the_resident_program_erases_nothing(self, device):
        device.load_firmware(retention_program())
        counts, writes = list(device.flash.erase_counts), device.flash.writes
        for _ in range(3):
            device.load_firmware(retention_program())
        assert device.flash.erase_counts == counts
        assert device.flash.writes == writes
        device.power_on()
        assert device.cpu.spinning

    def test_another_program_in_between_reflashes(self, device):
        device.load_firmware(retention_program())
        device.load_firmware(camouflage_program(words=16))
        counts = list(device.flash.erase_counts)
        device.load_firmware(retention_program())
        assert device.flash.erase_counts[0] == counts[0] + 1
        image = device.firmware.image
        assert device.flash.dump(0, len(image)) == image

    def test_a_raw_image_in_between_reflashes(self, device):
        device.load_firmware(retention_program())
        image = device.firmware.image
        device.load_firmware(image)  # the same bytes, loaded raw
        assert device.firmware is None
        counts = list(device.flash.erase_counts)
        device.load_firmware(retention_program())
        assert device.flash.erase_counts[0] == counts[0] + 1
        assert device.firmware.image == image

    @pytest.mark.parametrize("write", ["erase_block", "program"])
    def test_a_flash_write_in_between_reflashes(self, device, write):
        device.load_firmware(retention_program())
        image = device.firmware.image
        block = device.flash.block_size
        if write == "erase_block":
            device.flash.erase_block(0)
        else:
            device.flash.program(b"\x00" * 4, block)  # a block the image leaves erased
        counts = list(device.flash.erase_counts)
        device.load_firmware(retention_program())
        assert device.flash.erase_counts[0] == counts[0] + 1
        assert device.flash.dump(0, len(image)) == image


class TestTime:
    def test_advance_powered_stresses(self, device):
        device.power_on()
        device.sram.fill(1)
        device.set_ambient(celsius_to_kelvin(85.0))
        device.set_supply(3.3)
        before = device.sram.offsets().mean()
        device.advance(3600.0 * 4)
        after = device.sram.offsets().mean()
        assert after < before  # all-1s stress biases power-on toward 0

    def test_advance_unpowered_shelves(self, device):
        device.power_on()
        device.power_off()
        device.advance(86400.0)  # must not raise

    def test_workload_requires_power(self, device):
        with pytest.raises(PowerError):
            device.run_workload(10.0)
