"""Failure injection: the unhappy paths a field deployment hits."""

import numpy as np
import pytest

from repro.bitutils import bit_error_rate, invert_bits
from repro.core.pipeline import InvisibleBits
from repro.core.scheme import CodingScheme
from repro.device import make_device
from repro.ecc import RepetitionCode
from repro.errors import DeviceError, OverstressError, PowerError
from repro.harness import ControlBoard

KEY = b"failure-key-16by"


class TestPowerFailures:
    def test_power_loss_during_staging_recovers(self, random_payload):
        """Power dies after staging but before stress: re-staging works and
        the final encode is unaffected."""
        device = make_device("MSP432P401", rng=90, sram_kib=1)
        board = ControlBoard(device)
        payload = random_payload(device.sram.n_bits, seed=30)
        board.stage_payload(payload, use_firmware=False)
        board.power_off()  # the cable falls out
        board.stage_payload(payload, use_firmware=False)
        board.encode(stress_hours=10.0)
        board.power_off()
        error = bit_error_rate(
            payload, invert_bits(board.majority_power_on_state(5))
        )
        assert error == pytest.approx(0.065, abs=0.02)

    def test_interrupted_stress_resumes_cumulatively(self, random_payload):
        """Stress in two halves equals stress in one run (the model's
        additive equivalent-time property, which the paper's three
        two-hour cycles rely on)."""
        errors = []
        for halves in (False, True):
            device = make_device("MSP432P401", rng=91, sram_kib=1)
            board = ControlBoard(device)
            payload = random_payload(device.sram.n_bits, seed=31)
            board.stage_payload(payload, use_firmware=False)
            if halves:
                board.encode(stress_hours=5.0)
                board.power_off()
                board.stage_payload(payload, use_firmware=False)
                board.encode(stress_hours=5.0)
            else:
                board.encode(stress_hours=10.0)
            board.power_off()
            errors.append(
                bit_error_rate(
                    payload, invert_bits(board.majority_power_on_state(5))
                )
            )
        assert errors[0] == pytest.approx(errors[1], abs=0.01)

    def test_overstress_raises_before_damage(self):
        device = make_device("MSP432P401", rng=92, sram_kib=1)
        board = ControlBoard(device)
        board.power_on_nominal()
        with pytest.raises(OverstressError):
            device.set_supply(device.spec.technology.vdd_abs_max + 1.0)

    def test_double_power_cycle_guard(self):
        device = make_device("MSP432P401", rng=93, sram_kib=1)
        device.power_on()
        with pytest.raises(PowerError):
            device.power_on()


class TestColdBootStyleAdversary:
    def test_fast_undrained_cycle_reveals_only_digital_contents(
        self, random_payload
    ):
        """A remanence ("cold boot") read steals what software left in
        SRAM — which after camouflage is worthless — while the analog
        message stays both present and invisible."""
        device = make_device("MSP432P401", rng=94, sram_kib=2)
        board = ControlBoard(device)
        channel = InvisibleBits(
            board,
            scheme=CodingScheme(key=KEY, ecc=RepetitionCode(7)),
            use_firmware=False,
        )
        channel.send(b"analog only")

        # Adversary writes bait, power-cycles fast without draining.
        board.power_on_nominal()
        bait = random_payload(device.sram.n_bits, seed=32)
        board.debug.write_sram_bits(bait)
        board.supply.off(drain=False)
        device.advance(0.001)  # 1 ms gap, tau = 0.25 s
        stolen = device.power_on(boot=False)
        device.power_off()
        # The cold boot faithfully recovers the *digital* contents...
        assert bit_error_rate(bait, stolen) < 0.05
        # ...but the hidden message is untouched and still decodes.
        assert channel.receive().message == b"analog only"

    def test_harness_discipline_defeats_remanence(self, random_payload):
        """The paper's measurement rule: drain the rail, and captures are
        true power-on states, not stale data."""
        device = make_device("MSP432P401", rng=95, sram_kib=1)
        device.power_on()
        bait = random_payload(device.sram.n_bits, seed=33)
        device.sram.write(bait)
        device.power_off(drain=True)
        device.advance(0.001)
        state = device.power_on()
        assert bit_error_rate(bait, state) == pytest.approx(0.5, abs=0.05)


class TestFirmwareFailures:
    def test_corrupted_flash_detected_at_boot(self):
        device = make_device("MSP432P401", rng=96, sram_kib=1)
        device.load_firmware(b"\xff\xff\xff\xff" * 4)  # 0x3F opcodes
        from repro.errors import EmulatorError

        with pytest.raises(EmulatorError):
            device.power_on()

    def test_payload_too_big_for_flash(self):
        device = make_device("MSP430G2553", rng=97, sram_kib=0.5)
        board = ControlBoard(device)
        # 0.5 KiB SRAM -> payload fits SRAM, but the generated program
        # (payload + code) must also fit the 16 KiB flash: it does.
        payload = np.random.default_rng(34).integers(
            0, 2, device.sram.n_bits
        ).astype(np.uint8)
        board.stage_payload(payload, use_firmware=True)
        assert device.cpu.spinning

    def test_wrong_device_capacity_rejected_early(self):
        device = make_device("MSP432P401", rng=98, sram_kib=1)
        board = ControlBoard(device)
        channel = InvisibleBits(
            board, scheme=CodingScheme(ecc=RepetitionCode(9)), use_firmware=False
        )
        from repro.errors import CapacityError

        with pytest.raises(CapacityError):
            channel.send(b"x" * 2000)
        assert not device.powered  # failed cleanly before touching power
