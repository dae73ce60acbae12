"""Calibration against the paper's published anchors.

These tests pin the simulator to the paper: Table 4 bit rates, the Figure 6
error-vs-time shape, and the Figure 7 recovery multipliers.
"""

import math

import pytest

from repro.device.catalog import TABLE4_DEVICES, all_device_specs, device_spec
from repro.errors import ConfigurationError
from repro.sram.calibration import (
    calibrate_profile,
    error_to_shift,
    predicted_error,
    shift_to_error,
    solve_k_scale,
    stress_time_for_error,
)
from repro.units import hours


class TestShiftErrorMapping:
    def test_round_trip(self):
        for err in (0.01, 0.065, 0.2, 0.4):
            assert shift_to_error(error_to_shift(err)) == pytest.approx(err)

    def test_zero_shift_is_coin_flip(self):
        assert shift_to_error(0.0) == pytest.approx(0.5)

    def test_out_of_range_rejected(self):
        for err in (-0.1, 0.0, 0.5, 0.75, 1.0, 1.5, math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                error_to_shift(err)
        for shift in (-1e-300, -1.0, -math.inf):
            with pytest.raises(ConfigurationError):
                shift_to_error(shift)


# ``nbti_k_scale`` of every catalog device, as computed through
# ``scipy.stats.norm.ppf`` before calibration moved to the Cephes port in
# ``repro.stats.normal``: a single changed bit would shift every aged cell.
PINNED_K_SCALE_HEX = {
    "MSP430G2553": "0x1.83287ab75e7d8p-19",
    "MSP432P401": "0x1.bbb48463bf1a0p-20",
    "EFM32WG990F256": "0x1.19379b5dd56d3p-20",
    "ATSAML11E16A": "0x1.bc9aaa98914c6p-22",
    "M263KIAAE": "0x1.fa6b4103ff800p-22",
    "M2351SFSIAAP": "0x1.ea6cfe9774dc5p-22",
    "M252KG6AE": "0x1.dbce0fecb8bb7p-22",
    "M251SD2AE": "0x1.dbce0fecb8bb7p-22",
    "R7FS1JA783A01CFM": "0x1.39bb5ddc30ad7p-21",
    "STM32L562": "0x1.052cbd56bab55p-22",
    "LPC55S69JBD100": "0x1.8417df81dfe5ap-24",
    "BCM2837": "0x1.2286ad08c0efdp-21",
}


def test_catalog_k_scales_are_pinned_bit_for_bit():
    specs = {spec.name: spec for spec in all_device_specs()}
    assert set(specs) == set(PINNED_K_SCALE_HEX)
    got = {name: spec.technology.nbti_k_scale.hex() for name, spec in specs.items()}
    assert got == PINNED_K_SCALE_HEX


class TestTable4Anchors:
    @pytest.mark.parametrize("name", TABLE4_DEVICES)
    def test_calibrated_profile_reproduces_anchor(self, name):
        spec = device_spec(name)
        recipe = spec.recipe
        err = predicted_error(
            spec.technology,
            vdd=recipe.vdd_stress,
            temp_c=recipe.temp_stress_c,
            stress_seconds=hours(recipe.stress_hours),
        )
        assert err == pytest.approx(recipe.single_copy_error, rel=1e-6)

    def test_solve_k_scale_positive(self):
        k = solve_k_scale(
            0.065,
            vdd_stress=3.3,
            temp_stress_c=85.0,
            stress_seconds=hours(10),
            vdd_nominal=1.2,
            time_exponent=0.75,
            voltage_exponent=4.5,
            activation_energy_ev=0.5,
        )
        assert 0 < k < 1e-3


class TestFigure6Shape:
    def test_error_falls_with_stress_time(self):
        tech = device_spec("MSP432P401").technology
        errs = [
            predicted_error(tech, vdd=3.3, temp_c=85.0, stress_seconds=hours(h))
            for h in (2, 4, 6, 8, 10)
        ]
        assert errs == sorted(errs, reverse=True)

    def test_figure6_endpoints(self):
        """Figure 6: ~33% at 2 h falling to ~5-7% at 10 h."""
        tech = device_spec("MSP432P401").technology
        at_2h = predicted_error(tech, vdd=3.3, temp_c=85.0, stress_seconds=hours(2))
        at_10h = predicted_error(tech, vdd=3.3, temp_c=85.0, stress_seconds=hours(10))
        assert 0.25 < at_2h < 0.40
        assert 0.05 < at_10h < 0.08

    def test_lower_error_needs_exponentially_longer(self):
        """'achieving lower error requires exponentially longer time'."""
        tech = device_spec("MSP432P401").technology
        t_10pct = stress_time_for_error(
            tech, vdd=3.3, temp_c=85.0, target_error=0.10
        )
        t_5pct = stress_time_for_error(tech, vdd=3.3, temp_c=85.0, target_error=0.05)
        t_1pct = stress_time_for_error(tech, vdd=3.3, temp_c=85.0, target_error=0.01)
        assert t_10pct < t_5pct < t_1pct
        assert (t_1pct - t_5pct) > (t_5pct - t_10pct)


class TestCalibrateProfile:
    def test_sets_anchor_exactly(self, msp432_profile):
        prof = calibrate_profile(
            msp432_profile.with_k_scale(1.0),
            target_error=0.10,
            vdd_stress=3.3,
            temp_stress_c=85.0,
            stress_seconds=hours(5),
        )
        err = predicted_error(prof, vdd=3.3, temp_c=85.0, stress_seconds=hours(5))
        assert err == pytest.approx(0.10, rel=1e-9)
