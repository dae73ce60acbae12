"""The device population (paper Table 1) and encoding recipes (Table 4).

Every device the paper tested appears here with its CPU core, memory sizes
and manufacturer.  The four devices the paper fully characterised carry the
measured encoding recipe — stress voltage, stress temperature, encoding
time, and achieved bit rate — which calibrates their NBTI magnitude (see
:mod:`repro.sram.calibration`).  The remaining devices get recipes
interpolated from their technology class so the whole population is usable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import make_rng
from ..sram.calibration import calibrate_profile
from ..sram.technology import TechnologyProfile
from ..units import hours


@dataclass(frozen=True)
class EncodingRecipe:
    """A known-good encoding operating point for a device (Table 4 row)."""

    vdd_stress: float
    temp_stress_c: float
    stress_hours: float
    bit_rate: float  # fraction of cells that take the encoded value

    def __post_init__(self) -> None:
        if not 0.5 < self.bit_rate < 1.0:
            raise ConfigurationError(
                f"bit rate must be in (0.5, 1), got {self.bit_rate}"
            )
        if self.stress_hours <= 0:
            raise ConfigurationError("stress time must be positive")

    @property
    def single_copy_error(self) -> float:
        """Raw per-bit error at this recipe (1 - bit rate)."""
        return 1.0 - self.bit_rate


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one device model."""

    name: str
    cpu_core: str
    sram_kib: float
    flash_kib: float
    manufacturer: str
    technology: TechnologyProfile
    recipe: EncodingRecipe
    sram_kind: str = "main memory"
    has_regulator: bool = False
    power_on_state_access: bool = True
    accelerated_aging: bool = True

    @property
    def sram_bits(self) -> int:
        return int(self.sram_kib * 1024 * 8)


def _spec(
    name: str,
    cpu_core: str,
    sram_kib: float,
    flash_kib: float,
    manufacturer: str,
    *,
    node_nm: float,
    vdd_nominal: float,
    recipe: EncodingRecipe,
    sram_kind: str = "main memory",
    has_regulator: bool = False,
) -> DeviceSpec:
    profile = TechnologyProfile(
        name=name,
        node_nm=node_nm,
        vdd_nominal=vdd_nominal,
        vdd_abs_max=recipe.vdd_stress + 0.5,
        temp_abs_max_k=273.15 + 125.0,
    )
    profile = calibrate_profile(
        profile,
        target_error=recipe.single_copy_error,
        vdd_stress=recipe.vdd_stress,
        temp_stress_c=recipe.temp_stress_c,
        stress_seconds=hours(recipe.stress_hours),
    )
    return DeviceSpec(
        name=name,
        cpu_core=cpu_core,
        sram_kib=sram_kib,
        flash_kib=flash_kib,
        manufacturer=manufacturer,
        technology=profile,
        recipe=recipe,
        sram_kind=sram_kind,
        has_regulator=has_regulator,
    )


def _build_catalog() -> dict[str, DeviceSpec]:
    # The four fully characterised devices use Table 4's measured anchors.
    table4 = {
        "ATSAML11E16A": EncodingRecipe(4.8, 85.0, 16.0, 0.972),
        "MSP432P401": EncodingRecipe(3.3, 85.0, 10.0, 0.935),
        "LPC55S69JBD100": EncodingRecipe(5.5, 85.0, 24.0, 0.885),
        "BCM2837": EncodingRecipe(2.2, 85.0, 120.0, 0.792),
    }
    # Table 1 devices without a Table 4 row get class-interpolated recipes:
    # same 85 C chamber, stress voltage from their datasheet class, times and
    # bit rates consistent with the characterised device of the same class.
    specs = [
        _spec(
            "MSP430G2553", "MSP430 single cycle", 0.5, 16, "Texas Instruments",
            node_nm=130, vdd_nominal=1.8,
            recipe=EncodingRecipe(4.0, 85.0, 12.0, 0.93),
        ),
        _spec(
            "MSP432P401", "ARM Cortex-M4", 64, 256, "Texas Instruments",
            node_nm=90, vdd_nominal=1.2, recipe=table4["MSP432P401"],
        ),
        _spec(
            "EFM32WG990F256", "ARM Cortex-M4", 32, 256, "Silicon Labs",
            node_nm=90, vdd_nominal=1.2,
            recipe=EncodingRecipe(3.6, 85.0, 12.0, 0.93),
        ),
        _spec(
            "ATSAML11E16A", "ARM Cortex-M23", 16, 64, "Microchip Technology",
            node_nm=65, vdd_nominal=1.2, recipe=table4["ATSAML11E16A"],
        ),
        _spec(
            "M263KIAAE", "ARM Cortex-M23", 96, 512, "Nuvoton",
            node_nm=65, vdd_nominal=1.2,
            recipe=EncodingRecipe(4.5, 85.0, 16.0, 0.96),
        ),
        _spec(
            "M2351SFSIAAP", "ARM Cortex-M23", 96, 512, "Nuvoton",
            node_nm=65, vdd_nominal=1.2,
            recipe=EncodingRecipe(4.5, 85.0, 16.0, 0.955),
        ),
        _spec(
            "M252KG6AE", "ARM Cortex-M23", 32, 256, "Nuvoton",
            node_nm=65, vdd_nominal=1.2,
            recipe=EncodingRecipe(4.5, 85.0, 16.0, 0.95),
        ),
        _spec(
            "M251SD2AE", "ARM Cortex-M23", 12, 64, "Nuvoton",
            node_nm=65, vdd_nominal=1.2,
            recipe=EncodingRecipe(4.5, 85.0, 16.0, 0.95),
        ),
        _spec(
            "R7FS1JA783A01CFM", "ARM Cortex-M23", 32, 256, "Renesas Electronics",
            node_nm=65, vdd_nominal=1.2,
            recipe=EncodingRecipe(4.2, 85.0, 14.0, 0.94),
        ),
        _spec(
            "STM32L562", "ARM Cortex-M33", 40, 256, "STMicroelectronics",
            node_nm=40, vdd_nominal=1.1,
            recipe=EncodingRecipe(4.8, 85.0, 18.0, 0.95),
        ),
        _spec(
            "LPC55S69JBD100", "Dual-core ARM Cortex-M33", 320, 640,
            "NXP Semiconductors",
            node_nm=40, vdd_nominal=1.1, recipe=table4["LPC55S69JBD100"],
        ),
        _spec(
            "BCM2837", "Quad-core ARM Cortex-A53", 768, 0, "Broadcom",
            node_nm=28, vdd_nominal=1.2, recipe=table4["BCM2837"],
            sram_kind="cache (L1 256 KiB + L2 512 KiB)", has_regulator=True,
        ),
    ]
    return {spec.name: spec for spec in specs}


_CATALOG = _build_catalog()

#: Names of the four devices with measured Table 4 anchors.
TABLE4_DEVICES = ("ATSAML11E16A", "MSP432P401", "LPC55S69JBD100", "BCM2837")


def device_spec(name: str) -> DeviceSpec:
    """Look up a device by its Table 1 name."""
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise ConfigurationError(f"unknown device {name!r}; known: {known}") from None


def all_device_specs() -> list[DeviceSpec]:
    """All Table 1 devices, in the paper's order."""
    return list(_CATALOG.values())


def make_device(
    name: str,
    *,
    rng: "int | None" = None,
    sram_kib: "float | None" = None,
    serial: "int | None" = None,
):
    """Instantiate a :class:`repro.device.Device` of model ``name``.

    ``sram_kib`` overrides the SRAM size (experiments frequently simulate a
    slice of a large part for speed; the per-cell physics is unchanged).
    """
    from .device import Device

    spec = device_spec(name)
    return Device(spec, rng=make_rng(rng), sram_kib=sram_kib, serial=serial)


def make_varied_device(
    name: str,
    *,
    rng: "int | np.random.Generator",
    device_sigma: float = 0.15,
    sram_kib: "float | None" = None,
) -> "Device":
    """A device instance with device-to-device aging variation.

    The paper's Figure 6 shows a wide min/max band across five nominally
    identical MSP432s; we model it as a lognormal spread on the NBTI
    magnitude (same ``device_sigma`` the planner uses, see
    :func:`repro.core.planner.parallel_device_selection`).
    """
    if device_sigma < 0:
        raise ConfigurationError("device_sigma must be >= 0")
    from .device import Device

    gen = make_rng(rng)
    spec = device_spec(name)
    k = spec.technology.nbti_k_scale * float(
        np.exp(device_sigma * gen.standard_normal())
    )
    varied_spec = type(spec)(
        **{
            **spec.__dict__,
            "technology": spec.technology.with_k_scale(k),
        }
    )
    return Device(varied_spec, rng=gen, sram_kib=sram_kib)
