"""Figure 3: software-directed and accelerated aging.

(a)-(c): the power-on *bias* histogram of an SRAM — fresh, after stressing
with all-0s (1s increase), and after stressing with all-1s (0s increase).
(d): fraction of 1s over stress time for the four V/T corners, showing
voltage as the dominant knob.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..device import make_device
from ..stats.distributions import density_histogram, power_on_bias
from ..units import celsius_to_kelvin, hours
from .common import ExperimentResult

CORNERS = ((1.2, 25.0), (1.2, 85.0), (3.3, 25.0), (3.3, 85.0))


@dataclass
class Figure3Data:
    bias_histograms: dict  # label -> (centres, density)
    result_abc: ExperimentResult
    result_d: ExperimentResult


def run(*, sram_kib: float = 2, stress_hours: float = 4.0, seed: int = 2) -> Figure3Data:
    histograms = {}
    result_abc = ExperimentResult(
        experiment="Figure 3a-c",
        description="power-on bias distribution under data-directed aging",
        columns=["panel", "fraction_biased_to_1", "fraction_biased_to_0"],
    )

    def summarize(label, device):
        samples = device.sram.capture_power_on_states(9)
        device.sram.remove_power()
        bias = power_on_bias(samples)
        histograms[label] = density_histogram(bias, bins=11, value_range=(0.0, 1.0))
        result_abc.add_row(
            label, float((bias > 0.9).mean()), float((bias < 0.1).mean())
        )

    # (a) unaged
    fresh = make_device("MSP432P401", rng=seed, sram_kib=sram_kib)
    summarize("(a) unaged", fresh)

    # (b) stressed holding all-0s -> power-on biases toward 1
    dev_b = make_device("MSP432P401", rng=seed + 1, sram_kib=sram_kib)
    dev_b.power_on()
    dev_b.sram.fill(0)
    dev_b.set_ambient(celsius_to_kelvin(85.0))
    dev_b.set_supply(3.3)
    dev_b.advance(hours(stress_hours))
    dev_b.power_off()
    dev_b.set_ambient(celsius_to_kelvin(25.0))
    summarize("(b) aged holding 0", dev_b)

    # (c) stressed holding all-1s -> power-on biases toward 0
    dev_c = make_device("MSP432P401", rng=seed + 2, sram_kib=sram_kib)
    dev_c.power_on()
    dev_c.sram.fill(1)
    dev_c.set_ambient(celsius_to_kelvin(85.0))
    dev_c.set_supply(3.3)
    dev_c.advance(hours(stress_hours))
    dev_c.power_off()
    dev_c.set_ambient(celsius_to_kelvin(25.0))
    summarize("(c) aged holding 1", dev_c)

    # (d) acceleration corners: write all-1s, track % of 1s over time.
    result_d = ExperimentResult(
        experiment="Figure 3d",
        description="accelerated aging: %1s vs stress time per (V, T) corner",
        columns=["vdd", "temp_c", "hours", "percent_ones"],
    )
    for corner_index, (vdd, temp_c) in enumerate(CORNERS):
        device = make_device("MSP432P401", rng=seed + 10 + corner_index,
                             sram_kib=sram_kib)
        device.power_on()
        device.sram.fill(1)
        device.set_ambient(celsius_to_kelvin(temp_c))
        device.set_supply(vdd)
        elapsed = 0.0
        for checkpoint in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0):
            device.advance(hours(checkpoint - elapsed))
            elapsed = checkpoint
            # Peek at the power-on preference without losing the hold state:
            # fraction of cells whose offset now favours 1.
            ones = float((device.sram.offsets() > 0).mean()) * 100.0
            result_d.add_row(vdd, temp_c, checkpoint, ones)
        device.power_off()
    result_d.notes = "voltage dominates; temperature magnifies (paper SS2.2)"
    return Figure3Data(
        bias_histograms=histograms, result_abc=result_abc, result_d=result_d
    )
