"""The control board: end-to-end automation of encode and decode.

Sequences the paper's Algorithm 1 (message encoding) and Algorithm 2
(message decoding) against a simulated device, using the thermal chamber
and power supply models.  The pipeline in :mod:`repro.core` drives this
class; experiments may also use it directly.
"""

from __future__ import annotations

import numpy as np

from .. import metrics, telemetry
from ..bitutils import Captures, as_bit_array, bits_to_bytes, majority_vote
from ..device.debugport import DebugPort
from ..device.device import Device
from ..errors import CapacityError, ConfigurationError, DeviceError
from ..faults import FaultInjector, RetryPolicy, plan_from_env
from ..isa.programs import camouflage_program, payload_writer_program, retention_program
from ..units import hours, kelvin_to_celsius
from .power import PowerSupply
from .thermal import ThermalChamber

#: Direct hot-path instrument: one attribute test while metrics stay
#: disabled (same contract as the telemetry null-span, docs/metrics.md).
_CAPTURES_TOTAL = metrics.counter(
    "repro_captures_total",
    "Power-on captures taken through a control board, by device",
    labelnames=("device",),
)
# Shared (get-or-create) with SRAMArray.capture_power_on_states and the
# fleet kernel; the board loop powers the array per capture and never
# calls either, so the total never double-counts.
_CAPTURE_CELLS_TOTAL = metrics.counter(
    "repro_capture_cells_total",
    "Cells evaluated across all power-on captures",
)


class ControlBoard:
    """Automation harness wired to a single target device.

    ``fault_injector`` threads a :class:`~repro.faults.FaultInjector`
    through the board's capture/thermal/stress hook points (chaos
    testing, docs/faults.md); when omitted, the ``REPRO_FAULT_PLAN``
    environment variable supplies a process-wide default plan (or none).
    ``retry`` is the :class:`~repro.faults.RetryPolicy` guarding capture
    reads against transient device faults; the default policy retries up
    to 4 attempts with deterministic backoff and is a no-op on a healthy
    board.
    """

    def __init__(
        self,
        device: Device,
        *,
        chamber: "ThermalChamber | None" = None,
        supply: "PowerSupply | None" = None,
        fault_injector: "FaultInjector | None" = None,
        retry: "RetryPolicy | None" = None,
    ):
        self.device = device
        self.chamber = chamber or ThermalChamber()
        self.supply = supply or PowerSupply(
            max_voltage=max(6.0, device.spec.technology.vdd_abs_max + 1.0)
        )
        self.supply.connect(device)
        self.chamber.insert(device)
        self.debug = DebugPort(device)
        if fault_injector is None:
            plan = plan_from_env()
            fault_injector = FaultInjector(plan) if plan else None
        self.fault_injector = fault_injector
        self.retry = retry if retry is not None else RetryPolicy()

    # -- low-level sequencing --------------------------------------------------

    def _nominal_rail(self) -> float:
        if self.device.spec.has_regulator and not self.device.regulator.bypassed:
            return 5.0
        return self.device.spec.technology.vdd_nominal

    def power_on_nominal(self) -> np.ndarray:
        """Power the target at nominal conditions; returns power-on state."""
        self.supply.set_voltage(self._nominal_rail())
        return self.supply.on()

    def power_off(self, *, drain: bool = True) -> None:
        self.supply.off(drain=drain)

    # -- Algorithm 1: message encoding ----------------------------------------------

    def stage_payload(
        self,
        payload_bits: "np.ndarray | bytes",
        *,
        use_firmware: bool = True,
    ) -> None:
        """Load the payload into SRAM at nominal conditions (Alg. 1, 3-4).

        ``use_firmware=True`` takes the paper's path: generate the
        payload-writer assembly, flash it, and let the CPU copy the payload
        into SRAM before parking in its busy-wait.  ``use_firmware=False``
        takes the debugger bulk-write fast path (also available on real
        hardware) — the analog outcome is identical.  Either way the SRAM
        is read back and must match the payload.
        """
        bits = as_bit_array(payload_bits)
        if bits.size != self.device.sram.n_bits:
            raise CapacityError(
                f"payload is {bits.size} bits but {self.device.spec.name} "
                f"SRAM holds {self.device.sram.n_bits}"
            )
        with telemetry.trace(
            "board.stage",
            device=self.device.spec.name,
            payload_bits=bits.size,
            use_firmware=use_firmware,
        ):
            if self.device.powered:
                self.power_off()

            if use_firmware:
                payload_bytes = bits_to_bytes(bits)
                source = payload_writer_program(payload_bytes)
                self.device.load_firmware(source)
                self.power_on_nominal()
                if not self.device.cpu.spinning:
                    raise DeviceError("payload writer did not reach its busy-wait")
            else:
                self.device.load_firmware(retention_program())
                self.power_on_nominal()
                self.debug.write_sram_bits(bits)

            stored = self.debug.read_sram_bits()
            if not np.array_equal(stored, bits):
                raise DeviceError(
                    "SRAM readback does not match the staged payload"
                )

    def encode(
        self,
        *,
        stress_hours: float,
        vdd_stress: "float | None" = None,
        temp_stress_c: "float | None" = None,
    ) -> None:
        """Run the accelerated-aging stress period (Alg. 1, lines 5-6).

        Defaults come from the device's Table 4 recipe.  Regulated devices
        are bypassed at the inductor pin first (§7.2).
        """
        if not self.device.powered:
            raise DeviceError("stage a payload before encoding")
        recipe = self.device.spec.recipe
        vdd_stress = recipe.vdd_stress if vdd_stress is None else vdd_stress
        temp_stress_c = (
            recipe.temp_stress_c if temp_stress_c is None else temp_stress_c
        )
        if stress_hours <= 0:
            raise ConfigurationError("stress time must be positive")
        if self.fault_injector is not None:
            # Bench-level error sources (docs/faults.md): the chamber may
            # drift off its panel setpoint and the epoch may be cut short.
            temp_stress_c = self.fault_injector.drift_setpoint(temp_stress_c)
            stress_hours = self.fault_injector.interrupt_stress(stress_hours)

        with telemetry.trace(
            "board.stress",
            device=self.device.spec.name,
            stress_hours=stress_hours,
            vdd_stress=vdd_stress,
            temp_stress_c=temp_stress_c,
        ):
            if self.device.spec.has_regulator and not self.device.regulator.bypassed:
                self.device.regulator.bypass()

            self.chamber.set_temperature(temp_stress_c)
            self.supply.set_voltage(vdd_stress)
            self.device.advance(hours(stress_hours))
            # Back to nominal conditions before the device leaves the bench.
            self.supply.set_voltage(
                self.device.spec.technology.vdd_nominal
                if not self.device.spec.has_regulator
                or self.device.regulator.bypassed
                else 5.0
            )
            self.chamber.set_temperature(kelvin_to_celsius(self.chamber.ambient_k))

    def load_camouflage(self, *, run_seconds: float = 0.0) -> None:
        """Replace the payload writer with an innocuous program (Alg. 1's
        final step) and optionally let it run for a while."""
        if self.device.powered:
            self.power_off()
        self.device.load_firmware(
            camouflage_program(words=min(256, self.device.sram.n_bytes // 4))
        )
        if run_seconds > 0:
            self.power_on_nominal()
            self.device.run_workload(run_seconds)
            self.power_off()

    def encode_message(
        self,
        payload_bits: "np.ndarray | bytes",
        *,
        stress_hours: "float | None" = None,
        vdd_stress: "float | None" = None,
        temp_stress_c: "float | None" = None,
        use_firmware: bool = True,
        camouflage: bool = True,
    ) -> None:
        """The full sender-side flow: stage, stress, camouflage, power off."""
        recipe = self.device.spec.recipe
        stress_hours = recipe.stress_hours if stress_hours is None else stress_hours
        self.stage_payload(payload_bits, use_firmware=use_firmware)
        self.encode(
            stress_hours=stress_hours,
            vdd_stress=vdd_stress,
            temp_stress_c=temp_stress_c,
        )
        self.power_off()
        if camouflage:
            self.load_camouflage()

    # -- the adversary's functional check (threat model SS3) --------------------------

    def verify_device_functionality(self) -> dict:
        """What a border inspector does: boot it, poke memory, watch it run.

        Returns a report dict; every check passes on an encoded device —
        the digital-domain plausible deniability claim, as an executable.
        """
        if self.device.powered:
            self.power_off()
        boots = True
        try:
            self.power_on_nominal()
        except Exception:  # pragma: no cover - defensive
            boots = False
        cpu_runs = self.device.cpu.spinning or self.device.cpu.halted

        probe = b"\xa5\x5a\xc3\x3c" * 4
        self.debug.write_sram(probe, offset=0)
        memory_ok = self.debug.read_sram(0, len(probe)) == probe

        flash_ok = self.debug.read_flash(0, 16) != b"\xff" * 16
        self.power_off()
        return {
            "boots": boots,
            "cpu_runs": cpu_runs,
            "sram_read_write": memory_ok,
            "firmware_present": flash_ok,
            "functional": boots and cpu_runs and memory_ok and flash_ok,
        }

    # -- Algorithm 2: message decoding ---------------------------------------------

    def _read_capture(self, retry: "RetryPolicy | None") -> np.ndarray:
        """One capture read, fault-injected and retried.

        The injected failure mode (flaky debug port) strikes *before*
        bits move and the read itself is non-destructive, so a retried
        read returns the identical power-on state — transient I/O faults
        never change analog results, only cost attempts.
        """
        injector = self.fault_injector

        def attempt() -> np.ndarray:
            if injector is not None:
                injector.check_debug_port()
            bits = self.debug.read_sram_bits()
            return injector.filter_capture(bits) if injector is not None else bits

        if retry is None or retry.max_attempts <= 1:
            return attempt()
        return retry.call(attempt)

    def capture_power_on_states(
        self,
        n_captures: int = 5,
        *,
        off_seconds: float = 1.0,
        retry: "RetryPolicy | None" = None,
    ) -> Captures:
        """Capture N power-on states through the retention program
        (Alg. 2, lines 1-5).

        Returns :data:`~repro.bitutils.Captures` — shape
        ``(n_captures, n_bits)``, dtype ``uint8`` — the same convention
        as :meth:`InvisibleBits.capture_samples` and
        :func:`repro.io.load_captures`.  ``retry`` overrides the board's
        default policy for transient read failures (``None`` keeps it).
        """
        if not isinstance(n_captures, (int, np.integer)) or isinstance(
            n_captures, bool
        ):
            raise ConfigurationError(
                f"n_captures must be an integer, got {n_captures!r}"
            )
        if n_captures < 1:
            raise ConfigurationError(
                f"need at least one capture, got {n_captures}"
            )
        retry = self.retry if retry is None else retry
        with telemetry.trace(
            "board.capture",
            device=self.device.spec.name,
            n_captures=n_captures,
            off_seconds=off_seconds,
        ) as span:
            if self.device.powered:
                self.power_off()
            self.device.load_firmware(retention_program())
            samples = np.empty(
                (n_captures, self.device.sram.n_bits), dtype=np.uint8
            )
            stats_before = dict(self.device.sram.capture_stats)
            for i in range(n_captures):
                self.power_on_nominal()
                samples[i] = self._read_capture(retry)
                self.power_off()
                self.device.advance(off_seconds)
            span.count("board.captures", n_captures)
            _CAPTURES_TOTAL.inc(n_captures, device=self.device.spec.name)
            _CAPTURE_CELLS_TOTAL.inc(n_captures * self.device.sram.n_bits)
            stats = self.device.sram.capture_stats
            for key in ("band_cells", "cache_refreshes"):
                span.count(f"sram.{key}", stats[key] - stats_before[key])
            return samples

    def majority_power_on_state(
        self, n_captures: int = 5, *, off_seconds: float = 1.0
    ) -> np.ndarray:
        """Majority-voted power-on state (Alg. 2, line 6)."""
        if n_captures % 2 == 0:
            raise ConfigurationError(
                "use an odd number of captures so majority voting cannot tie"
            )
        return majority_vote(
            self.capture_power_on_states(n_captures, off_seconds=off_seconds)
        )

    def plan_fleet_capture(
        self, n_captures: int, off_seconds: float = 1.0
    ) -> "dict | None":
        """Stage this board's slice of a fleet-stacked capture burst.

        Runs the exact preamble of :meth:`capture_power_on_states` —
        power down, flash the retention program — then asks the array
        for its stacking record at the rail the next power-on would
        apply (see :meth:`SRAMArray.plan_fleet_capture`).  Returns
        ``None`` when only the per-capture loop can measure this slot: a
        fault injector is attached (injected faults interleave with the
        per-capture reads), or the array itself declines the burst.
        """
        if self.device.powered:
            self.power_off()
        self.device.load_firmware(retention_program())
        if self.fault_injector is not None:
            return None
        vdd = self.device.regulator.core_voltage(self._nominal_rail())
        return self.device.sram.plan_fleet_capture(
            n_captures, off_seconds, vdd=vdd
        )
