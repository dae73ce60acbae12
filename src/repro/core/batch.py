"""Fleet operations: encode many devices and pick the best.

The paper's §5.3 points out that devices "can be encoded in parallel" (a
tray of boards sharing one thermal chamber run) and that shipping the
least-error device out of a batch multiplies capacity (their 160x
headline).  This module runs that workflow on simulated fleets: encode a
probe payload on every candidate, measure each channel, rank, and hand
back the winner bound to the best-rate ECC meeting the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..api import SendResult, bits_digest
from ..device.catalog import make_varied_device
from ..errors import ConfigurationError, DeviceError, SlotError
from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..harness.controlboard import ControlBoard
from ..rng import make_rng, spawn
from .fleetcapture import capture_fleet
from .planner import plan_scheme


@dataclass(frozen=True)
class FleetMember:
    """One encoded candidate with its measured channel error."""

    index: int
    board: ControlBoard
    measured_error: float


@dataclass(frozen=True)
class FleetSelection:
    """The ranked fleet plus the chosen scheme for the winner.

    ``failures`` holds the :class:`~repro.errors.SlotError` of every
    candidate that could not be encoded or measured (empty on a healthy
    fleet); ``members`` contains only the survivors, ranked.
    ``results`` carries one :class:`~repro.api.SendResult` per survivor
    (probe payloads are raw unframed bits, so ``coded_bits`` equals the
    array size) — the same typed surface the pipeline and the service
    frontend return.
    """

    members: list[FleetMember]
    winner: FleetMember
    scheme: "object"  # repro.ecc Code
    failures: "tuple[SlotError, ...]" = ()
    results: "tuple[SendResult, ...]" = ()

    @property
    def errors(self) -> list[float]:
        return [m.measured_error for m in self.members]

    @property
    def survivors(self) -> int:
        return len(self.members)


def encode_fleet(
    *,
    device_name: str = "MSP432P401",
    n_devices: int = 5,
    sram_kib: float = 1,
    stress_hours: "float | None" = None,
    target_error: float = 1e-4,
    rng: "int | np.random.Generator | None" = 0,
    fault_plan: "FaultPlan | None" = None,
    retry: "RetryPolicy | None" = None,
) -> FleetSelection:
    """Encode ``n_devices`` candidates with a probe payload and select.

    Each candidate gets its own process variation and device-to-device
    aging magnitude; the probe payload is random (so the measured error is
    the channel's, not the payload's).  Returns every member ranked plus
    the winner with the highest-rate scheme hitting ``target_error``.

    Candidates are encoded one after another, in slot order, inside one
    ``fleet.encode`` trace.  Every device draws from its own pre-assigned
    generator spawned from ``rng`` — see :func:`repro.rng.spawn` — and
    payloads are pre-drawn in slot order.

    Fleet resilience (docs/faults.md): a candidate whose encode or
    measurement fails — for real, or under ``fault_plan`` (each slot gets
    its own injector, salted by index) — is dropped from the ranking and
    recorded on :attr:`FleetSelection.failures` instead of sinking the
    whole fleet.  Transient device faults are retried under ``retry``
    first (the default policy; pass ``RetryPolicy.none()`` to disable).
    Only an empty survivor set raises.
    """
    if n_devices < 1:
        raise ConfigurationError("need at least one device")
    retry = retry if retry is not None else RetryPolicy()
    gen = make_rng(rng)
    payload_rng = np.random.default_rng(gen.integers(0, 2**63))
    n_bits = int(sram_kib * 8192)
    payloads = [
        payload_rng.integers(0, 2, n_bits).astype(np.uint8)
        for _ in range(n_devices)
    ]
    streams = spawn(gen, n_devices)

    with telemetry.trace(
        "fleet.encode",
        device=device_name,
        n_devices=n_devices,
        sram_kib=sram_kib,
    ) as span:
        encoded: "list[tuple[int, ControlBoard]]" = []
        failure_list: "list[SlotError]" = []
        for index in range(n_devices):
            device = make_varied_device(
                device_name, rng=streams[index], sram_kib=sram_kib
            )
            board = ControlBoard(
                device,
                fault_injector=(
                    FaultInjector(fault_plan, salt=index) if fault_plan else None
                ),
                retry=retry,
            )
            try:
                board.encode_message(
                    payloads[index],
                    stress_hours=stress_hours,
                    use_firmware=False,
                    camouflage=False,
                )
            except DeviceError as exc:
                telemetry.count("slots.failed")
                failure_list.append(SlotError.wrap(index, device.spec.name, exc))
            else:
                encoded.append((index, board))

        # The probe measurement runs fleet-wide through the stacked
        # capture kernel; per-device generators keep it bit-identical to
        # the per-slot loop this replaced.
        members = []
        if encoded:
            fleet = capture_fleet(
                [board for _, board in encoded],
                5,
                payloads=[payloads[index] for index, _ in encoded],
                resilient=True,
            )
            for pos, (index, board) in enumerate(encoded):
                exc = fleet.slot_errors[pos]
                if exc is None:
                    members.append(
                        FleetMember(
                            index=index,
                            board=board,
                            measured_error=fleet.errors[pos],
                        )
                    )
                elif isinstance(exc, DeviceError):
                    telemetry.count("slots.failed")
                    failure_list.append(
                        SlotError.wrap(index, board.device.spec.name, exc)
                    )
                else:
                    raise exc
        failure_list.sort(key=lambda e: e.slot)
        failures = tuple(failure_list)
        if not members:
            raise SlotError(
                f"all {n_devices} fleet candidates failed; first: {failures[0]}",
                slot=failures[0].slot,
            ) from failures[0]
        members.sort(key=lambda m: m.measured_error)
        winner = members[0]
        send_results = tuple(
            SendResult(
                device_id=m.board.device.device_id.hex(),
                message_bytes=n_bits // 8,
                coded_bits=n_bits,
                stress_hours=(
                    stress_hours
                    if stress_hours is not None
                    else m.board.device.spec.recipe.stress_hours
                ),
                encrypted=False,
                payload_digest=bits_digest(payloads[m.index]),
            )
            for m in members
        )
        scheme = plan_scheme(max(winner.measured_error, 1e-6), target_error)
        span.set(
            winner_index=winner.index,
            winner_error=winner.measured_error,
            survivors=len(members),
            failed=len(failures),
            scheme=getattr(scheme, "name", str(scheme)),
        )
        return FleetSelection(
            members=members,
            winner=winner,
            scheme=scheme,
            failures=failures,
            results=send_results,
        )
