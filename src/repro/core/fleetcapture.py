"""Fleet-vectorized power-on capture: one stacked pass for a whole tray.

The paper's §5.3 fleet workflow measures every device with the same
protocol — N drained power cycles, majority vote, channel error against
the staged payload.  Measuring a tray capture-by-capture leaves
throughput bounded by per-capture kernel launches; this module evaluates
each device's whole burst as **one** numpy broadcast over
``band-cells x captures`` instead:

- Each eligible array stages a *stacking record*
  (:meth:`~repro.sram.array.SRAMArray.plan_fleet_capture`): its cached
  noise-band arrays, noise sigma, and both inverters' per-capture
  ``pending_relax`` trajectories.
- :meth:`~repro.sram.array.SRAMArray.burst_decisions` evaluates a slot's
  whole burst in one broadcast — the same kernel a single array's
  ``capture_power_on_states`` runs — with band noise drawn from **each
  device's own generator**: one ``(n_captures, band)`` block, which
  consumes the stream exactly like the per-capture loop's successive
  draws.  Results are bit-identical to
  :meth:`ControlBoard.capture_power_on_states` for any device order or
  tray composition.  This module only orchestrates the tray: planning,
  fallback, voting, per-slot ones counts, metrics.
- Slots the kernel cannot take — a fault injector is attached, remanence
  could reach the first capture, or the drift bound cannot guarantee a
  refresh-free burst — fall back to the exact per-capture loop, which is
  bit-identical by construction.

Bit-identity against the device loop is enforced by the
``fleet.capture_vs_device_loop`` oracle (``repro verify``) plus a planted
mutant; throughput is gated by ``fleet_capture_speedup`` in
``BENCH_substrate.json`` (>= 10x over the naive per-device loop on the
8-device x 64 KiB x 5-capture tray).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import metrics, telemetry
from ..bitutils import bit_error_rate, invert_bits, majority_vote
from ..errors import ConfigurationError, SlotError

# Shared (get-or-create) with the board and array capture paths; a device
# measured through the fleet kernel ticks the same instruments it would
# have through its own board loop.
_CAPTURES_TOTAL = metrics.counter(
    "repro_captures_total",
    "Power-on captures taken through a control board, by device",
    labelnames=("device",),
)
_CAPTURE_CELLS_TOTAL = metrics.counter(
    "repro_capture_cells_total",
    "Cells evaluated across all power-on captures",
)

__all__ = ["FleetCapture", "capture_fleet"]


@dataclass(frozen=True)
class FleetCapture:
    """Per-slot results of one tray-wide capture burst.

    ``states`` holds each slot's majority-voted power-on state and
    ``ones`` its per-cell count of captures that read 1 (the vote
    margins soft decoding consumes; cells outside the noise band count
    ``n_captures`` times their noise-free decision); ``errors`` the
    channel error against the staged payloads (``None`` when no payloads
    were given); ``frames`` the full ``(n_captures, n_bits)`` capture
    stacks (on request only — the measurement path never materializes
    them).  ``vectorized[i]`` says whether slot ``i`` took the stacked
    kernel or the exact per-capture loop; in resilient mode a failed
    slot carries its exception in ``slot_errors[i]`` with
    ``states``/``ones``/``errors`` entries of ``None``.
    """

    states: "list[np.ndarray | None]"
    ones: "list[np.ndarray | None]"
    errors: "list[float | None] | None"
    frames: "list[np.ndarray] | None"
    vectorized: "tuple[bool, ...]"
    attempts: "tuple[int, ...]"
    slot_errors: "tuple[Exception | None, ...]"
    n_captures: int


def capture_fleet(
    boards,
    n_captures: int = 5,
    *,
    off_seconds: float = 1.0,
    payloads: "list[np.ndarray] | None" = None,
    return_frames: bool = False,
    resilient: bool = False,
    retry=None,
) -> FleetCapture:
    """Measure a tray of boards' power-on behaviour in one stacked pass.

    For every board: take ``n_captures`` drained power cycles, majority
    vote, and (when ``payloads`` are given) compute the channel error
    against the staged payload — bit-identical to running
    :meth:`ControlBoard.majority_power_on_state` per board, in any order.

    ``retry`` wraps each *fallback* slot's whole capture loop (the
    resilient rack semantics); kernel slots have no transient failure
    modes, so they always count one attempt.  ``resilient=True`` records
    a failing slot's exception in :attr:`FleetCapture.slot_errors`
    instead of raising; otherwise the first failure raises a
    :class:`~repro.errors.SlotError` naming the slot.
    """
    boards = list(boards)
    if not isinstance(n_captures, (int, np.integer)) or isinstance(
        n_captures, bool
    ):
        raise ConfigurationError(
            f"n_captures must be an integer, got {n_captures!r}"
        )
    if n_captures < 1:
        raise ConfigurationError(f"need at least one capture, got {n_captures}")
    if n_captures % 2 == 0:
        raise ConfigurationError(
            "use an odd number of captures so majority voting cannot tie"
        )
    if payloads is not None and len(payloads) != len(boards):
        raise ConfigurationError(
            f"{len(payloads)} payloads for {len(boards)} boards"
        )

    n_slots = len(boards)
    states: "list[np.ndarray | None]" = [None] * n_slots
    ones: "list[np.ndarray | None]" = [None] * n_slots
    frames: "list[np.ndarray | None]" = [None] * n_slots
    errors: "list[float | None]" = [None] * n_slots
    plans: "list[dict | None]" = [None] * n_slots
    attempts = [1] * n_slots
    slot_errors: "list[Exception | None]" = [None] * n_slots
    vectorized = [False] * n_slots

    def record_failure(index: int, exc: Exception) -> None:
        if resilient:
            slot_errors[index] = exc
            return
        raise SlotError(
            f"slot {index} ({boards[index].device.spec.name}): "
            f"{type(exc).__name__}: {exc}",
            slot=index,
        ) from exc

    with telemetry.trace(
        "fleet.capture",
        devices=n_slots,
        n_captures=n_captures,
        off_seconds=off_seconds,
    ) as span:
        for index, board in enumerate(boards):
            try:
                plans[index] = board.plan_fleet_capture(n_captures, off_seconds)
            except Exception as exc:
                record_failure(index, exc)

        for i, plan in enumerate(plans):
            if plan is None:
                continue
            sram = boards[i].device.sram
            base = plan["cache"]["decision_base"]
            band = plan["cache"]["band"]
            decisions = sram.burst_decisions(plan)
            votes = decisions.sum(axis=0, dtype=np.int32)
            ones[i] = np.multiply(base, n_captures, dtype=np.int32)
            ones[i][band] = votes
            states[i] = base.copy()
            states[i][band] = 2 * votes >= n_captures
            if return_frames:
                stack = np.broadcast_to(base, (n_captures, base.size)).copy()
                stack[:, band] = decisions
                frames[i] = stack
            sram.commit_fleet_capture(n_captures, off_seconds, band.size)
            vectorized[i] = True

        for i in range(n_slots):
            if vectorized[i] or slot_errors[i] is not None:
                continue
            count = [0]

            def one_loop(board=boards[i]):
                count[0] += 1
                return board.capture_power_on_states(
                    n_captures, off_seconds=off_seconds
                )

            try:
                if retry is not None and retry.max_attempts > 1:
                    stack = retry.call(one_loop)
                else:
                    stack = one_loop()
            except Exception as exc:
                attempts[i] = count[0]
                record_failure(i, exc)
                continue
            attempts[i] = count[0]
            states[i] = majority_vote(stack)
            ones[i] = stack.sum(axis=0, dtype=np.int32)
            if return_frames:
                frames[i] = stack

        per_device_ber = []
        for i in range(n_slots):
            if states[i] is None:
                continue
            board = boards[i]
            name = board.device.spec.name
            if vectorized[i]:
                # Fallback slots already ticked these inside
                # capture_power_on_states; kernel slots tick here.
                _CAPTURES_TOTAL.inc(n_captures, device=name)
                _CAPTURE_CELLS_TOTAL.inc(n_captures * board.device.sram.n_bits)
            if payloads is not None:
                errors[i] = bit_error_rate(
                    payloads[i], invert_bits(states[i])
                )
                per_device_ber.append([name, errors[i]])

        span.set(
            vectorized=sum(1 for v in vectorized if v),
            fallbacks=sum(
                1
                for i in range(n_slots)
                if not vectorized[i] and slot_errors[i] is None
            ),
            failed=sum(1 for e in slot_errors if e is not None),
        )
        if per_device_ber:
            span.set(ber=per_device_ber)
        # Fallback slots fold their own board.captures via the nested
        # board.capture span; count only the kernel slots here.
        span.count(
            "board.captures",
            n_captures * sum(1 for v in vectorized if v),
        )

    return FleetCapture(
        states=states,
        ones=ones,
        errors=errors if payloads is not None else None,
        frames=frames if return_frames else None,
        vectorized=tuple(vectorized),
        attempts=tuple(attempts),
        slot_errors=tuple(slot_errors),
        n_captures=n_captures,
    )
