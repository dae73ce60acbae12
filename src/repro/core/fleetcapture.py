"""Fleet-vectorized power-on capture: one stacked pass for a whole tray.

The paper's §5.3 fleet workflow measures every device with the same
protocol — N drained power cycles, majority vote, channel error against
the staged payload.  Measuring a tray capture-by-capture leaves
throughput bounded by per-capture kernel launches, and measuring it
device-by-device leaves it bounded by per-device numpy overhead (a
0.25 KiB service device has only 4-63 noise-band cells).  This module
evaluates the tray in **stacked chunks**: every slot's band cells of all
captures in one pass over ``captures x (concatenated bands)``.

- Planning stays per slot: each board powers down, makes sure the
  retention program is in Flash (a board that already holds it, with no
  Flash write since, flashes nothing) and stages a *stacking record*
  (:meth:`~repro.sram.array.SRAMArray.plan_fleet_capture`): its cached
  noise-band arrays, noise sigma, shelf gap and both inverters'
  per-capture ``pending_relax`` trajectories.
- Slots are grouped in slot order into chunks whose bands sum to at most
  :data:`STACK_BAND_CELLS`; a slot whose band alone exceeds the budget
  (a 64 KiB device carries ~55k band cells) runs as a chunk of one,
  where stacking would only add copies.
- Per chunk, each slot's noise is drawn from **its own generator**
  (:meth:`~repro.sram.array.SRAMArray.burst_noise`: one
  ``(n_captures, band)`` block, which consumes the stream exactly like
  the per-capture loop's successive draws), and
  :func:`repro.sram.array._stacked_decisions` — the kernel a single
  array's ``capture_power_on_states`` runs with one plan — evaluates the
  whole chunk, each cell with its own slot's pending relax, constants
  and sigma.  The votes, ``ones``, states, frames (on request) and the
  payload BER are then computed once over the chunk's flat layout (slot
  ``i``'s bits after slots ``0..i-1``'s, so mixed-size trays stack too);
  each slot's results are views of those arrays.  Any chunking gives the
  same bits: results are bit-identical to
  :meth:`ControlBoard.capture_power_on_states` for any device order or
  tray composition.
- Each kernel slot then commits its burst in one step
  (:meth:`~repro.sram.array.SRAMArray.commit_fleet_capture`: the end of
  the planned relax trajectory, the same doubles ``n_captures`` shelf
  gaps leave), and the tray ticks ``repro_captures_total`` once per
  device name and ``repro_capture_cells_total`` once, with the sums.
- Slots the kernel cannot take — a fault injector is attached, remanence
  could reach the first capture, or the drift bound cannot guarantee a
  refresh-free burst — fall back to the exact per-capture loop, which is
  bit-identical by construction.

Bit-identity against the per-capture loop is enforced by the
``fleet.capture_vs_device_loop`` oracle (``repro verify``) plus planted
mutants; throughput is gated by ``fleet_capture_speedup`` in
``BENCH_substrate.json`` (>= 10x over the naive per-device loop on the
8-device x 64 KiB x 5-capture tray) and by
``fleet_group_capture_speedup`` (>= 1.5x over capturing a 16-device
service group one device at a time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import metrics, telemetry
from ..bitutils import bit_error_rate, invert_bits, majority_vote
from ..errors import ConfigurationError, SlotError
from ..sram import array as sram_array

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

#: Band cells (summed over slots) one stacked kernel pass takes.  A
#: 0.25 KiB service device at 24 h carries 4-63 band cells, so a whole
#: receive group fits one pass and shares its per-call overhead; a
#: 64 KiB device's ~55k-cell band exceeds the budget and runs alone,
#: where concatenating it with others would only add copies.
STACK_BAND_CELLS = 4096

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


def _chunks(plans: list):
    """Runs of the planned slots (in slot order) whose bands sum to at
    most :data:`STACK_BAND_CELLS`; a slot whose band alone exceeds it
    runs by itself."""
    chunk, cells = [], 0
    for i, plan in enumerate(plans):
        if plan is None:
            continue
        band = plan["cache"]["band"].size
        if chunk and cells + band > STACK_BAND_CELLS:
            yield chunk
            chunk, cells = [], 0
        chunk.append(i)
        cells += band
    if chunk:
        yield chunk


def _stacked_burst(srams, plans, n_captures, payloads, return_frames):
    """One chunk's burst, evaluated as one flat array.

    The slots' bits lie end to end (slot ``i`` at the sum of the earlier
    slots' sizes), so trays of mixed sizes stack too.  Returns per-slot
    lists of states, ones, errors and frames; the arrays are views of the
    chunk's stacked ones.  An error is ``None`` when no payloads were
    given or one is misshapen (the caller's :func:`bit_error_rate` then
    raises as the device loop would).
    """
    noises = [sram.burst_noise(plan) for sram, plan in zip(srams, plans)]
    decisions = sram_array._stacked_decisions(plans, noises)
    caches = [plan["cache"] for plan in plans]
    sizes = [sram.n_bits for sram in srams]
    starts = sram_array._starts(sizes)
    band = sram_array._cat_shifted([cache["band"] for cache in caches], starts)
    states = sram_array._cells(caches, "decision_base").copy()
    ones = states * np.int32(n_captures)
    stack = (
        np.broadcast_to(states, (n_captures, states.size)).copy()
        if return_frames
        else None
    )
    votes = decisions.sum(axis=0, dtype=np.int32)
    ones[band] = votes
    states[band] = votes > n_captures // 2  # odd n: the majority
    if stack is not None:
        stack[:, band] = decisions
    errors = [None] * len(sizes)
    if payloads is not None and all(
        np.shape(payload) == (size,) for payload, size in zip(payloads, sizes)
    ):
        # A cell reads right when its payload bit is the complement of its
        # state, i.e. when the two XOR to 1.
        truth = sram_array._cat(payloads)
        wrong = np.bitwise_xor(truth, states, dtype=np.uint8, casting="unsafe") != 1
        counts = (
            [np.count_nonzero(wrong)]
            if len(sizes) == 1
            else np.add.reduceat(wrong, starts, dtype=np.intp)
        )
        errors = [int(count) / size for count, size in zip(counts, sizes)]
    if len(sizes) == 1:
        return [states], [ones], errors, [stack]
    slots = [slice(start, start + size) for start, size in zip(starts, sizes)]
    return (
        [states[slot] for slot in slots],
        [ones[slot] for slot in slots],
        errors,
        [None if stack is None else stack[:, slot] for slot in slots],
    )


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

        for chunk in _chunks(plans):
            srams = [boards[i].device.sram for i in chunk]
            burst = _stacked_burst(
                srams,
                [plans[i] for i in chunk],
                n_captures,
                None if payloads is None else [payloads[i] for i in chunk],
                return_frames,
            )
            for i, sram, state, count, error, stack in zip(chunk, srams, *burst):
                states[i], ones[i], errors[i], frames[i] = state, count, error, stack
                sram.commit_fleet_capture(plans[i])
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

        # Fallback slots already ticked these inside
        # capture_power_on_states; kernel slots tick here, once per
        # device name with the tray's sum.
        kernel_captures: "dict[str, int]" = {}
        kernel_cells = 0
        for board, kernel in zip(boards, vectorized):
            if kernel:
                name = board.device.spec.name
                kernel_captures[name] = kernel_captures.get(name, 0) + n_captures
                kernel_cells += n_captures * board.device.sram.n_bits
        for name, count in kernel_captures.items():
            _CAPTURES_TOTAL.inc(count, device=name)
        if kernel_cells:
            _CAPTURE_CELLS_TOTAL.inc(kernel_cells)

        per_device_ber = []
        for i in range(n_slots):
            if states[i] is None or payloads is None:
                continue
            if errors[i] is None:  # fallback slot, or a misshapen payload
                errors[i] = bit_error_rate(payloads[i], invert_bits(states[i]))
            per_device_ber.append([boards[i].device.spec.name, errors[i]])

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
