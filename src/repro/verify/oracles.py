"""The oracle registry: every bit-identity contract as an executable check.

An *oracle* is a differential contract — two implementations, two code
paths, or a path and its closed-form reference — that must agree
bit-for-bit (or within a declared statistical tolerance).  Each one is a
plain function taking generated inputs, registered with
:func:`oracle`; the :class:`~repro.verify.runner.Runner` sweeps it over
seeded examples and shrinks any counterexample.

A *mutant* is the harness's own test: a seeded, known defect (a
single stuck bit injected through a :class:`~repro.faults.FaultPlan`, a
decoder that flips one bit, an off-by-one CTR counter) run through the
same contract.  A sound oracle must *catch* it — the mutation smoke mode
(:func:`repro.verify.suite.run_mutation_smoke`) asserts exactly that, so
a contract that silently stopped checking anything cannot stay green.

Heavy rigs (full device round-trips, fleets) declare a low per-oracle
example cap; light algebraic contracts run at the sweep's full budget.
All heavy imports are deferred to call time so importing the registry is
cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators as g
from .runner import check_that

__all__ = [
    "Oracle",
    "all_oracles",
    "get_oracle",
    "mutant",
    "mutants_for",
    "oracle",
]

_DEVICE = "MSP432P401"
_KEY16 = b"0123456789abcdef"


@dataclass(frozen=True)
class Oracle:
    """One registered differential contract."""

    name: str
    fn: Callable
    gens: tuple
    doc: str
    examples: "int | None" = None  # per-oracle example cap (None = sweep budget)


_REGISTRY: "dict[str, Oracle]" = {}
_MUTANTS: "dict[str, dict[str, Callable]]" = {}


def oracle(name: str, *, gens, examples: "int | None" = None):
    """Register a differential contract under ``name``."""

    def decorate(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"oracle {name!r} is already registered")
        doc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        _REGISTRY[name] = Oracle(
            name=name, fn=fn, gens=tuple(gens), doc=doc, examples=examples
        )
        return fn

    return decorate


def mutant(oracle_name: str, mutant_name: str):
    """Register a known defect that ``oracle_name``'s contract must catch.

    The decorated function receives an RNG, wires the defect into the
    contract's own comparison, and re-runs it; a sound harness raises
    :class:`~repro.verify.runner.ContractViolation` (detection).
    Returning silently means the oracle can no longer see a planted bug.
    """

    def decorate(fn: Callable) -> Callable:
        _MUTANTS.setdefault(oracle_name, {})[mutant_name] = fn
        return fn

    return decorate


def all_oracles() -> "list[Oracle]":
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_oracle(name: str) -> Oracle:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown oracle {name!r}; known: {known}")
    return _REGISTRY[name]


def mutants_for(oracle_name: str) -> "dict[str, Callable]":
    return dict(_MUTANTS.get(oracle_name, {}))


def all_mutants() -> "list[tuple[str, str, Callable]]":
    return [
        (oracle_name, mutant_name, fn)
        for oracle_name in sorted(_MUTANTS)
        for mutant_name, fn in sorted(_MUTANTS[oracle_name].items())
    ]


# -- shared rigs -------------------------------------------------------------


def _aged_array(seed: int, kib: float, stress_h: float):
    """A deterministically aged, unpowered SRAM array (twin-safe)."""
    from ..device.catalog import device_spec
    from ..sram.array import SRAMArray
    from ..units import hours

    profile = device_spec(_DEVICE).technology
    array = SRAMArray.from_kib(kib, profile, rng=seed)
    array.apply_power()
    payload = (
        np.random.default_rng(seed + 1).integers(0, 2, array.n_bits).astype(np.uint8)
    )
    array.write(payload)
    array.set_voltage(min(3.0, profile.vdd_abs_max))
    array.hold(hours(stress_h))
    array.remove_power()
    return array


def _board(seed: int, kib: float = 0.5, fault_injector=None):
    from ..device.catalog import make_device
    from ..harness.controlboard import ControlBoard

    return ControlBoard(
        make_device(_DEVICE, rng=seed, sram_kib=kib),
        fault_injector=fault_injector,
    )


def _roundtrip(board, message: bytes, scheme):
    """Send + receive one message; returns (EncodeResult, DecodeResult)."""
    from ..core.pipeline import InvisibleBits

    channel = InvisibleBits(board, scheme=scheme, use_firmware=False)
    sent = channel.send(message, camouflage=False)
    return sent, channel.receive(expected_payload=sent.payload_bits)


def _paper_scheme(n_captures: int = 3):
    from ..core.scheme import CodingScheme
    from ..ecc.product import paper_end_to_end_code

    return CodingScheme(
        key=_KEY16, ecc=paper_end_to_end_code(3), n_captures=n_captures
    )


def _code_catalog() -> "dict[str, Callable]":
    """Every Code family by name, simplest first (shrink order)."""
    from ..ecc.base import IdentityCode
    from ..ecc.bch import BCHCode
    from ..ecc.hamming import hamming_3_1, hamming_7_4
    from ..ecc.interleave import BlockInterleaver
    from ..ecc.product import ConcatenatedCode, paper_end_to_end_code
    from ..ecc.repetition import RepetitionCode

    return {
        "identity": IdentityCode,
        "rep3-block": lambda: RepetitionCode(3),
        "rep5-bitwise": lambda: RepetitionCode(5, layout="bitwise"),
        "hamming31": hamming_3_1,
        "hamming74": hamming_7_4,
        "bch15t2": lambda: BCHCode(4, 2),
        "interleave3x7": lambda: BlockInterleaver(3, 7),
        "paper-x3": lambda: paper_end_to_end_code(3),
        "hamming+interleave": lambda: ConcatenatedCode(
            hamming_7_4(), BlockInterleaver(7, 3)
        ),
    }


#: Codes with minimum distance >= 3 (correct any single bit error).
_SINGLE_ERROR_CODES = (
    "rep3-block",
    "rep5-bitwise",
    "hamming31",
    "hamming74",
    "bch15t2",
    "paper-x3",
)

#: Single-stage codes for which the soft decoder provably collapses to
#: the hard decoder at saturated LLRs on *arbitrary* words.  Composites
#: are excluded by design: a repetition-combined stage hands the outer
#: Chase decoder non-uniform magnitudes, where beating the hard chain is
#: legitimate; BCH's bounded-distance decoder returns the received data
#: on failure blocks, which is not a maximum-likelihood baseline.  Those
#: paths are pinned on near-codewords inside ``ecc.soft_repetition``.
_SOFT_FLAT_CODES = (
    "identity",
    "rep3-block",
    "rep5-bitwise",
    "hamming31",
    "hamming74",
    "interleave3x7",
)


# -- capture / harness contracts ---------------------------------------------


@oracle(
    "capture.batch_vs_loop",
    gens=(
        g.seeds(),
        g.odd_integers(1, 5, name="n_captures"),
        g.sampled_from([0.25, 0.5], name="kib"),
        g.sampled_from([0.5, 2.0, 6.0], name="stress_h"),
    ),
    examples=6,
)
def capture_batch_vs_loop(seed, n_captures, kib, stress_h):
    """Batched capture engine is bit-identical to the N-fold power_cycle loop."""
    a = _aged_array(seed, kib, stress_h)
    b = _aged_array(seed, kib, stress_h)
    batch = a.capture_power_on_states(n_captures)
    loop = np.stack([b.power_cycle() for _ in range(n_captures)])
    check_that(
        np.array_equal(batch, loop),
        f"batch capture diverged from the power-cycle loop on "
        f"{int(np.count_nonzero(batch != loop))} bits",
    )


def _fleet_rig(
    seed: int, n_devices: int, kib: "float | str", stress_h: float
):
    """A staged-and-stressed tray, twin-safe: same seed -> same tray.

    ``kib="mixed"`` alternates 0.25 and 0.5 KiB devices.
    """
    from ..device.catalog import make_device
    from ..harness.rack import EncodingRack

    sizes = [0.25, 0.5] if kib == "mixed" else [kib]
    devices = [
        make_device(_DEVICE, rng=seed + index, sram_kib=sizes[index % len(sizes)])
        for index in range(n_devices)
    ]
    rack = EncodingRack(devices)
    rng = np.random.default_rng(seed + 99)
    payloads = [
        rng.integers(0, 2, board.device.sram.n_bits).astype(np.uint8)
        for board in rack.boards
    ]
    rack.stage_payloads(payloads)
    rack.stress_all(stress_hours=stress_h)
    return rack, payloads


@oracle(
    "fleet.capture_vs_device_loop",
    gens=(
        g.seeds(),
        g.sampled_from([1, 2, 3, 16], name="n_devices"),
        g.odd_integers(1, 5, name="n_captures"),
        g.sampled_from([0.25, 0.5, "mixed"], name="kib"),
        g.sampled_from([2.0, 24.0], name="stress_h"),
    ),
    examples=6,
)
def fleet_capture_vs_device_loop(seed, n_devices, n_captures, kib, stress_h):
    """The stacked fleet kernel is bit-identical to the per-capture loop:
    frames, majority states, channel errors, AND the committed analog
    trajectory (pending relax, flush counts) all match a twin tray
    measured board by board, one power cycle at a time."""
    from ..core.fleetcapture import capture_fleet

    rack_a, payloads = _fleet_rig(seed, n_devices, kib, stress_h)
    rack_b, _ = _fleet_rig(seed, n_devices, kib, stress_h)

    fleet = capture_fleet(
        rack_a.boards, n_captures, payloads=payloads, return_frames=True
    )
    # Boards carrying a fault injector (e.g. the CI chaos sweep's ambient
    # REPRO_FAULT_PLAN) must opt out of the kernel; injector-free boards
    # must never fall back.  Bit-identity below holds either way.
    expected = tuple(board.fault_injector is None for board in rack_a.boards)
    check_that(
        fleet.vectorized == expected,
        f"kernel routing {fleet.vectorized} != injector map {expected}",
    )
    _check_fleet_against_loop(fleet, rack_a, rack_b, payloads, n_captures)


def _check_fleet_against_loop(fleet, rack_a, rack_b, payloads, n_captures):
    """Compare ``fleet`` (taken on ``rack_a``) with the twin ``rack_b``
    measured by :meth:`ControlBoard.capture_power_on_states`: one
    ``apply_power`` per capture, each sampling through
    ``SRAMArray._sample_power_on`` and ``_band_decisions``.  The stacked
    kernel is disarmed while the reference runs, so the reference cannot
    share a defect with the path it checks."""
    from ..bitutils import bit_error_rate, invert_bits, majority_vote
    from ..sram import array as sram_array

    stacked = sram_array._stacked_decisions

    def disarmed(plans, noises):
        raise AssertionError("the per-capture reference reached the stacked kernel")

    sram_array._stacked_decisions = disarmed
    try:
        stacks = [board.capture_power_on_states(n_captures) for board in rack_b.boards]
    finally:
        sram_array._stacked_decisions = stacked
    for index, (board, stack) in enumerate(zip(rack_b.boards, stacks)):
        diverged = int(np.count_nonzero(fleet.frames[index] != stack))
        check_that(
            diverged == 0,
            f"slot {index} kernel frames diverged from the device loop "
            f"on {diverged} bits",
        )
        state = majority_vote(stack)
        check_that(
            np.array_equal(fleet.states[index], state),
            f"slot {index} majority state diverged",
        )
        error = bit_error_rate(payloads[index], invert_bits(state))
        check_that(
            fleet.errors[index] == error,
            f"slot {index} error {fleet.errors[index]} != loop {error}",
        )
        sram_a = rack_a.boards[index].device.sram
        sram_b = board.device.sram
        check_that(
            sram_a.age_when_1.pending_relax == sram_b.age_when_1.pending_relax
            and sram_a.age_when_0.pending_relax
            == sram_b.age_when_0.pending_relax,
            f"slot {index} committed pending relax diverged",
        )
        check_that(
            sram_a.age_when_1.flushes == sram_b.age_when_1.flushes
            and sram_a.age_when_0.flushes == sram_b.age_when_0.flushes,
            f"slot {index} flush counts diverged",
        )


# -- stacked decode contract --------------------------------------------------


def _reference_decode(code, bits: np.ndarray):
    """The per-device hard decoders a stacked decode replaced, kept as the
    reference: one word in, ``(decoded, [(counter, value), ...])`` out."""
    from ..bitutils import majority_vote
    from ..ecc.base import IdentityCode
    from ..ecc.hamming import HammingCode
    from ..ecc.interleave import BlockInterleaver
    from ..ecc.product import ConcatenatedCode
    from ..ecc.repetition import RepetitionCode

    if isinstance(code, ConcatenatedCode):
        inner, inner_counts = _reference_decode(code.inner, bits)
        outer, outer_counts = _reference_decode(code.outer, inner)
        return outer, inner_counts + outer_counts
    if isinstance(code, RepetitionCode):
        if code.layout == "block":
            samples = bits.reshape(code.copies, -1)
        else:
            samples = bits.reshape(-1, code.copies).T
        voted = majority_vote(samples)
        overruled = samples != voted[None, :]
        return voted, [
            ("ecc.repetition.overruled", int(np.count_nonzero(overruled))),
            (
                "ecc.repetition.corrections",
                int(np.count_nonzero(overruled.any(axis=0))),
            ),
            ("ecc.repetition.bits", int(voted.size)),
        ]
    if isinstance(code, HammingCode):
        blocks = bits.reshape(-1, code.n).copy()
        syndrome = (blocks @ code._h.T) % 2
        error_pos = (syndrome.astype(np.int64) << np.arange(code.r)).sum(axis=1)
        rows = np.nonzero(error_pos > 0)[0]
        blocks[rows, error_pos[rows] - 1] ^= 1
        return blocks[:, code._data_positions - 1].ravel(), [
            ("ecc.hamming.corrections", int(rows.size)),
            ("ecc.hamming.blocks", int(blocks.shape[0])),
        ]
    if isinstance(code, BlockInterleaver):
        blocks = bits.reshape(-1, code.span, code.depth)
        return blocks.transpose(0, 2, 1).reshape(-1).astype(np.uint8), []
    if isinstance(code, IdentityCode):
        return bits.copy(), []
    return code.decode(bits), []  # no vectorised form (BCH): one code path


def _reference_decode_state(channel, state: np.ndarray, message_len):
    """The deleted per-device hard decode of one voted state: invert,
    decrypt, vote the header, ECC-decode the body.  Returns
    ``(message or exception, recovered, counts)``."""
    from ..bitutils import bits_to_bytes, invert_bits
    from ..errors import ExtractionError

    recovered = invert_bits(state)
    cipher = channel._cipher()
    bits = cipher.process_bits(recovered) if cipher is not None else recovered
    frame, code = channel.frame, channel.ecc
    counts: "list[tuple[str, int]]" = []
    if frame.framed:
        if bits.size < frame.header_bits:
            return ExtractionError("short"), recovered, counts
        raw, header_counts = _reference_decode(
            frame._header_code(), bits[: frame.header_bits]
        )
        counts += header_counts
        length = int.from_bytes(bits_to_bytes(raw), "big")
        body = bits[frame.header_bits :]
    else:
        if message_len is None:
            return ExtractionError("no length"), recovered, counts
        length, body = message_len, bits
    k, n = (code.k, code.n) if code is not None else (1, 1)
    coded_bits = -(-length * 8 // k) * n
    if coded_bits > body.size:
        return ExtractionError("overlong"), recovered, counts
    if not coded_bits:
        return b"", recovered, counts
    if code is None:
        decoded = body[:coded_bits].copy()
    else:
        decoded, body_counts = _reference_decode(code, body[:coded_bits])
        counts += body_counts
    return bits_to_bytes(decoded[: length * 8]), recovered, counts


def _decode_group_rig(
    seed: int, n_devices: int, code_name: str, framed: bool, keyed: bool
):
    """Seeded channels with noisy voted states (no physics: the decode is
    what is under test), one row planted with a corrupt length."""
    from ..bitutils import invert_bits
    from ..core.message import FrameFormat
    from ..core.pipeline import InvisibleBits
    from ..core.scheme import CodingScheme

    rng = np.random.default_rng(seed)
    scheme = CodingScheme(
        key=_KEY16 if keyed else None,
        ecc=_code_catalog()[code_name](),
        frame=FrameFormat(framed=framed),
        n_captures=3,
    )
    corrupt = int(rng.integers(0, n_devices))
    # Two message lengths per group, so rows share a decode stack.
    lengths = rng.integers(0, 13, size=2)
    channels, states, lens = [], [], []
    for index in range(n_devices):
        channel = InvisibleBits(
            _board(seed + index, kib=0.25), scheme=scheme, use_firmware=False
        )
        message = rng.integers(0, 256, int(rng.choice(lengths)), dtype=np.uint8)
        plain = channel.prepare_payload(message.tobytes())
        cipher = channel._cipher()
        if cipher is not None:
            plain = cipher.process_bits(plain)  # CTR is an involution
        message_len = int(message.size)
        if index == corrupt:
            if framed:
                plain[: scheme.frame.header_bits] = 1  # claims 2**32 - 1 bytes
            else:
                message_len = plain.size  # more bytes than the body holds
        payload = cipher.process_bits(plain) if cipher is not None else plain
        flips = rng.random(payload.size) < float(rng.choice([0.0, 0.02, 0.06]))
        channels.append(channel)
        states.append(invert_bits(payload ^ flips.astype(np.uint8)))
        lens.append(None if framed else message_len)
    return channels, states, lens


@oracle(
    "fleet.decode_vs_device_loop",
    gens=(
        g.seeds(),
        g.integers(1, 16, name="n_devices"),
        g.sampled_from(list(_code_catalog()), name="code"),
        g.sampled_from([True, False], name="framed"),
        g.sampled_from([False, True], name="keyed"),
    ),
    examples=6,
)
def fleet_decode_vs_device_loop(seed, n_devices, code, framed, keyed):
    """The stacked group decode equals the per-device decode loop: per
    row the message bytes or exception type, ``recovered_payload``, every
    ECC counter in order, and the ``ecc_corrections`` and raw BER that
    ``decode_state`` reports from the row."""
    from ..bitutils import bit_error_rate, invert_bits
    from ..core.pipeline import decode_group

    channels, states, lens = _decode_group_rig(seed, n_devices, code, framed, keyed)
    truths = [invert_bits(state) for state in states]
    raw_errors = [float(index) / 64 for index in range(n_devices)]
    rows = decode_group(channels, states, message_lens=lens, raw_errors=raw_errors)
    check_that(len(rows) == n_devices, f"{len(rows)} rows for {n_devices} states")
    for index, row in enumerate(rows):
        expected, recovered, counts = _reference_decode_state(
            channels[index], states[index], lens[index]
        )
        got = row.message if row.error is None else row.error
        check_that(
            type(got) is type(expected)
            and (not isinstance(got, bytes) or got == expected),
            f"row {index}: stacked {got!r} != loop {expected!r}",
        )
        check_that(
            np.array_equal(row.recovered, recovered),
            f"row {index}: recovered payload diverged",
        )
        check_that(
            list(row.counts) == counts,
            f"row {index}: counters {list(row.counts)} != loop {counts}",
        )
        if row.error is not None:
            continue
        result = channels[index].decode_state(
            states[index],
            message_len=lens[index],
            expected_payload=truths[index],
            decoded=row,
        )
        corrections = sum(v for name, v in counts if name.endswith(".corrections"))
        check_that(
            result.ecc_corrections == corrections
            and result.message == expected
            and result.raw_error_vs == raw_errors[index]
            and bit_error_rate(truths[index], result.recovered_payload) == 0.0,
            f"row {index}: decode_state did not report its own row",
        )


# -- lean send contract -------------------------------------------------------


@oracle(
    "sram.lean_send_vs_reference",
    gens=(
        g.seeds(),
        g.sampled_from(["random", "zeros", "ones"], name="payload"),
        g.sampled_from([False, True], name="faulted"),
    ),
    examples=6,
)
def sram_lean_send_vs_reference(seed, payload, faulted):
    """The lean send path equals the mask-form reference: index-form
    ``hold`` and the never-stressed power-on shortcut leave both NBTI
    states, capture stats, toggle count and noise stream bit-identical,
    and every power-on state and capture sample equal, over a seeded
    history — captures on a never-stressed bank, stage and stress (with a
    drift/interrupt fault plan when ``faulted``), shelve and re-stress,
    operate then hold, and a device-file restore then hold."""
    from .send_reference import run_send_history

    run_send_history(seed, payload, faulted)


# -- service durability contract ---------------------------------------------


def _soak_requests(generator, index):
    """The load generator's keyed (send, receive) pair for one message —
    the same ``soak-<seed>-<index>-<op>`` keys the CI smoke resumes with."""
    return generator._requests(index)


def _journaled_config(journal_dir, seed: int, *, shards: int = 2, **extra):
    from ..service import ServiceConfig

    return ServiceConfig(
        shards=shards,
        seed=seed,
        device_name=_DEVICE,
        sram_kib=0.25,
        journal_dir=str(journal_dir),
        **extra,
    )


@oracle(
    "service.crash_recovery",
    gens=(g.seeds(), g.sampled_from([4, 6], name="n_messages")),
    examples=1,
)
def service_crash_recovery(seed, n_messages):
    """Crash-restart-replay is bit-identical to an uninterrupted run:
    same fleet state digest, same receive results, no op lost or doubled.

    Run A soaks a journaled service to completion.  Run B soaks the same
    traffic but cuts three checkpoints mid-soak: after the first send,
    after the other sends, and after some devices are read back
    (touched, so written as a new generation) while one is left alone
    (named at the generation the second checkpoint named).  The third
    cut prunes the first checkpoint, and the device store must then hold
    exactly the generations the two kept manifests name.  Run B is then
    killed dead (``abort()`` — no drain, no final fsync) with the tail
    in flight, a fresh service boots on the same journal directory from
    the newest checkpoint, and the whole soak is resubmitted under the
    same idempotency keys.  A copy of the killed run's directory without
    its newest manifest must recover the same way from the second-newest
    one, whose read-back devices the newest no longer names.

    Run C cuts its checkpoint the automatic way, mid-load: every send
    is submitted at once to one lane (``max_batch`` 3,
    ``checkpoint_every`` 2), so the worker cuts after its first batch
    while later sends are still queued.  It is killed right after that
    cut, and the restart must restore from it.

    Each recovered fleet must end in the same analog state and serve
    the same results as the twin that never crashed.  Each device sees
    the same op sequence in every run; only the order across devices
    differs, and device state never depends on it.
    """
    import asyncio
    import json
    import pathlib
    import shutil
    import tempfile

    from ..errors import JournalError
    from ..service import FleetService, LoadGenerator, results_digest
    from ..service.shards import (
        KEEP_CHECKPOINTS,
        complete_checkpoints,
        latest_checkpoint,
    )

    crash_at = n_messages // 2

    async def soak(service, generator, results):
        for index in range(n_messages):
            send, receive = _soak_requests(generator, index)
            await service.submit(send)
            results.append((await service.submit(receive)).to_dict())

    async def uninterrupted(tmp):
        service = FleetService(_journaled_config(tmp / "jd", seed))
        await service.start()
        generator = LoadGenerator(seed=seed, message_bytes=4, idempotency=True)
        results: "list[dict]" = []
        await soak(service, generator, results)
        await service.stop()
        return {"uninterrupted": (service.host.state_digest(), results)}

    async def crashed_then_recovered(tmp):
        journal_dir = tmp / "jd"
        service = FleetService(_journaled_config(journal_dir, seed))
        await service.start()
        generator = LoadGenerator(seed=seed, message_bytes=4, idempotency=True)
        # Phase 1 completes across three checkpoints: the first device
        # is sent to before the first, the others before the second, and
        # all but the last are read back before the third.  Phase 2 is
        # cut off with ops at every stage — unadmitted, admitted,
        # mid-execution.
        for index in range(crash_at):
            send, _ = _soak_requests(generator, index)
            await service.submit(send)
            if index == 0:
                await service.checkpoint()
        await service.checkpoint()
        for index in range(crash_at - 1):
            _, receive = _soak_requests(generator, index)
            await service.submit(receive)
        newest = await service.checkpoint()
        manifests = complete_checkpoints(journal_dir)
        kept = [path.stem for path in manifests]
        check_that(
            len(kept) == KEEP_CHECKPOINTS
            and kept[-1] == newest["checkpoint"],
            f"three checkpoints cut, {kept} left on disk: the prune must "
            f"keep exactly the newest {KEEP_CHECKPOINTS}",
        )
        named = {
            service.host._device_path(device_id, generation).name
            for path in manifests
            for device_id, generation in json.loads(path.read_text())[
                "devices"
            ].items()
        }
        stored = {path.name for path in (journal_dir / "devices").iterdir()}
        check_that(
            stored == named,
            f"the device store holds {sorted(stored - named)} that no kept "
            f"manifest names and lacks {sorted(named - stored)} that one does",
        )
        check_that(
            service.host.checkpoint_reused > 0,
            "no checkpoint reused a device file; the incremental path "
            "went unexercised",
        )

        async def one(index):
            send, receive = _soak_requests(generator, index)
            await service.submit(send)
            await service.submit(receive)

        # The untouched device's send is answered from the idempotency
        # cache; its receive joins the tail.
        tail = [
            asyncio.create_task(one(index))
            for index in range(crash_at - 1, n_messages)
        ]
        # One scheduler pass: the tail is admitted/enqueued/mid-batch —
        # not done — when the plug is pulled.  The contract must hold
        # wherever the crash lands.
        await asyncio.sleep(0)
        await service.abort()
        for task in tail:
            task.cancel()
        await asyncio.gather(*tail, return_exceptions=True)

        older = tmp / "older"
        shutil.copytree(journal_dir, older)
        (older / "checkpoints" / f"{kept[-1]}.json").unlink()
        return {
            "crashed": await revived_soak(
                _journaled_config(journal_dir, seed),
                generator,
                newest["checkpoint"],
            ),
            "second-newest checkpoint": await revived_soak(
                _journaled_config(older, seed), generator, kept[0]
            ),
        }

    async def cut_mid_load_then_recovered(tmp):
        journal_dir = tmp / "jd"
        config = _journaled_config(
            journal_dir, seed, shards=1, max_batch=3, checkpoint_every=2
        )
        service = FleetService(config)
        await service.start()
        generator = LoadGenerator(seed=seed, message_bytes=4, idempotency=True)
        sends = [
            asyncio.create_task(
                service.submit(_soak_requests(generator, index)[0])
            )
            for index in range(n_messages)
        ]
        while not service.checkpoints and not all(t.done() for t in sends):
            await asyncio.sleep(0)
        check_that(
            service.checkpoints == 1
            and any(q.qsize() for q in service.queues.values()),
            "the automatic checkpoint was not cut while sends were queued",
        )
        cut = latest_checkpoint(journal_dir).stem
        await service.abort()
        for task in sends:
            task.cancel()
        await asyncio.gather(*sends, return_exceptions=True)
        return {"cut mid-load": await revived_soak(config, generator, cut)}

    async def revived_soak(config, generator, checkpoint):
        try:
            revived = FleetService(config)
        except JournalError as exc:
            check_that(False, f"restart from {checkpoint} refused: {exc}")
        check_that(
            revived.ledger.report.checkpoint == checkpoint,
            f"recovery restored {revived.ledger.report.checkpoint}, not the "
            f"newest checkpoint {checkpoint}",
        )
        await revived.start()
        results: "list[dict]" = []
        await soak(revived, generator, results)
        await revived.stop()
        return revived.host.state_digest(), results

    runs = {}
    legs = (uninterrupted, crashed_then_recovered, cut_mid_load_then_recovered)
    for leg in legs:
        with tempfile.TemporaryDirectory() as tmp:
            runs.update(asyncio.run(leg(pathlib.Path(tmp))))

    state_a, results_a = runs.pop("uninterrupted")
    # results_digest already excludes the ``shard`` field — provenance,
    # not physics: a crash-window op replays on the recovery lane while
    # the uninterrupted twin ran on its home shard.
    digest_a = results_digest(results_a)
    for run, (state_b, results_b) in runs.items():
        check_that(
            state_a == state_b,
            f"{run} run: recovered fleet state digest {state_b} diverged "
            f"from the uninterrupted run's {state_a}",
        )
        digest_b = results_digest(results_b)
        check_that(
            digest_a == digest_b,
            f"{run} run: recovered results digest {digest_b} diverged "
            f"from the uninterrupted run's {digest_a}",
        )
        check_that(
            len(results_b) == n_messages,
            f"{run} run: recovered soak returned {len(results_b)} of "
            f"{n_messages} results",
        )


@oracle(
    "service.device_file_roundtrip",
    gens=(g.seeds(), g.integers(3, 7, name="n_ops")),
    examples=3,
)
def service_device_file_roundtrip(seed, n_ops):
    """A device file restores a device and its staged payload
    bit-for-bit; other silicon is refused.

    A seeded history — a send to each device, then capture bursts,
    shelving and re-sends — runs on a host that keeps one device
    resident, so every step evicts a device to the device store and
    rehydrates another, and on an uncapped twin.  The two must digest
    equal, staged payloads included.  Then each device's file is
    read into a freshly seeded device: every
    :func:`repro.io.device_state_arrays` key, ``rng_state`` and
    ``toggle_count`` included, and the staged payload must come back
    bit-for-bit, and the same file read into a device built from another
    seed must raise :class:`~repro.errors.JournalError`.
    """
    import pathlib
    import tempfile

    from ..core.scheme import paper_end_to_end_scheme
    from ..errors import JournalError
    from ..io import device_state_arrays
    from ..service.shards import (
        FleetHost,
        _load_device_file,
        _write_device_file,
    )

    rng = np.random.default_rng(seed)
    ids = ("a", "b")
    fleet = dict(
        scheme=paper_end_to_end_scheme(copies=7, n_captures=5),
        device_name=_DEVICE,
        sram_kib=0.25,
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        capped = FleetHost(
            seed=seed, max_resident=1, store_dir=root / "store", **fleet
        )
        twin = FleetHost(seed=seed, **fleet)
        for step in range(n_ops):
            device_id = ids[step % len(ids)]
            action = "send" if step < len(ids) else rng.choice(
                ["send", "capture", "shelve"]
            )
            hours = float(rng.uniform(0.5, 24.0))
            n_captures = int(rng.integers(1, 6))
            for host in (capped, twin):
                channel = host.channel(device_id)
                if action == "send":
                    sent = channel.send(b"m%d" % step, stress_hours=hours)
                    host.store_payload(device_id, sent.payload_bits)
                elif action == "capture":
                    channel.board.capture_power_on_states(n_captures)
                else:
                    channel.board.device.sram.shelve(hours * 3600.0)
        check_that(
            capped.evicted > 0 and capped.rehydrated > 0,
            "the history never went through the device store",
        )
        check_that(
            capped.state_digest() == twin.state_digest(),
            "eviction and rehydration changed a device's state",
        )
        stranger = FleetHost(seed=seed + 1, **fleet)
        for device_id in ids:
            before = device_state_arrays(twin.channel(device_id).board.device)
            staged = twin.payload(device_id)
            path = root / f"{device_id}.state"
            _write_device_file(path, before, staged)
            fresh = twin._fresh_channel(device_id).board.device
            payload = _load_device_file(path, fresh)
            check_that(
                payload is not None
                and payload.dtype == staged.dtype
                and payload.tobytes() == staged.tobytes(),
                f"device {device_id}: the staged payload did not round-trip",
            )
            after = device_state_arrays(fresh)
            check_that(sorted(after) == sorted(before), "key set changed")
            for key, value in before.items():
                check_that(
                    value.dtype == after[key].dtype
                    and value.tobytes() == after[key].tobytes(),
                    f"device {device_id}: {key} did not round-trip",
                )
            other = stranger._fresh_channel(device_id).board.device
            try:
                _load_device_file(path, other)
            except JournalError:
                continue
            check_that(
                False,
                f"device {device_id}: a file from seed {seed} was accepted "
                f"by a device from seed {seed + 1}",
            )


@oracle(
    "faults.disabled_identity",
    gens=(
        g.seeds(),
        g.payload_bytes(1, 16, name="message"),
        g.sampled_from([0.05, 0.2], name="flaky_rate"),
    ),
    examples=3,
)
def faults_disabled_identity(seed, message, flaky_rate):
    """An empty fault plan — and a flaky-port-only plan — never change bits."""
    from ..errors import RetryExhaustedError
    from ..faults import FaultInjector, FaultPlan
    from ..faults.models import FlakyDebugPort

    scheme = _paper_scheme()
    _, clean = _roundtrip(_board(seed), message, scheme)

    # Faults disabled: an injector with no models is the same as none.
    empty = FaultInjector(FaultPlan(seed=seed))
    _, idle = _roundtrip(_board(seed, fault_injector=empty), message, scheme)
    check_that(
        np.array_equal(clean.power_on_state, idle.power_on_state)
        and clean.message == idle.message,
        "an empty fault plan changed the decode",
    )

    # Flaky-port faults strike before bits move: retries, never bit changes.
    flaky = FaultInjector(
        FaultPlan(seed=seed, models=(FlakyDebugPort(rate=flaky_rate),))
    )
    try:
        _, retried = _roundtrip(_board(seed, fault_injector=flaky), message, scheme)
    except RetryExhaustedError:
        return  # a legitimately exhausted retry budget is not an identity bug
    check_that(
        np.array_equal(clean.power_on_state, retried.power_on_state)
        and clean.message == retried.message,
        "flaky-port retries changed analog results",
    )


# -- ECC contracts -----------------------------------------------------------


@oracle(
    "ecc.roundtrip",
    gens=(
        g.sampled_from(list(_code_catalog()), name="code"),
        g.seeds(),
        g.integers(1, 6, name="blocks"),
    ),
)
def ecc_roundtrip(code_name, seed, blocks):
    """Every Code decodes its own clean encoding back to the data."""
    code = _code_catalog()[code_name]()
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, blocks * code.k).astype(np.uint8)
    encoded = code.encode(data)
    check_that(
        encoded.size == code.encoded_length(data.size),
        f"{code.name}: encoded {data.size} bits to {encoded.size}, "
        f"expected {code.encoded_length(data.size)}",
    )
    decoded = code.decode(encoded)
    check_that(
        np.array_equal(decoded, data),
        f"{code.name}: clean round-trip corrupted "
        f"{int(np.count_nonzero(decoded != data))} bits",
    )


@oracle(
    "ecc.single_error",
    gens=(
        g.sampled_from(list(_SINGLE_ERROR_CODES), name="code"),
        g.seeds(),
        g.integers(1, 4, name="blocks"),
    ),
)
def ecc_single_error(code_name, seed, blocks):
    """Distance->=3 codes correct any single flipped bit exactly."""
    code = _code_catalog()[code_name]()
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, blocks * code.k).astype(np.uint8)
    encoded = code.encode(data)
    position = int(rng.integers(0, encoded.size))
    corrupted = encoded.copy()
    corrupted[position] ^= 1
    decoded = code.decode(corrupted)
    check_that(
        np.array_equal(decoded, data),
        f"{code.name}: failed to correct a single error at bit {position}",
    )


@oracle(
    "ecc.composition",
    gens=(g.seeds(), g.integers(1, 5, name="blocks")),
)
def ecc_composition(seed, blocks):
    """ConcatenatedCode is associative: (A∘B)∘C == A∘(B∘C), bit for bit."""
    from ..ecc.hamming import hamming_7_4
    from ..ecc.interleave import BlockInterleaver
    from ..ecc.product import ConcatenatedCode
    from ..ecc.repetition import RepetitionCode

    a, b, c = hamming_7_4(), RepetitionCode(3), BlockInterleaver(3, 7)
    left = ConcatenatedCode(ConcatenatedCode(a, b), c)
    right = ConcatenatedCode(a, ConcatenatedCode(b, c))
    check_that(
        (left.k, left.n) == (right.k, right.n),
        f"composite block structure differs: ({left.k},{left.n}) vs "
        f"({right.k},{right.n})",
    )
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, blocks * left.k).astype(np.uint8)
    enc_left = left.encode(data)
    enc_right = right.encode(data)
    check_that(
        np.array_equal(enc_left, enc_right),
        "associated compositions encode differently",
    )
    check_that(
        np.array_equal(left.decode(enc_left), data)
        and np.array_equal(right.decode(enc_left), data),
        "associated compositions decode differently",
    )


@oracle(
    "ecc.soft_saturation",
    gens=(
        g.sampled_from(list(_SOFT_FLAT_CODES), name="code"),
        g.seeds(),
        g.integers(1, 4, name="blocks"),
    ),
)
def ecc_soft_saturation(code_name, seed, blocks):
    """Soft decode of saturated (+-LLR_SAT) words == the hard decoder.

    Hard decoding is the saturation limit of soft decoding: with every
    magnitude equal, Chase's analog distance degenerates to Hamming
    distance and the baseline wins every tie, so the decoders must agree
    bit-for-bit on *arbitrary* (however corrupted) words.  This is what
    licenses ``decision="hard"`` as a special case of the soft path.
    """
    from ..ecc.soft import saturate, soft_decode

    code = _code_catalog()[code_name]()
    rng = np.random.default_rng(seed)
    word = rng.integers(0, 2, blocks * code.n).astype(np.uint8)
    hard = code.decode(word)
    soft = soft_decode(code, saturate(word))
    check_that(
        np.array_equal(soft, hard),
        f"{code.name}: soft decode of saturated LLRs diverged from the "
        f"hard decoder on {int(np.count_nonzero(soft != hard))} bits",
    )


@oracle(
    "ecc.soft_repetition",
    gens=(
        g.seeds(),
        g.sampled_from([3, 5], name="copies"),
        g.sampled_from(["block", "bitwise"], name="layout"),
        g.integers(2, 16, name="bits"),
    ),
)
def ecc_soft_repetition(seed, copies, layout, bits):
    """Soft-combining repetition: round-trips, survives a single erasure,
    and out-decodes the hard majority on confidence-skewed copies; the
    paper's composite stack round-trips a saturated near-codeword."""
    from ..ecc.product import paper_end_to_end_code
    from ..ecc.repetition import RepetitionCode
    from ..ecc.soft import LLR_SAT, hard_bits, saturate, soft_decode

    rng = np.random.default_rng(seed)
    code = RepetitionCode(copies, layout=layout)
    data = rng.integers(0, 2, bits).astype(np.uint8)
    llrs = saturate(code.encode(data))
    check_that(
        np.array_equal(soft_decode(code, llrs), data),
        "clean soft repetition round-trip corrupted data",
    )

    erased = llrs.copy()
    target = int(rng.integers(0, erased.size))
    erased[target] = 0.0  # one copy of one bit becomes an erasure
    check_that(
        np.array_equal(soft_decode(code, erased), data),
        f"a single erased copy (LLR=0 at {target}) broke the decode",
    )

    # Confidence-skewed copies: a weak wrong majority against a confident
    # right minority.  The hard majority is wrong by construction; the
    # LLR sum is right — the case soft-combining exists for.
    majority = (copies + 1) // 2
    right_sign = 1.0 - 2.0 * data.astype(np.float64)
    stacked = np.empty((copies, bits), dtype=np.float64)
    stacked[:majority] = -right_sign  # weakly wrong, |llr| = 1
    stacked[majority:] = right_sign * LLR_SAT
    skewed = (
        stacked.reshape(-1) if layout == "block" else stacked.T.reshape(-1)
    )
    check_that(
        np.array_equal(code.decode(hard_bits(skewed)), 1 - data),
        "skewed pattern did not make the hard majority wrong",
    )
    check_that(
        np.array_equal(soft_decode(code, skewed), data),
        "soft combining lost to a weak wrong majority",
    )

    # The composite (Hamming x repetition) chain, pinned on a saturated
    # near-codeword (<=1 flip): the regime where the chained soft path
    # must agree with the hard chain.
    paper = paper_end_to_end_code(3)
    pdata = rng.integers(0, 2, paper.k).astype(np.uint8)
    word = paper.encode(pdata)
    word[int(rng.integers(0, word.size))] ^= 1
    check_that(
        np.array_equal(soft_decode(paper, saturate(word)), pdata),
        "composite soft decode failed a saturated near-codeword",
    )


# -- crypto contracts --------------------------------------------------------


def _ctr_from(rng, key_len: int = 16):
    from ..crypto.ctr import AesCtr

    key = rng.integers(0, 256, key_len, dtype=np.uint8).tobytes()
    nonce = rng.integers(0, 256, 12, dtype=np.uint8).tobytes()
    return AesCtr(key, nonce), key, nonce


@oracle(
    "crypto.ctr_involution",
    gens=(
        g.seeds(),
        g.payload_bytes(0, 80, name="data"),
        g.sampled_from([16, 24, 32], name="key_len"),
    ),
)
def crypto_ctr_involution(seed, data, key_len):
    """AES-CTR is an involution: process(process(x)) == x at every length."""
    ctr, _, _ = _ctr_from(np.random.default_rng(seed), key_len)
    twice = ctr.process(ctr.process(data))
    check_that(
        bytes(twice.tobytes()) == bytes(data),
        "process(process(x)) != x",
    )
    check_that(
        ctr.decrypt(ctr.encrypt(data)) == bytes(data),
        "decrypt(encrypt(x)) != x",
    )
    if data:
        from ..bitutils import bytes_to_bits

        bits = bytes_to_bits(data)
        check_that(
            np.array_equal(ctr.process_bits(ctr.process_bits(bits)), bits),
            "process_bits is not an involution",
        )


@oracle(
    "crypto.ctr_keystream",
    gens=(
        g.seeds(),
        g.integers(1, 80, name="n_bytes"),
        g.integers(0, 5, name="initial_counter"),
    ),
)
def crypto_ctr_keystream(seed, n_bytes, initial_counter):
    """The vectorized CTR keystream matches the one-block-at-a-time AES reference."""
    from ..crypto.aes_core import AES

    ctr, key, nonce = _ctr_from(np.random.default_rng(seed))
    stream = ctr.keystream(n_bytes, initial_counter=initial_counter)
    aes = AES(key)
    n_blocks = -(-n_bytes // 16)
    reference = b"".join(
        aes.encrypt_block(nonce + (initial_counter + i).to_bytes(4, "big"))
        for i in range(n_blocks)
    )[:n_bytes]
    check_that(
        stream.tobytes() == reference,
        "keystream diverged from the per-block AES reference",
    )


# -- statistics contracts ----------------------------------------------------


@oracle(
    "stats.morans_agreement",
    gens=(g.grid_shapes(5, 8, name="grid"), g.seeds()),
    examples=8,
)
def stats_morans_agreement(grid, seed):
    """Analytic and permutation Moran's I p-values agree on random grids."""
    from ..stats.morans_i import morans_i

    values = np.random.default_rng(seed).standard_normal(grid)
    analytic = morans_i(values)
    permuted = morans_i(values, permutations=299, rng=seed)
    check_that(
        analytic.statistic == permuted.statistic
        and analytic.expected == permuted.expected
        and analytic.variance == permuted.variance
        and analytic.z_score == permuted.z_score,
        "the permutation branch changed the analytic moments",
    )
    check_that(
        analytic.p_value_method == "analytic"
        and permuted.p_value_method == "permutation",
        "p_value_method provenance is wrong",
    )
    check_that(
        abs(analytic.p_value - permuted.p_value) <= 0.2,
        f"analytic p={analytic.p_value:.3f} and permutation "
        f"p={permuted.p_value:.3f} disagree beyond tolerance",
    )


@oracle("stats.normal_vs_scipy", gens=(g.seeds(),))
def stats_normal_vs_scipy(seed):
    """The Cephes Phi / Phi^-1 ports equal scipy's ndtr / ndtri bit-for-bit."""
    from scipy import special  # the reference only; the serving path never imports it

    from ..stats import normal

    rng = np.random.default_rng(seed)
    tail = 10.0 ** -rng.uniform(0.0, 300.0, 64)
    probs = np.concatenate(
        [
            rng.uniform(0.0, 1.0, 64),
            tail,
            1.0 - tail,
            np.exp(-rng.uniform(0.0, 40.0, 64)),  # every ndtri branch
        ]
    )
    shifts = np.concatenate(
        [rng.standard_normal(64), rng.uniform(-40.0, 40.0, 64)]
    )
    for name, ours, reference, inputs in (
        ("ndtri", normal.ndtri, special.ndtri, probs),
        ("ndtr", normal.ndtr, special.ndtr, shifts),
    ):
        expected = reference(inputs)
        for x, want in zip(inputs.tolist(), expected.tolist()):
            got = ours(x)
            check_that(
                got == want or (got != got and want != want),
                f"{name}({x!r}) = {got!r}, scipy gives {want!r}",
            )


# -- physics contracts -------------------------------------------------------


def _nbti_rig(seed, n):
    from ..physics.nbti import NBTIModel, NBTIState

    rng = np.random.default_rng(seed)
    model = NBTIModel(k_scale=0.02 + 0.08 * float(rng.random()))
    state = NBTIState.fresh(n)
    return model, state, rng


@oracle(
    "physics.nbti_monotone",
    gens=(g.seeds(), g.integers(4, 64, name="transistors")),
)
def physics_nbti_monotone(seed, n):
    """dvth grows monotonically under stress and never grows under relax."""
    model, state, rng = _nbti_rig(seed, n)
    previous = model.dvth(state).copy()
    for _ in range(4):
        model.stress(state, float(rng.uniform(10.0, 5000.0)))
        current = model.dvth(state)
        check_that(
            bool(np.all(current >= previous)),
            "dvth decreased while stress time increased",
        )
        previous = current.copy()
    model.relax(state, float(rng.uniform(100.0, 1e6)))
    relaxed = model.dvth(state)
    check_that(
        bool(np.all(relaxed <= previous)),
        "relaxation increased dvth",
    )
    floor = model.dvth_unrecovered(state) * (1.0 - model.rec_ceiling)
    check_that(
        bool(np.all(relaxed >= floor - 1e-12)),
        "relaxation recovered past the permanent-damage ceiling",
    )
    times = np.sort(rng.uniform(0.0, 1e6, 8))
    shifts = [model.shift_after(float(t)) for t in times]
    check_that(
        all(b >= a for a, b in zip(shifts, shifts[1:])),
        "shift_after is not monotone in stress time",
    )


@oracle(
    "physics.nbti_flush_order",
    gens=(g.seeds(), g.integers(4, 64, name="transistors")),
)
def physics_nbti_flush_order(seed, n):
    """Deferred uniform relax is order-independent and equals direct relax."""
    model, base, rng = _nbti_rig(seed, n)
    model.stress(base, rng.uniform(100.0, 5000.0, n))
    a, b = float(rng.uniform(1.0, 1e4)), float(rng.uniform(1.0, 1e4))

    split = base.copy()
    model.relax_uniform(split, a)
    model.relax_uniform(split, b)

    merged = base.copy()
    model.relax_uniform(merged, a + b)

    direct = base.copy()
    model.relax(direct, a + b)

    flushed = base.copy()
    model.relax_uniform(flushed, a)
    flushed.flush_relax()  # an early flush must not change the observable
    model.relax_uniform(flushed, b)

    reference = model.dvth(direct)
    for label, state in (("split", split), ("merged", merged), ("early-flush", flushed)):
        check_that(
            np.array_equal(model.dvth(state), reference),
            f"deferred relax ({label}) diverged from direct relax",
        )


@oracle(
    "physics.nbti_copy_isolation",
    gens=(g.seeds(), g.integers(4, 64, name="transistors")),
)
def physics_nbti_copy_isolation(seed, n):
    """NBTIState.copy() is fully isolated from the original's future."""
    model, state, rng = _nbti_rig(seed, n)
    model.stress(state, rng.uniform(100.0, 5000.0, n))
    model.relax_uniform(state, float(rng.uniform(1.0, 1e4)))  # pending relax too
    snapshot = state.copy()
    baseline = model.dvth(snapshot).copy()
    model.stress(state, float(rng.uniform(100.0, 5000.0)))
    model.relax_uniform(state, float(rng.uniform(1.0, 1e4)))
    state.stress_seconds *= 2.0  # even direct array mutation must not leak
    check_that(
        np.array_equal(model.dvth(snapshot), baseline),
        "mutating the original changed a copy's observable shift",
    )


# -- bit-utility contracts ---------------------------------------------------


@oracle(
    "bitutils.pack_roundtrip",
    gens=(g.payload_bytes(0, 64, name="data"),),
)
def bitutils_pack_roundtrip(data):
    """bytes<->bits round-trips, and array input equals the bytes path."""
    from ..bitutils import as_bit_array, bits_to_bytes, bytes_to_bits

    bits = bytes_to_bits(data)
    check_that(bits_to_bytes(bits) == bytes(data), "pack(unpack(x)) != x")
    check_that(
        np.array_equal(as_bit_array(data), bits),
        "as_bit_array disagrees with bytes_to_bits",
    )
    # The regression differential for the buffer-reinterpretation bug: an
    # int64 array of the same byte *values* must unpack identically.
    wide = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)
    check_that(
        np.array_equal(bytes_to_bits(wide), bits),
        "an int64 byte-value array unpacked differently from bytes",
    )


@oracle(
    "bitutils.majority_reference",
    gens=(g.capture_stacks(7, 64, name="stack"),),
)
def bitutils_majority_reference(stack):
    """Vectorized majority_vote matches the per-bit counting reference."""
    from ..bitutils import majority_vote

    n = stack.shape[0]
    reference = np.array(
        [1 if 2 * int(column.sum()) >= n else 0 for column in stack.T],
        dtype=np.uint8,
    )
    check_that(
        np.array_equal(majority_vote(stack), reference),
        "majority_vote diverged from the counting reference (ties break to 1)",
    )


# -- mutants: the harness's own test ----------------------------------------


@mutant("faults.disabled_identity", "stuck-single-bit-plan")
def _mutant_stuck_single_bit(rng):
    """A fault-plan single-bit defect on one side must break the identity."""
    from ..faults import FaultInjector, FaultPlan
    from ..faults.models import StuckRegion

    seed = int(rng.integers(0, 2**31))
    message = b"mutation-smoke"
    scheme = _paper_scheme()
    _, clean = _roundtrip(_board(seed), message, scheme)
    target = int(rng.integers(0, clean.power_on_state.size))
    stuck_value = 1 - int(clean.power_on_state[target])
    plan = FaultPlan(
        seed=seed,
        models=(StuckRegion(offset=target, length=1, value=stuck_value),),
    )
    _, faulted = _roundtrip(
        _board(seed, fault_injector=FaultInjector(plan)), message, scheme
    )
    check_that(
        np.array_equal(clean.power_on_state, faulted.power_on_state),
        f"single stuck bit at {target} detected by the identity contract",
    )


@mutant("ecc.roundtrip", "decode-single-bit-flip")
def _mutant_decode_bit_flip(rng):
    """A decoder that flips one output bit must fail the round-trip."""
    from ..ecc.hamming import hamming_7_4

    inner = hamming_7_4()

    class _FlippingDecoder:
        k, n, name = inner.k, inner.n, inner.name + "+flip"
        encode = staticmethod(inner.encode)
        encoded_length = staticmethod(inner.encoded_length)

        @staticmethod
        def decode(code):
            out = inner.decode(code)
            out = out.copy()
            out[0] ^= 1  # the planted single-bit defect
            return out

    code = _FlippingDecoder()
    data = rng.integers(0, 2, 3 * code.k).astype(np.uint8)
    decoded = code.decode(code.encode(data))
    check_that(
        np.array_equal(decoded, data),
        "single decoder bit-flip detected by the round-trip contract",
    )


@mutant("ecc.soft_saturation", "llr-sign-flip")
def _mutant_llr_sign_flip(rng):
    """A decoder reading LLRs with the opposite sign convention must
    diverge from the hard decoder on saturated words."""
    from ..ecc.hamming import hamming_7_4
    from ..ecc.soft import saturate, soft_decode

    code = hamming_7_4()
    word = rng.integers(0, 2, 3 * code.n).astype(np.uint8)
    hard = code.decode(word)
    soft = soft_decode(code, -saturate(word))  # the planted defect
    check_that(
        np.array_equal(soft, hard),
        "LLR sign-convention flip detected by the saturation identity",
    )


@mutant("crypto.ctr_keystream", "counter-off-by-one")
def _mutant_counter_off_by_one(rng):
    """An off-by-one CTR counter must diverge from the AES reference."""
    from ..crypto.aes_core import AES

    ctr, key, nonce = _ctr_from(rng)
    defective = ctr.keystream(32, initial_counter=1)  # the planted defect
    aes = AES(key)
    reference = b"".join(
        aes.encrypt_block(nonce + i.to_bytes(4, "big")) for i in range(2)
    )
    check_that(
        defective.tobytes() == reference,
        "counter off-by-one detected by the keystream reference",
    )


@mutant("bitutils.pack_roundtrip", "bit-flip-in-flight")
def _mutant_pack_bit_flip(rng):
    """One flipped bit between unpack and pack must break the round-trip."""
    from ..bitutils import bits_to_bytes, bytes_to_bits

    data = rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
    bits = bytes_to_bits(data)
    bits[0] ^= 1  # the planted defect
    check_that(
        bits_to_bytes(bits) == data,
        "in-flight bit flip detected by the pack round-trip",
    )


@mutant("bitutils.majority_reference", "tie-breaks-to-zero")
def _mutant_tie_to_zero(rng):
    """A tie-to-zero reference must disagree on a tied even-count column."""
    from ..bitutils import majority_vote

    width = int(rng.integers(1, 16))
    stack = np.zeros((2, width), dtype=np.uint8)
    stack[0, :] = 1  # every column is a 1-1 tie
    zero_reference = np.array(
        [1 if 2 * int(col.sum()) > 2 else 0 for col in stack.T], dtype=np.uint8
    )
    check_that(
        np.array_equal(majority_vote(stack), zero_reference),
        "tie-to-zero defect detected by the majority reference",
    )


def _mutated_fleet_capture(rng, kernel, *, n_devices, kib, temps=None):
    """A twin tray pair with ``kernel`` standing in for the stacked kernel
    while tray A is captured; returns what
    :func:`_check_fleet_against_loop` needs.  ``temps`` sets per-slot
    ambient temperatures (so slots differ in noise sigma)."""
    import os

    from ..core import fleetcapture
    from ..sram import array as sram_array

    # The planted defect lives in the stacked path; an ambient chaos plan
    # (REPRO_FAULT_PLAN) would wire injectors into every board, route all
    # slots to the per-capture loop, and hide it.
    ambient = os.environ.pop("REPRO_FAULT_PLAN", None)
    pristine = sram_array._stacked_decisions
    try:
        seed = int(rng.integers(0, 2**31))
        rack_a, payloads = _fleet_rig(seed, n_devices, kib, 24.0)
        rack_b, _ = _fleet_rig(seed, n_devices, kib, 24.0)
        for rack in (rack_a, rack_b):
            for board, temp in zip(rack.boards, temps or ()):
                board.device.sram.set_ambient(temp)
        sram_array._stacked_decisions = kernel
        fleet = fleetcapture.capture_fleet(
            rack_a.boards, 3, payloads=payloads, return_frames=True
        )
    finally:
        sram_array._stacked_decisions = pristine
        if ambient is not None:
            os.environ["REPRO_FAULT_PLAN"] = ambient
    return fleet, rack_a, rack_b, payloads, 3


@mutant("fleet.capture_vs_device_loop", "kernel-decision-bit-flip")
def _mutant_kernel_decision_flip(rng):
    """One flipped decision inside the stacked kernel must break frame
    identity with the per-device loop."""
    from ..sram import array as sram_array

    pristine = sram_array._stacked_decisions
    flipped = []

    def skewed(plans, noises):
        decisions = pristine(plans, noises)
        if not flipped and decisions.size:
            decisions.reshape(-1)[int(rng.integers(0, decisions.size))] ^= 1
            flipped.append(True)
        return decisions

    rig = _mutated_fleet_capture(rng, skewed, n_devices=2, kib=0.25)
    check_that(bool(flipped), "mutant needs a non-empty noise band")
    _check_fleet_against_loop(*rig)


@mutant("fleet.capture_vs_device_loop", "misaligned-slot-repeat")
def _mutant_misaligned_slot_repeat(rng):
    """A stacked kernel that lays each slot's per-slot values (pending
    relax, sigma) over its neighbour's cells must break identity with the
    per-device loop on a 16-slot tray whose slots differ in sigma."""
    from ..sram import array as sram_array

    pristine_spread = sram_array._spread
    pristine = sram_array._stacked_decisions
    misaligned = []

    def shifted(values, sizes):
        if not isinstance(values, float):
            values = np.roll(values, 1, axis=-1)  # the defect: one slot over
            misaligned.append(True)
        return pristine_spread(values, sizes)

    def kernel(plans, noises):
        sram_array._spread = shifted
        try:
            return pristine(plans, noises)
        finally:
            sram_array._spread = pristine_spread

    from ..device.catalog import device_spec

    nominal = device_spec(_DEVICE).technology.temp_nominal_k
    rig = _mutated_fleet_capture(
        rng,
        kernel,
        n_devices=16,
        kib="mixed",
        temps=[nominal * (0.25 if i % 2 else 1.0) for i in range(16)],
    )
    check_that(bool(misaligned), "mutant needs slots with differing values")
    _check_fleet_against_loop(*rig)


@mutant("fleet.decode_vs_device_loop", "corrections-to-next-row")
def _mutant_corrections_to_next_row(rng):
    """A stacked Hamming decoder that credits row i's corrections to row
    i+1 must break per-row counter identity with the device loop."""
    from ..ecc.hamming import HammingCode

    pristine = HammingCode._decode_rows

    def shifted(self, bits):
        decoded, counts = pristine(self, bits)
        name, values = counts[0]
        return decoded, [(name, np.roll(values, 1))] + counts[1:]  # the defect

    HammingCode._decode_rows = shifted
    try:
        for seed in rng.integers(0, 2**31, size=3):
            fleet_decode_vs_device_loop(int(seed), 8, "hamming74", True, False)
    finally:
        HammingCode._decode_rows = pristine


@mutant("service.crash_recovery", "touch-keeps-stale-file")
def _mutant_touch_keeps_stale_file(rng):
    """A touched device that keeps its stale checkpoint file must diverge.

    The planted defect: ``FleetHost.channel`` no longer marks a resident
    device dirty, so the third checkpoint names the generation from
    before the read-back.  Recovery from it serves that read-back from
    cache without its aging, and the fleet state digest diverges from
    the run that never crashed.
    """
    from ..service.shards import FleetHost

    pristine = FleetHost.channel

    def keeps_stale_file(self, device_id):
        clean = device_id in self._channels and device_id not in self._dirty
        channel = pristine(self, device_id)
        if clean:
            self._dirty.discard(device_id)  # the planted defect
        return channel

    FleetHost.channel = keeps_stale_file
    try:
        service_crash_recovery(int(rng.integers(0, 2**31)), 4)
    finally:
        FleetHost.channel = pristine


@mutant("service.device_file_roundtrip", "silicon-digest-unchecked")
def _mutant_silicon_digest_unchecked(rng):
    """A reader that skips the silicon digest accepts a foreign file."""
    from ..service import shards

    pristine = shards._check_silicon
    shards._check_silicon = lambda arrays, device, source: None
    try:
        service_device_file_roundtrip(int(rng.integers(0, 2**31)), 3)
    finally:
        shards._check_silicon = pristine


@mutant("service.device_file_roundtrip", "relax-clocks-swapped")
def _mutant_relax_clocks_swapped(rng):
    """A writer that stores ``relax_1`` and ``relax_0`` crosswise must
    fail the round trip (a send leaves the two clocks unequal)."""
    from ..service import shards

    pristine = shards._encode_device_file

    def swapped(arrays, payload):
        crossed = dict(
            arrays, relax_1=arrays["relax_0"], relax_0=arrays["relax_1"]
        )
        return pristine(crossed, payload)  # the planted defect

    shards._encode_device_file = swapped
    try:
        service_device_file_roundtrip(int(rng.integers(0, 2**31)), 3)
    finally:
        shards._encode_device_file = pristine


@mutant("service.device_file_roundtrip", "writer-drops-payload")
def _mutant_writer_drops_payload(rng):
    """A writer that leaves the staged payload out of the device file
    must fail the round trip: an archived device would come back with
    nothing to measure its raw BER against."""
    from ..service import shards

    pristine = shards._encode_device_file
    shards._encode_device_file = lambda arrays, payload: pristine(
        arrays, None  # the planted defect
    )
    try:
        service_device_file_roundtrip(int(rng.integers(0, 2**31)), 3)
    finally:
        shards._encode_device_file = pristine


@mutant("service.crash_recovery", "prune-newest-checkpoint")
def _mutant_prune_newest_checkpoint(rng):
    """A prune that deletes the newest checkpoint's manifest must be
    caught: a restart would then restore an older one, or none."""
    from ..service.shards import FleetHost

    pristine = FleetHost._prune

    def prunes_newest(self, checkpoint_id, released, unnamed):
        pristine(self, checkpoint_id, released, unnamed)
        self._manifest_path(checkpoint_id).unlink()  # the planted defect

    FleetHost._prune = prunes_newest
    try:
        service_crash_recovery(int(rng.integers(0, 2**31)), 4)
    finally:
        FleetHost._prune = pristine


@mutant("service.crash_recovery", "prune-named-generation")
def _mutant_prune_named_generation(rng):
    """A prune that deletes the generations a new manifest stops naming
    at once, while the second-newest manifest still names them, must be
    caught: a restart from that manifest finds device files missing."""
    from ..service.shards import FleetHost

    pristine = FleetHost._prune

    def prunes_named(self, checkpoint_id, released, unnamed):
        # The planted defect: released generations go with the cut, not
        # with the manifest that still names them.
        pristine(self, checkpoint_id, [], [*unnamed, *released])

    FleetHost._prune = prunes_named
    try:
        service_crash_recovery(int(rng.integers(0, 2**31)), 4)
    finally:
        FleetHost._prune = pristine


@mutant("service.crash_recovery", "checkpoint-inside-batch")
def _mutant_checkpoint_inside_batch(rng):
    """A checkpoint cut between two completions of one batch must be
    caught: the batch has already run on silicon, so the snapshot holds
    effects of seqs its frontier leaves out, and the restart replays them
    a second time."""
    from ..service.server import FleetService

    pristine = FleetService._finish

    def cuts_inside_batch(self, job, outcome):
        pristine(self, job, outcome)
        if self._since_checkpoint >= self.config.checkpoint_every > 0:
            self._cut_checkpoint()  # the planted defect

    FleetService._finish = cuts_inside_batch
    try:
        service_crash_recovery(int(rng.integers(0, 2**31)), 4)
    finally:
        FleetService._finish = pristine


@mutant("stats.normal_vs_scipy", "tail-branch-at-4")
def _mutant_tail_branch_at_4(rng):
    """An ``ndtri`` that leaves its middle-tail approximation at
    ``z = 4`` instead of 8 must disagree with scipy for exp(-32) < p <
    exp(-8)."""
    from ..stats import normal

    pristine = normal._NDTRI_TAIL_Z
    normal._NDTRI_TAIL_Z = 4.0  # the planted defect
    try:
        stats_normal_vs_scipy(int(rng.integers(0, 2**31)))
    finally:
        normal._NDTRI_TAIL_Z = pristine


@mutant("service.crash_recovery", "journal-byte-corruption")
def _mutant_journal_corruption(rng):
    """One flipped byte mid-journal must refuse recovery, not replay it.

    The CRC framing tolerates a *torn tail* (the crash signature) but a
    damaged record followed by a valid one is corruption — replaying a
    damaged prefix could double-apply stress.  Detection is the
    :class:`~repro.errors.JournalError` from ``read_journal``; the
    fallback ``check_that`` catches a regression that silently *skips*
    the corrupt admit instead (the replay would come up one op short).
    """
    import asyncio
    import tempfile

    from ..errors import JournalError
    from ..service import FleetService, LoadGenerator
    from ..service.recovery import journal_path, recover_components

    seed = int(rng.integers(0, 2**31))
    n_messages = 2

    async def scenario(config):
        service = FleetService(config)
        await service.start()
        generator = LoadGenerator(seed=seed, message_bytes=4, idempotency=True)
        await generator.run(service, n_messages, concurrency=2)
        await service.abort()

    with tempfile.TemporaryDirectory() as tmp:
        config = _journaled_config(tmp, seed, shards=1)
        asyncio.run(scenario(config))
        path = journal_path(tmp)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        check_that(len(lines) >= 2, "mutant needs a multi-record journal")
        first = lines[0]  # always an admit — completes never lead
        position = 12  # inside the JSON body, past the 8-hex CRC prefix
        lines[0] = (
            first[:position]
            + chr(ord(first[position]) ^ 1)  # the planted defect
            + first[position + 1 :]
        )
        path.write_text("".join(lines), encoding="utf-8")
        try:
            _host, ledger = recover_components(config)
        except JournalError as exc:
            # Re-raise without the tmpdir path so the detection detail
            # (and therefore the mutation-smoke report) is run-stable.
            raise JournalError(
                str(exc).replace(f"{path}: ", "")
            ) from None
        ledger.journal.close()
        check_that(
            ledger.report.admitted == 2 * n_messages,
            f"corrupt admit record silently dropped from replay "
            f"({ledger.report.admitted} of {2 * n_messages} admits survived)",
        )


@mutant("sram.lean_send_vs_reference", "pristine-checks-one-inverter")
def _mutant_pristine_checks_one_inverter(rng):
    """A never-stressed test that looks only at ``age_when_1`` takes the
    mismatch-only power-on for a bank aged holding all zeros."""
    from ..sram.array import SRAMArray

    pristine = SRAMArray._never_stressed

    def one_inverter(self):
        return not self.age_when_1.stress_seconds.any()  # the planted defect

    SRAMArray._never_stressed = one_inverter
    try:
        sram_lean_send_vs_reference(int(rng.integers(0, 2**31)), "zeros", False)
    finally:
        SRAMArray._never_stressed = pristine
