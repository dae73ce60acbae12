"""Performance microbenchmarks of the substrate hot paths.

Unlike the experiment benches (one-shot regenerations), these run multiple
rounds to give honest throughput numbers for the operations every
experiment leans on: power-on sampling of a full-size 64 KiB array, bulk
AES-CTR keystream generation, Hamming decode, and Moran's I over a full
die grid.
"""

import gc
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from repro.crypto import AesCtr
from repro.device.catalog import device_spec
from repro.device import make_device
from repro.ecc import hamming_7_4
from repro.core.scheme import paper_end_to_end_scheme
from repro.harness.rack import EncodingRack
from repro.service.shards import FleetHost
from repro.sram import SRAMArray
from repro.stats import morans_i
from repro.units import hours


@pytest.fixture(scope="module")
def full_size_array():
    """A full 64 KiB MSP432 SRAM (524,288 cells)."""
    tech = device_spec("MSP432P401").technology
    return SRAMArray.from_kib(64, tech, rng=0)


def _aged_full_array(seed):
    """A deterministically stress-encoded 64 KiB array (the receiver's
    workload: captures happen on arrays that carry a message)."""
    tech = device_spec("MSP432P401").technology
    arr = SRAMArray.from_kib(64, tech, rng=seed)
    arr.apply_power()
    payload = np.random.default_rng(99).integers(0, 2, arr.n_bits)
    arr.write(payload.astype(np.uint8))
    arr.set_voltage(3.0)
    arr.hold(hours(10))
    arr.remove_power()
    return arr


def _seed_loop_capture(arr, n_captures, off_seconds=1.0):
    """The pre-batching capture loop, kept as the speedup baseline: every
    capture rebuilds both dvth arrays, the full offset vector, and a
    full-width noise vector."""
    nbti = arr._nbti
    out = np.empty((n_captures, arr.n_bits), dtype=np.uint8)
    for i in range(n_captures):
        if arr.powered:
            arr.remove_power(drain=True)
        nbti.relax(arr.age_when_1, off_seconds)
        nbti.relax(arr.age_when_0, off_seconds)
        offsets = (
            arr.mismatch
            + nbti.dvth(arr.age_when_0)
            - nbti.dvth(arr.age_when_1)
        )
        sigma = arr._hci.noise_widening(arr.toggle_count, arr.technology.noise_sigma)
        sigma *= float(np.sqrt(arr.temp_k / arr.technology.temp_nominal_k))
        state = (offsets + sigma * arr._rng.standard_normal(arr.n_bits) > 0.0)
        out[i] = state
        arr.powered = True
        arr.vdd = arr.technology.vdd_nominal
        arr._data = out[i]
    arr._data = out[-1].copy()
    return out


def test_perf_power_cycle_64kib(benchmark, full_size_array):
    """Sampling one power-on state of a full-size array."""
    result = benchmark(full_size_array.power_cycle)
    assert result.size == 64 * 1024 * 8


def test_perf_stress_step_64kib(benchmark, full_size_array):
    """One aging step over a full-size array (the encode inner loop)."""
    arr = full_size_array
    if not arr.powered:
        arr.apply_power()

    def step():
        arr.hold(60.0)

    benchmark(step)


def test_perf_aes_ctr_keystream(benchmark):
    """64 KiB of AES-CTR keystream (one full SRAM image's envelope)."""
    ctr = AesCtr(b"0123456789abcdef", b"perf-nonce12")
    out = benchmark(ctr.keystream, 64 * 1024)
    assert out.size == 64 * 1024


def test_perf_hamming_decode(benchmark):
    """Hamming(7,4) decode of a 64 KiB-equivalent coded stream."""
    code = hamming_7_4()
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, 4 * 10_000).astype(np.uint8)
    coded = code.encode(data)
    noisy = coded ^ (rng.random(coded.size) < 0.01).astype(np.uint8)
    decoded = benchmark(code.decode, noisy)
    assert decoded.size == data.size


def test_perf_batch_capture_64kib(benchmark):
    """Five-capture batched power-on sampling of an encoded 64 KiB array
    (the §4.3 receiver inner loop)."""
    arr = _aged_full_array(seed=0)
    samples = benchmark(arr.capture_power_on_states, 5)
    assert samples.shape == (5, arr.n_bits)


def test_perf_batch_capture_speedup_vs_seed_loop(record_metric):
    """The batch engine must beat the pre-batching loop by >= 5x on the
    5-capture 64 KiB workload while decoding to the same result.

    The two algorithms consume the noise stream differently (full-width
    versus band-only draws), so agreement here is statistical; the
    *bit-exact* batch-vs-loop guarantee for the production engine is
    tests/sram/test_capture_batch.py.
    """
    from repro.bitutils import bit_error_rate, invert_bits, majority_vote

    arr_loop = _aged_full_array(seed=0)
    arr_batch = _aged_full_array(seed=0)
    payload = np.random.default_rng(99).integers(0, 2, arr_loop.n_bits)

    # Same channel error on identical twins (also the warm-up pass).
    vote_loop = majority_vote(_seed_loop_capture(arr_loop, 5))
    vote_batch = majority_vote(arr_batch.capture_power_on_states(5))
    err_loop = bit_error_rate(payload, invert_bits(vote_loop))
    err_batch = bit_error_rate(payload, invert_bits(vote_batch))
    assert err_batch == pytest.approx(err_loop, abs=0.002)

    def best_of(fn, reps=5):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_loop = best_of(lambda: _seed_loop_capture(arr_loop, 5))
    t_batch = best_of(lambda: arr_batch.capture_power_on_states(5))
    speedup = t_loop / t_batch
    print(f"\nbatch capture speedup: {speedup:.1f}x "
          f"({t_loop * 1e3:.1f} ms -> {t_batch * 1e3:.1f} ms)")
    record_metric("batch_capture_speedup", speedup, better="higher", unit="x")
    record_metric("batch_capture_ms", t_batch * 1e3, unit="ms")
    assert speedup >= 5.0


def test_perf_telemetry_disabled_overhead(record_metric):
    """Collecting spans (forced, no sink) must stay within 1.25x of the
    fully-disabled null-span path on the receiver hot path.

    The disabled path itself is guarded against regression by
    ``test_perf_batch_capture_speedup_vs_seed_loop``: the >= 5x gate is
    measured against an *uninstrumented* replica of the pre-batching
    algorithm, so any always-on telemetry cost would erode that margin
    (docs/telemetry.md, overhead contract: < 5% disabled-mode).
    """
    from repro import telemetry

    if telemetry.enabled():  # REPRO_TRACE runs measure the enabled path
        pytest.skip("a sink is attached (REPRO_TRACE): no disabled path")
    arr = _aged_full_array(seed=3)
    arr.capture_power_on_states(5)  # warm the caches

    def best_of(fn, reps=9):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_off = best_of(lambda: arr.capture_power_on_states(5))

    with telemetry.trace("bench", force=True):
        t_collecting = best_of(lambda: arr.capture_power_on_states(5))

    ratio = t_collecting / t_off
    print(f"\ntelemetry collecting/disabled ratio: {ratio:.3f} "
          f"({t_off * 1e3:.2f} ms -> {t_collecting * 1e3:.2f} ms)")
    record_metric("telemetry_collecting_ratio", ratio, unit="x")
    # Span collection is burst-granular: a handful of dict ops per
    # 524,288-cell burst.
    assert ratio < 1.25


def test_perf_telemetry_enabled_overhead(record_metric):
    """With a live RingBufferSink the capture hot path must stay within
    1.25x of the disabled path (record volume is burst-granular, never
    per cell or per capture)."""
    from repro import telemetry
    from repro.telemetry import RingBufferSink

    arr = _aged_full_array(seed=4)
    arr.capture_power_on_states(5)  # warm-up

    def best_of(fn, reps=9):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_disabled = best_of(lambda: arr.capture_power_on_states(5))

    sink = RingBufferSink()
    telemetry.add_sink(sink)
    try:
        t_enabled = best_of(lambda: arr.capture_power_on_states(5))
    finally:
        telemetry.remove_sink(sink)

    assert len(sink) > 0  # it really recorded
    spans = sink.records(type="span", name="sram.capture")
    assert spans and spans[-1]["counters"]["sram.captures"] == 5

    ratio = t_enabled / t_disabled
    print(f"\ntelemetry enabled/disabled ratio: {ratio:.3f} "
          f"({t_disabled * 1e3:.2f} ms -> {t_enabled * 1e3:.2f} ms)")
    record_metric("telemetry_enabled_ratio", ratio, unit="x")
    assert ratio < 1.25


def test_perf_metrics_disabled_fast_path(record_metric):
    """A disabled instrument update must be a per-call triviality.

    The capture hot paths call module-level counters unconditionally;
    while the registry is disabled (the default) each call is one method
    dispatch plus one attribute test.  Gate the per-call cost at an
    absolute 2 microseconds (CPython does this in ~0.1-0.2 us; the
    generous bound absorbs CI noise), mirroring the telemetry null-span
    contract.
    """
    from repro import metrics
    from repro.sram.array import _CAPTURE_CELLS_TOTAL

    assert not metrics.enabled()
    n = 100_000

    def burst():
        inc = _CAPTURE_CELLS_TOTAL.inc
        for _ in range(n):
            inc(8)

    def best_of(fn, reps=5):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    per_call_us = best_of(burst) / n * 1e6
    print(f"\ndisabled metrics inc: {per_call_us:.3f} us/call")
    record_metric("metrics_disabled_inc_us", per_call_us, unit="us")
    # No series may have recorded anything while disabled.
    assert _CAPTURE_CELLS_TOTAL.series()[()].value == 0.0
    assert per_call_us < 2.0


def test_perf_metrics_enabled_overhead(record_metric):
    """With the metrics registry recording, the capture hot path must
    stay within 1.25x of the disabled path (instrument updates are
    burst-granular: one counter bump per 5-capture, 524,288-cell burst).
    """
    from repro import metrics

    arr = _aged_full_array(seed=5)
    arr.capture_power_on_states(5)  # warm the caches

    def best_of(fn, reps=9):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_disabled = best_of(lambda: arr.capture_power_on_states(5))

    metrics.enable()
    try:
        t_enabled = best_of(lambda: arr.capture_power_on_states(5))
        cells = metrics.registry.get("repro_capture_cells_total")
        assert cells.series()[()].value > 0  # it really recorded
    finally:
        metrics.disable()
        metrics.registry.reset_values()

    ratio = t_enabled / t_disabled
    print(f"\nmetrics enabled/disabled ratio: {ratio:.3f} "
          f"({t_disabled * 1e3:.2f} ms -> {t_enabled * 1e3:.2f} ms)")
    record_metric("metrics_enabled_ratio", ratio, unit="x")
    assert ratio < 1.25


def test_perf_rack_measure_throughput(benchmark):
    """Tray-wide channel measurement: 4 boards x 5 captures each."""
    devices = [make_device("MSP432P401", rng=80 + i, sram_kib=4) for i in range(4)]
    rack = EncodingRack(devices)
    rng = np.random.default_rng(5)
    payloads = [
        rng.integers(0, 2, board.device.sram.n_bits).astype(np.uint8)
        for board in rack.boards
    ]
    rack.stage_payloads(payloads)
    rack.stress_all(stress_hours=10.0)
    errors = benchmark(rack.measure_errors, payloads)
    assert len(errors) == 4


def _encoded_tray(n_devices=8, sram_kib=64, stress_hours=10.0):
    """A staged-and-stressed tray of full-size devices plus its payloads."""
    devices = [
        make_device("MSP432P401", rng=90 + i, sram_kib=sram_kib)
        for i in range(n_devices)
    ]
    rack = EncodingRack(devices)
    rng = np.random.default_rng(7)
    payloads = [
        rng.integers(0, 2, board.device.sram.n_bits).astype(np.uint8)
        for board in rack.boards
    ]
    rack.stage_payloads(payloads)
    rack.stress_all(stress_hours=stress_hours)
    return rack, payloads


def test_perf_fleet_capture_speedup(record_metric):
    """The fleet kernel must beat the naive per-device capture loop by
    >= 10x on the 8-device x 64 KiB x 5-capture tray measurement.

    The baseline is the per-device equivalent of the pre-batching loop
    (``_seed_loop_capture`` applied slot by slot, plus majority vote and
    channel error) — the same convention ``batch_capture_speedup`` uses
    for a single array.  The two consume noise differently (full-width
    versus band-only draws), so agreement is statistical; the bit-exact
    fleet-vs-loop guarantee is the ``fleet.capture_vs_device_loop``
    oracle and tests/core/test_fleetcapture.py.
    """
    from repro.bitutils import bit_error_rate, invert_bits, majority_vote

    rack_loop, payloads = _encoded_tray()
    rack_fleet, _ = _encoded_tray()

    def naive_tray_measure():
        errors = []
        for board, payload in zip(rack_loop.boards, payloads):
            stack = _seed_loop_capture(board.device.sram, 5)
            vote = majority_vote(stack)
            errors.append(bit_error_rate(payload, invert_bits(vote)))
        return errors

    # Same channel error on identical twins (also the warm-up pass).
    err_loop = naive_tray_measure()
    err_fleet = rack_fleet.measure_errors(payloads, n_captures=5)
    for a, b in zip(err_loop, err_fleet):
        assert b == pytest.approx(a, abs=0.002)

    def best_of(fn, reps=3):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_loop = best_of(naive_tray_measure)
    t_fleet = best_of(
        lambda: rack_fleet.measure_errors(payloads, n_captures=5)
    )
    speedup = t_loop / t_fleet
    print(f"\nfleet capture speedup: {speedup:.1f}x "
          f"({t_loop * 1e3:.1f} ms -> {t_fleet * 1e3:.1f} ms)")
    record_metric("fleet_capture_speedup", speedup, better="higher", unit="x")
    record_metric("fleet_capture_ms", t_fleet * 1e3, unit="ms")
    assert speedup >= 10.0


def test_perf_fleet_decode_speedup(record_metric):
    """The stacked group decode must beat the per-device decode loop by
    >= 2x in CPU per message, on one 16-device receive group of
    24 h-stressed service devices (paper scheme, framed, 5 captures).

    Both sides do the same work per device: invert, header vote, ECC
    decode, message bytes and counters — the stacked decode alone, not
    the ``DecodeResult``s ``decode_group`` then builds from its rows.
    The loop is the per-device reference the
    ``fleet.decode_vs_device_loop`` oracle compares against; that oracle
    pins bit-identity, this bench only the cost.
    """
    from repro.core.fleetcapture import capture_fleet
    from repro.core.pipeline import _stacked_decode, decode_group
    from repro.service import ServiceConfig
    from repro.verify.oracles import _reference_decode_state

    n_devices = 16
    host = FleetHost(scheme=ServiceConfig().resolved_scheme(), seed=5)
    channels = [host.channel(f"dev-{i}") for i in range(n_devices)]
    payloads = [
        channel.send(b"msg %03d" % i, stress_hours=24.0).payload_bits
        for i, channel in enumerate(channels)
    ]
    fleet = capture_fleet(
        [channel.board for channel in channels], 5, payloads=payloads
    )
    lens = [None] * n_devices

    def stacked():
        return _stacked_decode(channels, fleet.states, lens)

    def loop():
        return [
            _reference_decode_state(channel, state, None)
            for channel, state in zip(channels, fleet.states)
        ]

    _, outcomes, counts = stacked()
    results, _ = decode_group(channels, fleet.states, message_lens=lens)
    for outcome, result, row_counts, (message, _, loop_counts) in zip(
        outcomes, results, counts, loop()
    ):
        assert outcome == result.message == message
        assert list(row_counts) == loop_counts

    def best_of(fn, reps=30):
        best = float("inf")
        for _ in range(reps):
            t0 = time.process_time()
            fn()
            best = min(best, time.process_time() - t0)
        return best

    t_loop, t_stacked = best_of(loop), best_of(stacked)
    speedup = t_loop / t_stacked
    print(f"\nfleet decode speedup: {speedup:.1f}x "
          f"({t_loop / n_devices * 1e3:.3f} -> "
          f"{t_stacked / n_devices * 1e3:.3f} ms CPU per message)")
    record_metric("fleet_decode_speedup", speedup, better="higher", unit="x")
    record_metric("fleet_decode_ms_per_msg", t_stacked / n_devices * 1e3, unit="ms")
    assert speedup >= 2.0


def test_perf_fleet_group_capture_speedup(record_metric):
    """One stacked ``capture_fleet`` over a receive group must beat
    capturing the group's devices one ``capture_fleet([board])`` at a time
    by >= 1.5x in CPU per device, on the 16-device group of 24 h-stressed
    service devices ``test_perf_fleet_decode_speedup`` decodes (paper
    scheme, 5 captures, payload BER on): the median ratio over 15
    interleaved one-by-one/stacked pairs.

    Both sides plan, draw each device's noise from its own generator and
    commit per device; only the band kernel, the vote and the BER run as
    one pass over the group.  The ``fleet.capture_vs_device_loop`` oracle
    pins bit-identity; this bench only the cost.
    """
    from repro.core.fleetcapture import capture_fleet
    from repro.service import ServiceConfig

    n_devices, reps = 16, 10
    host = FleetHost(scheme=ServiceConfig().resolved_scheme(), seed=5)
    channels = [host.channel(f"dev-{i}") for i in range(n_devices)]
    payloads = [
        channel.send(b"msg %03d" % i, stress_hours=24.0).payload_bits
        for i, channel in enumerate(channels)
    ]
    boards = [channel.board for channel in channels]

    def stacked():
        t0 = time.process_time()
        for _ in range(reps):
            capture_fleet(boards, 5, payloads=payloads)
        return time.process_time() - t0

    def one_by_one():
        t0 = time.process_time()
        for _ in range(reps):
            for board, payload in zip(boards, payloads):
                capture_fleet([board], 5, payloads=[payload])
        return time.process_time() - t0

    stacked(), one_by_one()  # warm the capture caches and relax tables
    pairs = [(one_by_one(), stacked()) for _ in range(15)]
    speedup = statistics.median(single / group for single, group in pairs)
    t_group = statistics.median(group for _, group in pairs) / reps
    ratios = sorted(single / group for single, group in pairs)
    print(f"\nfleet group capture speedup: {speedup:.2f}x "
          f"(pairs {ratios[0]:.2f}-{ratios[-1]:.2f}x; "
          f"{t_group / n_devices * 1e6:.1f} us CPU per device stacked)")
    record_metric("fleet_group_capture_speedup", speedup, better="higher", unit="x")
    record_metric(
        "fleet_group_capture_us_per_device", t_group / n_devices * 1e6, unit="us"
    )
    assert speedup >= 1.5


def test_perf_lane_receive_group(record_metric):
    """One 16-receive batch through ``Shard.execute_batch`` must beat the
    same 16 receives as 16 one-receive batches by >= 2.5x in CPU per
    device, on 24 h-stressed service devices (paper scheme, 5 captures,
    metrics on as in the service): the median ratio over 15 interleaved
    one-by-one/grouped pairs.

    The lane layer (ROADMAP north star, layer 3): capture, decode and
    result building per receive group, around the kernels that
    ``fleet_group_capture_speedup`` and ``fleet_decode_speedup`` time
    alone.  Every receive must read its message back on the first pass.
    With a sink attached (``REPRO_TRACE``) both sides also record every
    job's spans, which do not stack, so the floor there is 1.5x.
    """
    from repro import metrics, telemetry
    from repro.api import ReceiveRequest, SendRequest
    from repro.service import ServiceConfig, Shard
    from repro.service.queue import Job

    n_devices, reps = 16, 5
    shard = Shard("lane", FleetHost(scheme=ServiceConfig().resolved_scheme(), seed=5))
    devices = [f"dev-{i}" for i in range(n_devices)]
    messages = {d: b"msg %03d" % i for i, d in enumerate(devices)}
    shard.execute_batch(
        [
            Job("send", SendRequest(device_id=d, message=messages[d], stress_hours=24.0), None)
            for d in devices
        ]
    )

    def receives(ids):
        return [Job("receive", ReceiveRequest(device_id=d), None) for d in ids]

    def grouped():
        t0 = time.process_time()
        for _ in range(reps):
            outcomes, _ = shard.execute_batch(receives(devices))
        elapsed = time.process_time() - t0
        assert [o.message for _, o in outcomes] == [messages[d] for d in devices]
        return elapsed

    def one_by_one():
        t0 = time.process_time()
        for _ in range(reps):
            for device in devices:
                shard.execute_batch(receives([device]))
        return time.process_time() - t0

    metrics.enable()
    grouped(), one_by_one()  # warm the capture caches and relax tables
    pairs = [(one_by_one(), grouped()) for _ in range(15)]
    speedup = statistics.median(single / group for single, group in pairs)
    t_group = statistics.median(group for _, group in pairs) / reps
    ratios = sorted(single / group for single, group in pairs)
    print(f"\nlane receive group speedup: {speedup:.2f}x "
          f"(pairs {ratios[0]:.2f}-{ratios[-1]:.2f}x; "
          f"{t_group / n_devices * 1e6:.1f} us CPU per device grouped)")
    assert shard.stats()["retry_attempts"] == 0
    record_metric("lane_receive_group_speedup", speedup, better="higher", unit="x")
    record_metric("lane_receive_us_per_device", t_group / n_devices * 1e6, unit="us")
    assert speedup >= (1.5 if telemetry.enabled() else 2.5)


def test_perf_fleet_send_speedup(record_metric):
    """The lean per-device send must beat the reference send by >= 1.3x
    in CPU per message: device creation plus ``send`` of fresh default
    0.25 KiB service devices, inside a trace context as on the lane; the
    median ratio over 15 interleaved reference/lean pairs.

    The reference binds the mask-form ``hold``, the full capture-cache
    refresh and the full band decisions of ``repro.verify.send_reference``
    and forces the ``channel.send`` span, as it was before that span
    became an ordinary one, so its nested ``board.*``/``physics.*`` spans
    are real.  The ``sram.lean_send_vs_reference`` oracle pins
    bit-identity; this bench only the cost.
    """
    from repro import telemetry
    from repro.core import pipeline
    from repro.service import ServiceConfig
    from repro.telemetry import context as trace_ctx
    from repro.verify.send_reference import reference_twin

    if telemetry.enabled():  # REPRO_TRACE: both paths' spans are real
        pytest.skip("a sink is attached (REPRO_TRACE): no unforced send path")
    scheme = ServiceConfig().resolved_scheme()
    n_devices = 32

    class ForcedSend:
        """``repro.telemetry`` as the pipeline sees it, with the
        ``channel.send`` span forced."""

        def __getattr__(self, name):
            return getattr(telemetry, name)

        def trace(self, name, *, force=False, **attrs):
            force = force or name == "channel.send"
            return telemetry.trace(name, force=force, **attrs)

    def sends(reference, seed):
        host = FleetHost(scheme=scheme, seed=seed)
        if reference:
            pipeline.telemetry = ForcedSend()
        try:
            t0 = time.process_time()
            for i in range(n_devices):
                with trace_ctx.trace_context(inherit=False):
                    channel = host.channel(f"dev-{i}")
                    if reference:
                        reference_twin(channel.board)
                    channel.send(b"msg %04d" % i, stress_hours=24.0)
            return time.process_time() - t0
        finally:
            pipeline.telemetry = telemetry

    sends(False, 0), sends(True, 0)  # first-use imports and caches
    # Adjacent pairs, so drift in the host's speed hits both sides of a
    # ratio alike; the median ratio is steadier than a ratio of two
    # best-ofs, which one lucky rep on either side can swing by 0.3x.
    pairs = [(sends(True, seed), sends(False, seed)) for seed in range(1, 16)]
    speedup = statistics.median(ref / lean for ref, lean in pairs)
    t_ref = statistics.median(ref for ref, _ in pairs)
    t_lean = statistics.median(lean for _, lean in pairs)
    print(f"\nfleet send speedup: {speedup:.2f}x "
          f"({t_ref / n_devices * 1e3:.3f} -> "
          f"{t_lean / n_devices * 1e3:.3f} ms CPU per message)")
    record_metric("fleet_send_speedup", speedup, better="higher", unit="x")
    record_metric("fleet_send_ms_per_msg", t_lean / n_devices * 1e3, unit="ms")
    assert speedup >= 1.3


def test_perf_morans_i_full_grid(benchmark):
    """Moran's I over a full 64 KiB die grid (2048 x 256)."""
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, (2048, 256)).astype(np.float64)
    result = benchmark(morans_i, bits)
    assert abs(result.statistic) < 0.02


def test_perf_device_resident_kib(record_metric):
    """Memory per resident service device: traced KiB each default
    0.25 KiB ``FleetHost`` device holds after one send and one receive.

    This is the per-device slope behind a soak's peak RSS (the ladder's
    RSS-per-device rung).  Physics is ~80 KiB of it (mismatch and four
    NBTI clock arrays); the ceiling keeps a dense Flash image or a second
    offsets vector from coming back.
    """
    host = FleetHost(
        scheme=paper_end_to_end_scheme(copies=7, n_captures=5), seed=5
    )

    def send_receive(device_id):
        channel = host.channel(device_id)
        sent = channel.send(b"8 bytes!", stress_hours=24)
        host.store_payload(device_id, sent.payload_bits)
        assert channel.receive().message == b"8 bytes!"

    for i in range(4):  # shared first-use state is not per device
        send_receive(f"warm-{i}")
    gc.collect()
    n_devices = 64
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(n_devices):
            send_receive(f"dev-{i}")
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    kib = grown / n_devices / 1024
    print(f"\nresident device: {kib:.1f} KiB")
    record_metric("device_resident_kib", kib, unit="KiB")
    assert kib <= 110.0
