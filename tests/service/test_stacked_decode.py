"""The lane decodes each receive group in one stacked pass.

``Shard`` captures a receive group with ``capture_fleet``, decodes the
group's hard states as one array (``decode_group``), which also builds
each job's ``DecodeResult``, and each job's ``decode_state`` takes its
own row as it stands.  These tests pin what must not change with that:
who falls back to ``receive()``, the retry billing, the raw BER, every
``DecodeResult`` field, and the ``ecc.*`` counters and records on each
job's span.
"""

from __future__ import annotations

import dataclasses

from repro import telemetry
from repro.api import ReceiveRequest, SendRequest
from repro.bitutils import bit_error_rate, invert_bits
from repro.core.fleetcapture import capture_fleet
from repro.core.pipeline import InvisibleBits
from repro.service import FleetHost, ServiceConfig, Shard
from repro.service import shards
from repro.service.queue import Job
from repro.telemetry import RingBufferSink
from repro.verify.oracles import _reference_decode_state

SEED = 17
DEVICES = [f"dev-{index}" for index in range(4)]


def _sent_shard(key: "bytes | None" = None) -> Shard:
    scheme = ServiceConfig().resolved_scheme()
    if key is not None:
        scheme = dataclasses.replace(scheme, key=key)
    shard = Shard("lane", FleetHost(scheme=scheme, seed=SEED))
    shard.execute_batch(
        [
            Job("send", SendRequest(device_id=d, message=d.encode() * 2), None)
            for d in DEVICES
        ]
    )
    return shard


def _receive_all(shard: Shard):
    outcomes, _reason = shard.execute_batch(
        [Job("receive", ReceiveRequest(device_id=d), None) for d in DEVICES]
    )
    return [outcome for _, outcome in outcomes]


def test_only_the_undecodable_row_falls_back_and_is_billed(monkeypatch):
    shard = _sent_shard()
    bad = 2
    header_bits = shard.host.scheme.frame.header_bits
    extra_attempts = []

    def corrupting_capture(boards, *args, **kwargs):
        fleet = capture_fleet(boards, *args, **kwargs)
        # An all-zero header state votes a 2**32 - 1 byte length.
        fleet.states[bad][:header_bits] = 0
        extra_attempts.append(sum(a - 1 for a in fleet.attempts))
        return fleet

    fallbacks = []
    receive = InvisibleBits.receive

    def escalating_receive(self, **kwargs):
        fallbacks.append(self)
        decode = receive(self, **kwargs)
        return dataclasses.replace(decode, total_captures=decode.total_captures + 2)

    monkeypatch.setattr(shards, "capture_fleet", corrupting_capture)
    monkeypatch.setattr(InvisibleBits, "receive", escalating_receive)
    results = _receive_all(shard)

    assert fallbacks == [shard.host.channel(DEVICES[bad])]
    assert [r.message for r in results] == [d.encode() * 2 for d in DEVICES]
    assert results[bad].total_captures == shard.host.scheme.n_captures + 2
    # The lane bills a fallback's captures beyond the scheme's count.
    assert shard.stats()["retry_attempts"] == extra_attempts[0] + 2


def test_raw_ber_is_the_capture_vote_against_the_staged_payload():
    shard, twin = _sent_shard(), _sent_shard()
    results = _receive_all(shard)
    channels = [twin.host.channel(d) for d in DEVICES]
    payloads = [twin.host.payload(d) for d in DEVICES]
    fleet = capture_fleet(
        [c.board for c in channels],
        twin.host.scheme.n_captures,
        payloads=payloads,
        resilient=True,
    )
    for result, state, payload in zip(results, fleet.states, payloads):
        assert result.raw_ber == bit_error_rate(payload, invert_bits(state))


def test_each_decode_state_span_carries_its_own_counters(monkeypatch):
    shard = _sent_shard(key=b"0123456789abcdef")
    seen = []
    decode_state = InvisibleBits.decode_state

    def recording(self, state, **kwargs):
        seen.append((self.board.device.device_id.hex(), self, state.copy()))
        return decode_state(self, state, **kwargs)

    monkeypatch.setattr(InvisibleBits, "decode_state", recording)
    sink = RingBufferSink(capacity=4096)
    telemetry.add_sink(sink)
    try:
        results = _receive_all(shard)
    finally:
        telemetry.remove_sink(sink)

    assert [r.message for r in results] == [d.encode() * 2 for d in DEVICES]
    spans = {
        r["attrs"]["device_id"]: r
        for r in sink.records(type="span")
        if r["name"] == "channel.decode_state"
    }
    assert len(seen) == len(spans) == len(DEVICES)
    for device_id, channel, state in seen:
        _, _, counts = _reference_decode_state(channel, state, None)
        expected = {}
        for name, value in counts:
            expected[name] = expected.get(name, 0) + value
        ecc = {
            name: value
            for name, value in spans[device_id]["counters"].items()
            if name.startswith("ecc.")
        }
        assert ecc == expected
        assert spans[device_id]["attrs"]["ecc_corrections"] == sum(
            value for name, value in expected.items() if name.endswith(".corrections")
        )


def test_every_receive_takes_its_first_pass_through_decode_state(monkeypatch):
    """Each hard receive hands its stacked row to ``decode_state`` once,
    so a ``decode_state`` that refuses every state sends every receive
    to the ``receive()`` fallback, which still reads the message back."""
    from repro.errors import CodecError

    shard = _sent_shard()
    first_passes, fallbacks = [], []
    receive = InvisibleBits.receive

    def undecodable(self, state, **kwargs):
        first_passes.append(kwargs["row"])
        raise CodecError("undecodable")

    def counting_receive(self, **kwargs):
        fallbacks.append(self)
        return receive(self, **kwargs)

    monkeypatch.setattr(InvisibleBits, "decode_state", undecodable)
    monkeypatch.setattr(InvisibleBits, "receive", counting_receive)
    results = _receive_all(shard)
    assert [r.message for r in results] == [d.encode() * 2 for d in DEVICES]
    assert len(first_passes) == len(fallbacks) == len(DEVICES)
    assert all(row is not None for row in first_passes)


def test_a_traced_lane_returns_what_an_untraced_lane_returns():
    traced_shard, shard = _sent_shard(), _sent_shard()
    sink = RingBufferSink(capacity=4096)
    telemetry.add_sink(sink)
    try:
        traced = _receive_all(traced_shard)
    finally:
        telemetry.remove_sink(sink)
    assert sum(
        r["name"] == "lane.execute" and r["attrs"]["kind"] == "receive"
        for r in sink.records(type="span")
    ) == len(DEVICES)
    untraced = _receive_all(shard)
    assert [r.to_dict() for r in untraced] == [r.to_dict() for r in traced]


def _decoded_group(n_devices=16):
    """A seeded 16-device, 24 h service group, captured and decoded as
    the lane does it: the channels, states, payloads and the stacked
    ``(results, counts)``."""
    from repro.core.pipeline import decode_group

    host = FleetHost(scheme=ServiceConfig().resolved_scheme(), seed=5)
    channels = [host.channel(f"dev-{i}") for i in range(n_devices)]
    payloads = [
        channel.send(b"msg %03d" % i, stress_hours=24.0).payload_bits
        for i, channel in enumerate(channels)
    ]
    fleet = capture_fleet(
        [channel.board for channel in channels], 5, payloads=payloads
    )
    results, counts = decode_group(
        channels,
        fleet.states,
        message_lens=[None] * n_devices,
        raw_errors=fleet.errors,
    )
    return channels, fleet, payloads, results, counts


def _same_result(a, b) -> bool:
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if hasattr(x, "shape") or hasattr(y, "shape"):
            if not (x.shape == y.shape and (x == y).all()):
                return False
        elif x != y:
            return False
    return True


def test_a_stacked_row_finishes_to_the_same_result_without_a_sink():
    """``decode_group`` builds each row's ``DecodeResult`` without a
    collecting span, and ``decode_state(row=...)`` returns it as it
    stands, yet every field equals the one the forced-span
    ``decode_state`` of the same state produces, ``ecc_corrections``
    included."""
    assert not telemetry.enabled()
    channels, fleet, payloads, results, counts = _decoded_group()
    for channel, state, payload, result, row_counts in zip(
        channels, fleet.states, payloads, results, counts
    ):
        taken = channel.decode_state(state, row=(result, row_counts))
        assert taken is result
        full = channel.decode_state(state, expected_payload=payload)
        assert _same_result(result, full)
        assert result.ecc_corrections == sum(
            value for name, value in row_counts if name.endswith(".corrections")
        )


def _records(run):
    """The records ``run()`` writes to a JSONL sink, read back."""
    import json
    import tempfile

    from repro.telemetry import JsonlSink

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/t.jsonl"
        sink = JsonlSink(path)
        telemetry.add_sink(sink)
        try:
            run()
        finally:
            telemetry.remove_sink(sink)
            sink.close()
        with open(path) as handle:
            return [json.loads(line) for line in handle]


def _shape(records):
    """Records without their clocks and ids: each span's parent by
    name, each counter's span by name.  The ``channel.decrypt`` and
    ``channel.ecc_decode`` children of a decode are left out, and a
    counter recorded on one is put on its ``channel.decode_state``."""
    names = {r["span_id"]: r["name"] for r in records if r["type"] == "span"}
    children = ("channel.decrypt", "channel.ecc_decode")
    shape = []
    for r in records:
        if r["type"] == "span":
            if r["name"] not in children:
                shape.append(
                    ("span", r["name"], r["status"], names.get(r["parent_id"]),
                     r["attrs"], r["counters"])
                )
        else:
            span = names[r["span_id"]]
            span = "channel.decode_state" if span in children else span
            shape.append((r["type"], r["name"], r["value"], span))
    return shape


def test_a_stacked_row_writes_the_same_records_to_a_jsonl_sink():
    """With a sink attached a row is recorded on one
    ``channel.decode_state`` span, which carries the same attributes,
    counters and result fields as ``decode_state`` of the same state;
    the counter records come in the same order.  The row was decoded
    already, so no ``channel.decrypt`` / ``channel.ecc_decode`` span
    times it."""
    channels, fleet, payloads, results, counts = _decoded_group(2)
    stacked = _records(
        lambda: channels[0].decode_state(
            fleet.states[0], row=(results[0], counts[0])
        )
    )
    assert [r["name"] for r in stacked if r["type"] == "span"] == [
        "channel.decode_state"
    ]
    expected = {}
    for name, value in counts[0]:
        expected[name] = expected.get(name, 0) + int(value)
    assert stacked[-1]["counters"] == expected
    own = _records(
        lambda: channels[0].decode_state(
            fleet.states[0], expected_payload=payloads[0]
        )
    )
    assert _shape(stacked) == _shape(own)


def test_an_undecodable_row_raises_inside_its_span():
    """A row ``decode_group`` could not decode is its ExtractionError;
    ``decode_state`` raises it inside the ``channel.decode_state`` span,
    as a failing decode of the same state does."""
    from repro.core.pipeline import decode_group
    from repro.errors import ExtractionError

    channels, fleet, payloads, _, _ = _decoded_group(2)
    state = fleet.states[1].copy()
    state[: channels[1].frame.header_bits] = 0  # votes a 2**32 - 1 byte length
    results, counts = decode_group(channels, [fleet.states[0], state], message_lens=[None] * 2)
    assert isinstance(results[1], ExtractionError)

    def taken():
        try:
            channels[1].decode_state(state, row=(results[1], counts[1]))
        except ExtractionError:
            pass
        else:
            raise AssertionError("the undecodable row did not raise")

    def own():
        try:
            channels[1].decode_state(state)
        except ExtractionError:
            pass

    records = _records(taken)
    assert _shape(records) == _shape(_records(own))
    assert [r["status"] for r in records if r["type"] == "span"] == ["error"]
