"""The lane decodes each receive group in one stacked pass.

``Shard`` captures a receive group with ``capture_fleet``, decodes the
group's hard states as one array (``decode_group``), and each job's
``decode_state`` consumes its own row.  These tests pin what must not
change with that: who falls back to ``receive()``, the retry billing,
the raw BER, and the ``ecc.*`` counters on each job's span.
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


def _decoded_group(n_devices=16):
    """A seeded 16-device, 24 h service group, captured and decoded as
    the lane does it: the channels, states, payloads and stacked rows."""
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
    rows = decode_group(
        channels,
        fleet.states,
        message_lens=[None] * n_devices,
        raw_errors=fleet.errors,
    )
    return channels, fleet, payloads, rows


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
    """``decode_state(decoded=row)`` opens no collecting span, yet every
    ``DecodeResult`` field equals the one the forced-span decode of the
    same state produces, ``ecc_corrections`` included."""
    assert not telemetry.enabled()
    channels, fleet, payloads, rows = _decoded_group()
    for channel, state, payload, row in zip(channels, fleet.states, payloads, rows):
        lean = channel.decode_state(state, expected_payload=payload, decoded=row)
        full = channel.decode_state(state, expected_payload=payload)
        assert _same_result(lean, full)
        assert lean.ecc_corrections == sum(
            value for name, value in row.counts if name.endswith(".corrections")
        )


def test_a_stacked_row_writes_the_same_records_to_a_jsonl_sink(tmp_path):
    """With a sink attached the row's decode is traced as before: the
    ``channel.decode_state`` span parents ``channel.decrypt`` and
    ``channel.ecc_decode``, and carries the row's counters and its
    ``ecc_corrections``."""
    import json

    from repro.telemetry import JsonlSink

    channels, fleet, payloads, rows = _decoded_group(2)
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    telemetry.add_sink(sink)
    try:
        channels[0].decode_state(
            fleet.states[0], expected_payload=payloads[0], decoded=rows[0]
        )
    finally:
        telemetry.remove_sink(sink)
        sink.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    spans = {r["name"]: r for r in records if r["type"] == "span"}
    assert sorted(spans) == [
        "channel.decode_state",
        "channel.decrypt",
        "channel.ecc_decode",
    ]
    root = spans["channel.decode_state"]
    for child in ("channel.decrypt", "channel.ecc_decode"):
        assert spans[child]["parent_id"] == root["span_id"]
        assert spans[child]["trace_id"] == root["trace_id"]
    expected = {}
    for name, value in rows[0].counts:
        expected[name] = expected.get(name, 0) + int(value)
    assert spans["channel.ecc_decode"]["counters"] == expected
    assert root["counters"] == expected
    assert root["attrs"]["ecc_corrections"] == sum(
        value for name, value in expected.items() if name.endswith(".corrections")
    )
    counters = [r for r in records if r["type"] == "counter"]
    assert [(r["name"], r["span_id"]) for r in counters] == [
        (name, spans["channel.ecc_decode"]["span_id"]) for name, _ in rows[0].counts
    ]
