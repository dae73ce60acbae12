"""The channel's spans: an ordinary ``channel.send`` span and a scheme
description built once per scheme.

``channel.send`` is not forced: nothing but a sink reads a send span, so
with no sink and no enclosing span a send builds no span at all.  With a
sink attached the send's records are what they were as a forced span.
"""

from __future__ import annotations

from repro import ControlBoard, InvisibleBits, make_device, paper_end_to_end_scheme
from repro import telemetry
from repro.telemetry import RingBufferSink
from repro.telemetry.core import Span

KEY = b"0123456789abcdef"
MESSAGE = b"span check"


def _channel(seed=11):
    board = ControlBoard(make_device("MSP432P401", rng=seed, sram_kib=0.5))
    return InvisibleBits(
        board, scheme=paper_end_to_end_scheme(KEY, n_captures=3), use_firmware=False
    )


def test_send_without_sink_or_parent_builds_no_span(monkeypatch):
    channel = _channel()

    def no_span(self, name, *args, **kwargs):
        raise AssertionError(f"span {name} built with no sink and no parent")

    monkeypatch.setattr(Span, "__init__", no_span)
    sent = channel.send(MESSAGE, stress_hours=6.0)
    assert sent.message_bytes == len(MESSAGE)


def test_send_under_a_collecting_parent_still_folds_its_counters():
    channel = _channel()
    with telemetry.trace("outer", force=True) as outer:
        channel.send(MESSAGE, stress_hours=6.0)
    assert outer.counters["physics.stress_seconds_equivalent"] > 0


def test_traced_send_keeps_its_records():
    sink = RingBufferSink()
    telemetry.add_sink(sink)
    channel = _channel()
    channel.send(MESSAGE, stress_hours=6.0)
    spans = {record["name"]: record for record in sink.records(type="span")}
    send = spans["channel.send"]
    assert send["parent_id"] is None
    for name in ("channel.prepare", "board.stage", "board.stress"):
        assert spans[name]["parent_id"] == send["span_id"], name
        assert spans[name]["trace_id"] == send["trace_id"], name
    assert spans["physics.stress"]["parent_id"] == spans["board.stress"]["span_id"]
    recipe = channel.board.device.spec.recipe
    assert send["attrs"]["message_bytes"] == len(MESSAGE)
    assert send["attrs"]["stress_hours"] == 6.0
    assert send["attrs"]["recipe"]["vdd_stress"] == recipe.vdd_stress
    assert send["attrs"]["coded_bits"] > 0
    equivalent = spans["physics.stress"]["counters"][
        "physics.stress_seconds_equivalent"
    ]
    assert send["counters"]["physics.stress_seconds_equivalent"] == equivalent


def test_span_attrs_equal_a_fresh_describe():
    sink = RingBufferSink()
    telemetry.add_sink(sink)
    channel = _channel()
    sent = channel.send(MESSAGE, stress_hours=12.0)
    received = channel.receive(expected_payload=sent.payload_bits)
    channel.decode_state(received.power_on_state)
    device = channel.board.device
    expected = {
        "device": device.spec.name,
        "device_id": device.device_id.hex(),
        "scheme": channel.scheme.describe(),
    }
    for name in ("channel.send", "channel.receive", "channel.decode_state"):
        (record,) = [r for r in sink.records(type="span", name=name)]
        attrs = record["attrs"]
        assert {key: attrs[key] for key in expected} == expected, name


def test_scheme_description_is_built_once_and_copied_per_call():
    channel = _channel()
    scheme = channel.scheme
    first = scheme.describe()
    first["decision"] = "mutated"  # a caller's copy, not the scheme's
    assert scheme.describe()["decision"] == "hard"
    assert scheme._description is scheme._description  # built once
    swapped = scheme.with_decision("soft")
    channel.scheme = swapped
    assert channel._span_attrs()["scheme"] == swapped.describe()
    assert channel._span_attrs()["scheme"]["decision"] == "soft"
    channel.board.device.device_id = bytes(12)  # what a snapshot restore does
    assert channel._span_attrs()["device_id"] == bytes(12).hex()
