"""Unit tests for the repro.telemetry registry, spans and sinks."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import (
    ConsoleSink,
    JsonlSink,
    RingBufferSink,
    load_records,
    summarize,
)


class TestDisabledByDefault:
    def test_no_sinks_means_disabled(self):
        assert not telemetry.enabled()
        assert not telemetry.active()

    def test_trace_yields_null_span_when_disabled(self):
        with telemetry.trace("x", a=1) as span:
            # The shared null span: set/count are chainable no-ops.
            assert span.set(b=2) is span
            span.count("c", 3)
            assert span.counters == {}
        assert not telemetry.active()

    def test_count_and_gauge_are_noops_when_disabled(self):
        telemetry.count("nothing", 1)
        telemetry.gauge("nothing", 2.0)

    def test_null_span_is_shared(self):
        with telemetry.trace("a") as s1:
            pass
        with telemetry.trace("b") as s2:
            pass
        assert s1 is s2


class TestSpans:
    def test_span_records_emitted_to_sink(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with telemetry.trace("outer", device="X") as span:
            span.count("things", 2)
            with telemetry.trace("inner"):
                telemetry.count("things", 3)
        spans = sink.records(type="span")
        assert [s["name"] for s in spans] == ["inner", "outer"]
        outer = spans[1]
        assert outer["attrs"]["device"] == "X"
        assert outer["status"] == "ok"
        assert outer["dur_ms"] >= 0
        assert outer["parent_id"] is None
        assert spans[0]["parent_id"] == outer["span_id"]

    def test_child_counters_fold_into_parent(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with telemetry.trace("outer"):
            with telemetry.trace("inner"):
                telemetry.count("ecc.corrections", 5)
            telemetry.count("ecc.corrections", 1)
        outer = sink.records(type="span", name="outer")[0]
        assert outer["counters"]["ecc.corrections"] == 6

    def test_counter_records_emitted_once_per_count_call(self):
        # Summaries rely on this: folding into parents must not create
        # duplicate counter records.
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with telemetry.trace("outer"):
            with telemetry.trace("inner"):
                telemetry.count("k", 5)
        counters = sink.records(type="counter", name="k")
        assert len(counters) == 1
        assert counters[0]["value"] == 5

    def test_error_status_on_exception(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with pytest.raises(ValueError):
            with telemetry.trace("boom"):
                raise ValueError("no")
        assert sink.records(type="span", name="boom")[0]["status"] == "error"

    def test_forced_span_collects_without_sinks(self):
        with telemetry.trace("forced", force=True) as span:
            assert telemetry.active()
            telemetry.count("k", 7)
        assert span.counters["k"] == 7
        assert not telemetry.active()

    def test_forced_span_without_sink_builds_no_record(self, monkeypatch):
        from repro.telemetry.core import Span

        def no_record(self):
            raise AssertionError(f"record built for {self.name} with no sink")

        monkeypatch.setattr(Span, "to_record", no_record)
        with telemetry.trace("outer", force=True) as outer:
            with telemetry.trace("inner") as inner:
                telemetry.count("k", 2)
                telemetry.gauge("level", 0.5)
            assert inner.attrs["level"] == 0.5
        # Counters still fold into the parent with nobody listening.
        assert inner.counters == {"k": 2}
        assert outer.counters == {"k": 2}

    def test_gauge_sets_span_attr(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with telemetry.trace("g"):
            telemetry.gauge("level", 0.5)
        assert sink.records(type="span", name="g")[0]["attrs"]["level"] == 0.5
        assert sink.records(type="gauge", name="level")[0]["value"] == 0.5

    def test_numpy_and_bytes_attrs_become_jsonable(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with telemetry.trace(
            "np",
            scalar=np.float64(1.5),
            arr=np.arange(3, dtype=np.uint8),
            blob=b"\x01\x02",
        ):
            pass
        record = sink.records(type="span", name="np")[0]
        json.dumps(record)  # must not raise
        assert record["attrs"]["scalar"] == 1.5
        assert record["attrs"]["arr"] == [0, 1, 2]
        assert record["attrs"]["blob"] == "0102"


class TestSinks:
    def test_ring_buffer_capacity(self):
        sink = RingBufferSink(capacity=3)
        telemetry.add_sink(sink)
        for i in range(5):
            with telemetry.trace(f"s{i}"):
                pass
        assert len(sink) == 3
        assert [r["name"] for r in sink.records()] == ["s2", "s3", "s4"]
        sink.clear()
        assert len(sink) == 0

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        telemetry.add_sink(sink)
        with telemetry.trace("one", k=1):
            telemetry.count("c", 2)
        telemetry.remove_sink(sink)
        sink.close()
        records = load_records(path)
        assert {r["type"] for r in records} == {"span", "counter"}
        assert records[-1]["name"] == "one"

    def test_console_sink_renders_lines(self):
        stream = io.StringIO()
        sink = ConsoleSink(stream)
        telemetry.add_sink(sink)
        with telemetry.trace("shown", device="X"):
            telemetry.count("n", 2)
        text = stream.getvalue()
        assert "[span] shown" in text
        assert "device=X" in text
        assert "[counter] n = 2" in text

    def test_remove_sink_disables(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        assert telemetry.enabled()
        telemetry.remove_sink(sink)
        assert not telemetry.enabled()
        with telemetry.trace("after"):
            pass
        assert len(sink) == 0


class TestSummary:
    def test_summarize_totals_and_spans(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        for _ in range(3):
            with telemetry.trace("board.capture"):
                telemetry.count("board.captures", 5)
        text = summarize(sink.records())
        assert "board.capture" in text
        assert "board.captures" in text
        assert "15" in text  # 3 bursts x 5 captures

    def test_summarize_empty(self):
        assert "0 records" in summarize([])
