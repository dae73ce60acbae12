"""Sink behaviour in isolation: rendering, eviction, file modes."""

from __future__ import annotations

import io
import json

import pytest

from repro.telemetry import ConsoleSink, JsonlSink, RingBufferSink, sinks


class TestRingBufferSink:
    def test_evicts_oldest_beyond_capacity(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.emit({"type": "counter", "name": f"c{i}", "value": i})
        assert len(sink) == 3
        assert [r["name"] for r in sink.records()] == ["c2", "c3", "c4"]

    def test_filters_by_type_and_name(self):
        sink = RingBufferSink()
        sink.emit({"type": "span", "name": "a"})
        sink.emit({"type": "counter", "name": "a"})
        sink.emit({"type": "counter", "name": "b"})
        assert len(sink.records(type="counter")) == 2
        assert len(sink.records(name="a")) == 2
        assert len(sink.records(type="counter", name="a")) == 1

    def test_filter_tolerates_typeless_records(self):
        sink = RingBufferSink()
        sink.emit({"name": "orphan"})
        assert sink.records(type="span") == []
        assert sink.records(name="orphan") == [{"name": "orphan"}]

    def test_clear_empties_buffer(self):
        sink = RingBufferSink()
        sink.emit({"type": "counter", "name": "c"})
        sink.clear()
        assert len(sink) == 0


class TestJsonlSink:
    def _emit_some(self, sink, names):
        for name in names:
            sink.emit({"type": "counter", "name": name, "value": 1})
        sink.close()

    def test_write_mode_truncates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._emit_some(JsonlSink(path), ["first"])
        self._emit_some(JsonlSink(path), ["second"])
        lines = path.read_text().splitlines()
        assert [json.loads(l)["name"] for l in lines] == ["second"]

    def test_append_mode_preserves_existing_records(self, tmp_path):
        # Regression: a resumed run (or a second registry sharing one
        # trace file) must not destroy the earlier records.
        path = tmp_path / "trace.jsonl"
        self._emit_some(JsonlSink(path), ["first"])
        self._emit_some(JsonlSink(path, mode="a"), ["second"])
        lines = path.read_text().splitlines()
        assert [json.loads(l)["name"] for l in lines] == ["first", "second"]

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", mode="x")

    def test_file_opened_lazily(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()
        sink.emit({"type": "counter", "name": "c", "value": 1})
        assert path.exists()
        sink.close()

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit({"type": "counter", "name": "c", "value": 1})
        sink.close()
        sink.close()  # second close must not raise
        # And a sink that never opened closes cleanly too.
        JsonlSink(tmp_path / "never.jsonl").close()

    def test_reopens_after_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, mode="a")
        sink.emit({"type": "counter", "name": "a", "value": 1})
        sink.close()
        sink.emit({"type": "counter", "name": "b", "value": 2})
        sink.close()
        assert len(path.read_text().splitlines()) == 2


class TestJsonlBuffering:
    def _record(self, i):
        return {"type": "counter", "name": f"c{i:04d}", "value": i}

    def _names(self, *paths):
        return [
            json.loads(line)["name"]
            for path in paths
            if path.exists()
            for line in path.read_text().splitlines()
        ]

    def test_unclosed_file_holds_only_whole_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        k = 2 * sinks._FLUSH_RECORDS + 17
        for i in range(k):
            sink.emit(self._record(i))
        # What a killed process leaves: whole lines, a prefix in order,
        # missing at most the batch still buffered.
        text = path.read_text()
        assert text.endswith("\n")
        names = self._names(path)
        assert names == [f"c{i:04d}" for i in range(len(names))]
        assert k - sinks._FLUSH_RECORDS < len(names) < k
        sink.close()
        assert self._names(path) == [f"c{i:04d}" for i in range(k)]

    def test_interval_flush_writes_buffered_lines(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(self._record(0))
        assert path.read_text() == ""
        monkeypatch.setattr(sinks, "_FLUSH_INTERVAL_S", 0.0)
        sink.emit(self._record(1))
        assert self._names(path) == ["c0000", "c0001"]
        sink.close()

    def test_rotation_never_splits_a_buffered_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rotated = tmp_path / "trace.jsonl.1"
        # ~45 bytes per record: the cap rotates every ~100 records, well
        # inside one buffered batch.
        sink = JsonlSink(path, max_bytes=4500)
        k = 3 * sinks._FLUSH_RECORDS
        for i in range(k):
            sink.emit(self._record(i))
            # Mid-run, both files hold only whole lines, in emit order.
            if i % 97 == 0:
                names = self._names(rotated, path)
                assert names == sorted(names)
        sink.close()
        names = self._names(rotated, path)
        assert names == [f"c{i:04d}" for i in range(k - len(names), k)]
        assert rotated.stat().st_size <= 4500
        assert path.stat().st_size <= 4500


class TestJsonlRotation:
    def _record(self, name, pad=0):
        return {"type": "counter", "name": name, "value": "x" * pad}

    def test_rotates_to_dot_one_at_cap(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        # Each record serializes to 63 bytes, so the cap fits two.
        sink = JsonlSink(path, max_bytes=130)
        for i in range(4):
            sink.emit(self._record(f"c{i:02d}", pad=20))
        sink.close()
        rotated = tmp_path / "trace.jsonl.1"
        assert rotated.exists()
        # Every line in both files is valid JSON and nothing was lost:
        # the rotated file holds the older records, the live file the
        # newer ones, in emit order across the boundary.
        names = [
            json.loads(line)["name"]
            for target in (rotated, path)
            for line in target.read_text().splitlines()
        ]
        assert names == [f"c{i:02d}" for i in range(4)]
        assert rotated.stat().st_size <= 130

    def test_second_rotation_replaces_previous_dot_one(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, max_bytes=80)
        for i in range(40):
            sink.emit(self._record(f"c{i:02d}", pad=10))
        sink.close()
        # Disk usage stays bounded at two files regardless of volume.
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["trace.jsonl", "trace.jsonl.1"]
        total = path.stat().st_size + (tmp_path / "trace.jsonl.1").stat().st_size
        assert total <= 2 * 80 + 60  # one oversize record of slack

    def test_oversize_record_lands_whole(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, max_bytes=50)
        sink.emit(self._record("big", pad=200))
        sink.close()
        # A record larger than the cap is never split or dropped.
        assert json.loads(path.read_text())["name"] == "big"

    def test_append_mode_resumes_byte_budget(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        first = JsonlSink(path, max_bytes=100)
        first.emit(self._record("a", pad=40))
        first.close()
        second = JsonlSink(path, mode="a", max_bytes=100)
        second.emit(self._record("b", pad=40))
        second.close()
        # The resumed sink counted the existing bytes, so the second
        # record tripped the rotation instead of blowing past the cap.
        assert (tmp_path / "trace.jsonl.1").exists()

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", max_bytes=0)
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", max_bytes=-5)


class TestConsoleSink:
    def _render(self, record):
        stream = io.StringIO()
        ConsoleSink(stream).emit(record)
        return stream.getvalue()

    def test_span_line(self):
        line = self._render(
            {
                "type": "span",
                "name": "channel.receive",
                "dur_ms": 12.345,
                "status": "ok",
                "attrs": {"device": "X"},
                "counters": {"retry.attempts": 2},
            }
        )
        assert line == "[span] channel.receive 12.35ms ok device=X retry.attempts=2\n"

    def test_span_with_missing_fields_renders_placeholders(self):
        # Regression: foreign/truncated records must render, not raise
        # KeyError inside the registry's emit loop.
        line = self._render({"type": "span"})
        assert line == "[span] ? ? ?\n"

    def test_alert_line(self):
        line = self._render(
            {
                "type": "alert",
                "name": "raw-ber-ceiling",
                "severity": "page",
                "message": "repro_raw_ber = 0.31 breached",
            }
        )
        assert line == "[alert] page raw-ber-ceiling: repro_raw_ber = 0.31 breached\n"

    def test_alert_falls_back_to_value(self):
        line = self._render({"type": "alert", "name": "r", "value": 0.4})
        assert line == "[alert] page r: 0.4\n"

    def test_counter_and_gauge_lines(self):
        assert (
            self._render({"type": "counter", "name": "retry.attempts", "value": 3})
            == "[counter] retry.attempts = 3\n"
        )
        assert (
            self._render({"type": "gauge", "name": "temp_c", "value": 55.0})
            == "[gauge] temp_c = 55.0\n"
        )

    def test_empty_record_renders(self):
        assert self._render({}) == "[?] ? = None\n"
