"""Telemetry sinks: where emitted records go.

Three implementations cover the deployment spectrum:

- :class:`RingBufferSink` — bounded in-memory buffer; tests and
  interactive sessions read it back with :meth:`RingBufferSink.records`.
- :class:`JsonlSink` — one JSON object per line, append-only; the
  interchange format ``repro telemetry summarize`` consumes.
- :class:`ConsoleSink` — human-readable one-liners for watching a run.

A sink's only obligation is an ``emit(record: dict)`` method taking a
JSON-ready dict; the registry serializes calls, so sinks need no locking
of their own unless they are shared outside the registry.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from collections import deque

__all__ = ["Sink", "RingBufferSink", "JsonlSink", "ConsoleSink"]

#: :class:`JsonlSink` writes its buffered lines out once this many are
#: pending, or once this many seconds have passed since its last write
#: (checked on emit), and always on rotation and :meth:`~Sink.close`.
_FLUSH_RECORDS = 256
_FLUSH_INTERVAL_S = 1.0

#: One reusable compact encoder: ``json.dumps`` with ``separators``
#: builds a fresh encoder for every record.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


class Sink:
    """Base class (and documentation anchor) for telemetry sinks."""

    def emit(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; safe to call more than once."""


class RingBufferSink(Sink):
    """Keep the most recent ``capacity`` records in memory."""

    def __init__(self, capacity: int = 4096):
        self._buffer: deque = deque(maxlen=int(capacity))

    def emit(self, record: dict) -> None:
        self._buffer.append(record)

    def records(self, *, type: "str | None" = None, name: "str | None" = None) -> list:
        """Snapshot the buffer, optionally filtered by record type/name."""
        out = list(self._buffer)
        if type is not None:
            out = [r for r in out if r.get("type") == type]
        if name is not None:
            out = [r for r in out if r.get("name") == name]
        return out

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink(Sink):
    """Write records to ``path`` as JSON Lines.

    The file is opened lazily on the first record.  Lines are buffered
    and written out in batches of whole lines — every
    ``_FLUSH_RECORDS`` records or ``_FLUSH_INTERVAL_S`` seconds, on
    rotation, and on :meth:`close`.  A flush per record was one
    ``write`` syscall per record, a measured share of the tracing tax
    on a service soak (~27 records per message).  A killed process
    loses at most the batch still buffered; what reached the file ends
    on a line boundary, so a crashed run still leaves a readable trace.

    ``mode`` controls what happens to an existing trace at ``path``:
    ``"w"`` (default) starts fresh, ``"a"`` appends — the right choice
    when several registries (or a resumed run) share one trace file, so
    earlier records are never silently destroyed.

    ``max_bytes`` caps the file size: when writing a record would push
    the current file past the cap, the file is rotated to ``<path>.1``
    (replacing any previous ``<path>.1``) and the record starts a fresh
    file.  A long ``REPRO_TRACE`` soak therefore holds at most
    ``2 * max_bytes`` of trace on disk.  One record is never split
    across files, so both files stay valid JSONL; a record larger than
    the cap still lands whole.  ``None`` (default) never rotates.
    """

    def __init__(self, path, *, mode: str = "w", max_bytes: "int | None" = None):
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        if max_bytes is not None and int(max_bytes) <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        self.path = pathlib.Path(path)
        self.mode = mode
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._handle = None
        #: Current file's size, counting the lines still buffered.
        self._bytes = 0
        self._pending: "list[str]" = []
        self._last_flush = 0.0

    def _open(self, mode: str) -> None:
        self._handle = self.path.open(mode, encoding="utf-8")
        # Appending to an existing trace resumes its byte budget.
        self._bytes = self.path.stat().st_size if mode == "a" else 0
        self._last_flush = time.monotonic()

    def _flush(self) -> None:
        # One write of whole lines: the file never ends mid-record.
        self._handle.write("".join(self._pending))
        self._handle.flush()
        self._pending.clear()
        self._last_flush = time.monotonic()

    def _rotate(self) -> None:
        self._flush()
        self._handle.close()
        self._handle = None
        self.path.replace(self.path.with_name(self.path.name + ".1"))
        self._open("w")

    def emit(self, record: dict) -> None:
        if self._handle is None:
            self._open(self.mode)
        line = _ENCODE(record) + "\n"
        if (
            self.max_bytes is not None
            and self._bytes > 0
            and self._bytes + len(line) > self.max_bytes
        ):
            self._rotate()
        self._pending.append(line)
        self._bytes += len(line)
        if (
            len(self._pending) >= _FLUSH_RECORDS
            or time.monotonic() - self._last_flush >= _FLUSH_INTERVAL_S
        ):
            self._flush()

    def close(self) -> None:
        if self._handle is not None:
            self._flush()
            self._handle.close()
            self._handle = None


class ConsoleSink(Sink):
    """Render records as human-readable lines (default: stderr)."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, record: dict) -> None:
        # Foreign records (monitor alerts, future types) must render, not
        # raise inside the registry's emit loop — every field is optional.
        kind = record.get("type", "?")
        name = record.get("name", "?")
        if kind == "span":
            extras = []
            for key, value in (record.get("attrs") or {}).items():
                extras.append(f"{key}={value}")
            for key, value in (record.get("counters") or {}).items():
                extras.append(f"{key}={value}")
            detail = (" " + " ".join(extras)) if extras else ""
            dur = record.get("dur_ms")
            dur_text = f"{dur:.2f}ms" if isinstance(dur, (int, float)) else "?"
            status = record.get("status", "?")
            line = f"[span] {name} {dur_text} {status}{detail}"
        elif kind == "alert":
            severity = record.get("severity", "page")
            message = record.get("message") or record.get("value", "")
            line = f"[alert] {severity} {name}: {message}"
        else:
            line = f"[{kind}] {name} = {record.get('value')}"
        print(line, file=self.stream)
