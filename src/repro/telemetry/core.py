"""Span tracing and typed counters for the Invisible Bits pipeline.

The registry is **disabled by default**: with no sinks attached and no
active span, :func:`trace` hands back a shared no-op span and
:func:`count`/:func:`gauge` return immediately — the hot paths
(:meth:`repro.sram.array.SRAMArray.capture_power_on_states`,
:meth:`repro.core.pipeline.InvisibleBits.receive`) pay one attribute
lookup and a boolean test.  Attaching any sink (see
:mod:`repro.telemetry.sinks`) turns every span and counter into an
emitted record.

Spans nest through a :class:`contextvars.ContextVar` stack, so they are
correct in *both* concurrency regimes the code runs under:

- plain threads start with an empty context and trace independently,
  exactly as the old thread-local stack behaved;
- concurrent **asyncio tasks** sharing one event-loop thread each see
  their own stack — the fleet-service workers used to interleave spans
  under each other's parents; with contextvars every task keeps its own
  lineage.

Every span carries a ``trace_id`` — the ambient
:class:`repro.telemetry.context.TraceContext` if one is entered, else a
fresh id minted for the root span — so records from one request can be
reassembled into a single tree across tasks, threads, processes and
journal replays.  When a span finishes, its counters fold into its
parent — a ``channel.receive`` span therefore ends holding the ECC
correction counts its nested decode emitted, which is how
:class:`repro.core.pipeline.DecodeResult` gets its provenance without
any global state.

Record shapes (plain dicts, JSON-ready):

``span``
    ``{"type": "span", "name", "ts", "dur_ms", "status", "span_id",
    "parent_id", "trace_id", "attrs": {...}, "counters": {...}}``
``counter`` / ``gauge``
    ``{"type": "counter"|"gauge", "name", "ts", "value", "span_id",
    "trace_id"}``
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

from . import context as trace_ctx

__all__ = [
    "Span",
    "TelemetryRegistry",
    "active",
    "add_sink",
    "count",
    "current_span",
    "emit_record",
    "enabled",
    "gauge",
    "mute",
    "registry",
    "remove_sink",
    "reset",
    "trace",
]

_SPAN_IDS = itertools.count(1)


def _jsonable(value):
    """Coerce ``value`` into something ``json.dumps`` accepts.

    numpy scalars/arrays and bytes show up naturally in span attributes;
    sinks must never raise on them.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # numpy scalars expose item(); arrays expose tolist().
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    return str(value)


class Span:
    """One traced operation: name, attributes, counters, duration."""

    __slots__ = (
        "name",
        "attrs",
        "counters",
        "span_id",
        "parent_id",
        "trace_id",
        "status",
        "ts",
        "duration_ms",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        parent_id: "int | None" = None,
        trace_id: "str | None" = None,
    ):
        self.name = name
        self.attrs = dict(attrs)
        self.counters: dict[str, float] = {}
        self.span_id = next(_SPAN_IDS)
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.status = "ok"
        self.ts = time.time()
        self.duration_ms: float | None = None
        self._t0 = time.perf_counter()

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)
        return self

    def count(self, name: str, value: float = 1) -> None:
        """Bump a counter scoped to this span."""
        self.counters[name] = self.counters.get(name, 0) + value

    def finish(self) -> None:
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self._t0) * 1e3

    def to_record(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "ts": self.ts,
            "dur_ms": self.duration_ms,
            "status": self.status,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "attrs": _jsonable(self.attrs),
            "counters": _jsonable(self.counters),
        }


class _NullSpan:
    """The shared do-nothing span handed out while telemetry is inactive."""

    __slots__ = ()
    counters: dict = {}
    attrs: dict = {}
    #: Identity fields mirror :class:`Span` so trace-propagation call
    #: sites (``job.trace_id = span.trace_id or ...``) need no guards.
    span_id: "int | None" = None
    parent_id: "int | None" = None
    trace_id: "str | None" = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def count(self, name: str, value: float = 1) -> None:
        return None


_NULL_SPAN = _NullSpan()

_EMPTY: tuple = ()


class TelemetryRegistry:
    """Process-wide span/counter hub with pluggable sinks."""

    def __init__(self):
        self._sinks: list = []
        self._lock = threading.Lock()
        # Immutable-tuple stacks: each push/pop replaces the value, so a
        # task (or copied thread context) forked mid-span sees a frozen
        # snapshot — its pops can never corrupt the parent's stack.
        self._stack_var: ContextVar[tuple] = ContextVar(
            "repro_telemetry_stack", default=_EMPTY
        )
        self._muted_var: ContextVar[int] = ContextVar(
            "repro_telemetry_muted", default=0
        )

    # -- sink management -----------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach a sink; telemetry is enabled while any sink is attached."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def reset(self) -> None:
        """Detach every sink (the state tests start from)."""
        with self._lock:
            self._sinks.clear()

    @property
    def enabled(self) -> bool:
        """True while at least one sink is attached."""
        return bool(self._sinks)

    # -- span stack ----------------------------------------------------------

    def active(self) -> bool:
        """True when spans/counters would actually be recorded: a sink is
        attached, or an enclosing (possibly forced) span is collecting."""
        if self._muted_var.get():
            return False
        return bool(self._sinks) or bool(self._stack_var.get())

    @contextmanager
    def mute(self):
        """Suppress recording in this context for the duration of the block.

        Speculative work — e.g. the Chase decoder hard-decoding candidate
        error patterns it will mostly discard — runs inside ``mute()`` so
        trial decodes don't inflate the ``ecc.*.corrections`` accounting
        of the one result actually delivered.  Nests; spans opened inside
        are null spans and counters are dropped."""
        token = self._muted_var.set(self._muted_var.get() + 1)
        try:
            yield
        finally:
            self._muted_var.reset(token)

    def current_span(self) -> "Span | _NullSpan":
        stack = self._stack_var.get()
        return stack[-1] if stack else _NULL_SPAN

    def current_trace_id(self) -> "str | None":
        """The innermost span's trace id, else the ambient context's."""
        stack = self._stack_var.get()
        if stack:
            return stack[-1].trace_id
        return trace_ctx.current_trace_id()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def trace(self, name: str, *, force: bool = False, **attrs):
        """Context manager recording one span.

        ``force=True`` creates a real (collecting) span even with no sink
        attached — the pipeline uses it so decode provenance (ECC
        corrections, vote statistics) is available on every
        :class:`~repro.core.pipeline.DecodeResult`, sinks or not.  Nothing
        is emitted unless a sink is attached.
        """
        if self._muted_var.get():
            yield _NULL_SPAN
            return
        stack = self._stack_var.get()
        if not force and not self._sinks and not stack:
            yield _NULL_SPAN
            return
        if stack:
            top = stack[-1]
            span = Span(name, attrs, parent_id=top.span_id, trace_id=top.trace_id)
        else:
            ctx = trace_ctx.current()
            if ctx is not None:
                span = Span(
                    name, attrs, parent_id=ctx.span_id, trace_id=ctx.trace_id
                )
            else:
                span = Span(name, attrs, trace_id=trace_ctx.new_trace_id())
        token = self._stack_var.set(stack + (span,))
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            self._stack_var.reset(token)
            span.finish()
            parent_stack = self._stack_var.get()
            if parent_stack:
                parent = parent_stack[-1]
                for key, value in span.counters.items():
                    parent.counters[key] = parent.counters.get(key, 0) + value
            # A forced span with no sink only collects: skip the record.
            if self._sinks:
                self._emit(span.to_record())

    def count(self, name: str, value: float = 1) -> None:
        """Bump a typed counter on the innermost span (and emit it)."""
        if self._muted_var.get():
            return
        stack = self._stack_var.get()
        if not stack and not self._sinks:
            return
        if stack:
            span = stack[-1]
            span.counters[name] = span.counters.get(name, 0) + value
            if not self._sinks:
                return
            span_id = span.span_id
            trace_id = span.trace_id
        else:
            span_id = None
            trace_id = trace_ctx.current_trace_id()
        self._emit(
            {
                "type": "counter",
                "name": name,
                "ts": time.time(),
                "value": _jsonable(value),
                "span_id": span_id,
                "trace_id": trace_id,
            }
        )

    def gauge(self, name: str, value) -> None:
        """Record an instantaneous measurement (also set as a span attr)."""
        if self._muted_var.get():
            return
        stack = self._stack_var.get()
        if not stack and not self._sinks:
            return
        if stack:
            span = stack[-1]
            span.attrs[name] = value
            if not self._sinks:
                return
            span_id = span.span_id
            trace_id = span.trace_id
        else:
            span_id = None
            trace_id = trace_ctx.current_trace_id()
        self._emit(
            {
                "type": "gauge",
                "name": name,
                "ts": time.time(),
                "value": _jsonable(value),
                "span_id": span_id,
                "trace_id": trace_id,
            }
        )

    def emit_record(self, record: dict) -> None:
        """Emit a foreign record (e.g. a monitor ``alert``) to every sink.

        ``record`` should carry a ``type`` key that is not one of the
        built-in span/counter/gauge shapes; ``ts`` is stamped if absent.
        Sinks must render unknown types gracefully (see
        :class:`repro.telemetry.sinks.ConsoleSink`).  A no-op while no
        sink is attached, like every other emission.
        """
        rec = dict(record)
        rec.setdefault("ts", time.time())
        self._emit(_jsonable(rec))

    def _emit(self, record: dict) -> None:
        if not self._sinks:
            return
        with self._lock:
            for sink in self._sinks:
                sink.emit(record)


#: The process-wide registry every instrumented module talks to.
registry = TelemetryRegistry()

# Module-level conveniences bound to the global registry.
add_sink = registry.add_sink
remove_sink = registry.remove_sink
reset = registry.reset
trace = registry.trace
count = registry.count
gauge = registry.gauge
emit_record = registry.emit_record
active = registry.active
current_span = registry.current_span
mute = registry.mute


def enabled() -> bool:
    """True while at least one sink is attached to the global registry."""
    return registry.enabled
