"""Trace context: request-scoped ids that survive task and thread hops.

A *trace* is one logical request — a ``SendRequest``/``ReceiveRequest``
entering the fleet service, or any unit of work a caller wants to follow
end to end.  The context is a :class:`contextvars.ContextVar`, so it

- is private per asyncio task (concurrent workers sharing one event-loop
  thread no longer see each other's spans);
- flows into the fleet service's lane thread automatically (every call
  handed to it runs under ``contextvars.copy_context()``, as
  ``asyncio.to_thread`` does);
- does **not** leak into plain ``threading.Thread`` workers — fleet
  encode threads keep tracing independently, exactly as the old
  thread-local stack behaved.

Across the HTTP boundary the context rides a W3C ``traceparent``-style
header: ``00-<32 hex trace id>-<16 hex parent span id>-01``.  The
service parses it on ingress, so server-side spans parent under the
client's request span and the whole request renders as one tree.

The journal stores ``trace_id`` on admit/complete records, which lets a
crash-replay re-enter the original request's context — replayed spans
and completions correlate with the admit that started them, possibly a
process lifetime earlier.
"""

from __future__ import annotations

import os
import random
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "TRACEPARENT_HEADER",
    "TraceContext",
    "current",
    "current_trace_id",
    "from_traceparent",
    "new_trace_id",
    "to_traceparent",
    "trace_context",
]

#: Header name used to carry the context over HTTP.
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")


#: Process-private source of trace ids, seeded from ``os.urandom`` once
#: (and again in every fork child, so parent and child never share a
#: stream).  ``uuid.uuid4()`` cost a ``getrandom`` syscall per id — on
#: the event-loop thread, for every request, traced or not.
_ID_SOURCE = random.Random(os.urandom(32))

if hasattr(os, "register_at_fork"):  # absent where fork is (Windows)
    os.register_at_fork(
        after_in_child=lambda: _ID_SOURCE.seed(os.urandom(32))
    )


def new_trace_id() -> str:
    """Mint a fresh 32-hex-char trace id (never all zeros)."""
    bits = 0
    while not bits:
        bits = _ID_SOURCE.getrandbits(128)
    return f"{bits:032x}"


@dataclass(frozen=True)
class TraceContext:
    """The ambient trace: its id plus an optional carried parent span.

    ``span_id`` is the id of the span a *new root span* should parent
    under — the client's request span when the context crossed HTTP, or
    the submitting span when a job hops between asyncio tasks.  ``None``
    means "same trace, no parent hint" (e.g. journal replay, where the
    original span ids belong to a dead process).
    """

    trace_id: str
    span_id: "int | None" = None


_CONTEXT: ContextVar["TraceContext | None"] = ContextVar(
    "repro_trace_context", default=None
)


def current() -> "TraceContext | None":
    """The ambient :class:`TraceContext`, or ``None`` outside any trace."""
    return _CONTEXT.get()


def current_trace_id() -> "str | None":
    """The ambient trace id, or ``None`` outside any trace."""
    ctx = _CONTEXT.get()
    return ctx.trace_id if ctx is not None else None


@contextmanager
def trace_context(
    trace_id: "str | None" = None,
    span_id: "int | None" = None,
    *,
    inherit: bool = True,
):
    """Enter a trace context for the duration of the block.

    - ``trace_id=None`` keeps the ambient trace when ``inherit`` is true
      (minting a fresh id only if there is none) — the common "make sure
      we are inside *some* trace" form.
    - ``trace_id="..."`` re-enters a specific trace — what the service
      worker does per job, and what recovery does per journal replay.

    Yields the active :class:`TraceContext`.
    """
    if trace_id is None and inherit:
        ambient = _CONTEXT.get()
        if ambient is not None and span_id is None:
            yield ambient
            return
        trace_id = ambient.trace_id if ambient is not None else new_trace_id()
    elif trace_id is None:
        trace_id = new_trace_id()
    ctx = TraceContext(trace_id, span_id)
    token = _CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        _CONTEXT.reset(token)


def to_traceparent(ctx: "TraceContext | None" = None) -> "str | None":
    """Render the context (default: ambient) as a ``traceparent`` value."""
    if ctx is None:
        ctx = _CONTEXT.get()
    if ctx is None:
        return None
    span = ctx.span_id if ctx.span_id is not None else 0
    return f"00-{ctx.trace_id}-{span & 0xFFFFFFFFFFFFFFFF:016x}-01"


def from_traceparent(header: "str | None") -> "TraceContext | None":
    """Parse a ``traceparent`` value; ``None``/malformed → ``None``.

    A malformed header is treated as absent rather than an error: a
    request must never fail because its tracing metadata was mangled.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if not match:
        return None
    trace_id, span_hex = match.groups()
    span_id = int(span_hex, 16) or None
    return TraceContext(trace_id, span_id)


def valid_trace_id(trace_id) -> bool:
    """True for a well-formed 32-hex-char trace id."""
    return isinstance(trace_id, str) and bool(_TRACE_ID_RE.match(trace_id))
