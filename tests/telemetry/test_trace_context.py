"""Trace-context propagation: ids, headers, tasks and threads."""

from __future__ import annotations

import asyncio
import os
import threading

import pytest

from repro import telemetry
from repro.telemetry import RingBufferSink
from repro.telemetry import context as trace_ctx
from repro.telemetry.context import (
    TraceContext,
    from_traceparent,
    new_trace_id,
    to_traceparent,
    trace_context,
    valid_trace_id,
)


class TestTraceIds:
    def test_new_trace_id_is_32_hex(self):
        tid = new_trace_id()
        assert valid_trace_id(tid)
        assert len(tid) == 32

    def test_ten_thousand_ids_are_unique(self):
        ids = {new_trace_id() for _ in range(10_000)}
        assert len(ids) == 10_000
        assert all(valid_trace_id(tid) for tid in ids)

    def test_never_all_zeros(self, monkeypatch):
        class Stub:
            draws = iter([0, 0, 5])

            def getrandbits(self, k):
                assert k == 128
                return next(self.draws)

        monkeypatch.setattr(trace_ctx, "_ID_SOURCE", Stub())
        assert new_trace_id() == "0" * 31 + "5"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_child_does_not_replay_the_parents_ids(self):
        # Without a reseed the child would mint exactly the parent's
        # next id: both hold the same generator state at the fork.
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os.write(write_end, new_trace_id().encode())
            os._exit(0)
        os.close(write_end)
        parent_next = new_trace_id()
        with os.fdopen(read_end, "rb") as pipe:
            child_first = pipe.read().decode()
        os.waitpid(pid, 0)
        assert valid_trace_id(child_first)
        assert child_first != parent_next

    def test_valid_trace_id_rejects_garbage(self):
        assert not valid_trace_id(None)
        assert not valid_trace_id(123)
        assert not valid_trace_id("short")
        assert not valid_trace_id("Z" * 32)


class TestTraceparent:
    def test_roundtrip(self):
        tid = new_trace_id()
        ctx = TraceContext(tid, span_id=0xBEEF)
        parsed = from_traceparent(to_traceparent(ctx))
        assert parsed == ctx

    def test_roundtrip_without_span(self):
        tid = new_trace_id()
        header = to_traceparent(TraceContext(tid))
        parsed = from_traceparent(header)
        # span id 0 encodes "no parent hint" and parses back to None.
        assert parsed == TraceContext(tid, span_id=None)

    def test_ambient_context_renders(self):
        assert to_traceparent() is None
        with trace_context("ab" * 16, 7):
            header = to_traceparent()
        assert header == f"00-{'ab' * 16}-{7:016x}-01"

    def test_malformed_headers_treated_as_absent(self):
        for header in (
            None,
            "",
            "garbage",
            "00-short-0000000000000001-01",
            "00-" + "g" * 32 + "-0000000000000001-01",  # non-hex
            "ff",  # truncated
            "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span
        ):
            assert from_traceparent(header) is None

    def test_header_case_and_whitespace_tolerated(self):
        tid = "AB" * 16
        header = f"  00-{tid}-000000000000BEEF-01  "
        parsed = from_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id == tid.lower()
        assert parsed.span_id == 0xBEEF


class TestTraceContextManager:
    def test_outside_any_context(self):
        assert trace_ctx.current() is None
        assert trace_ctx.current_trace_id() is None

    def test_mints_when_no_ambient(self):
        with trace_context() as ctx:
            assert valid_trace_id(ctx.trace_id)
            assert trace_ctx.current_trace_id() == ctx.trace_id
        assert trace_ctx.current() is None

    def test_inherits_ambient(self):
        with trace_context("cd" * 16) as outer:
            with trace_context() as inner:
                assert inner is outer

    def test_explicit_id_reenters_that_trace(self):
        with trace_context("cd" * 16):
            with trace_context("ef" * 16, 42) as inner:
                assert inner.trace_id == "ef" * 16
                assert inner.span_id == 42
            # The outer context is restored on exit.
            assert trace_ctx.current_trace_id() == "cd" * 16

    def test_inherit_false_forces_fresh_trace(self):
        with trace_context("cd" * 16):
            with trace_context(inherit=False) as inner:
                assert inner.trace_id != "cd" * 16
                assert valid_trace_id(inner.trace_id)


class TestSpanTraceIds:
    def test_root_span_mints_a_trace(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with telemetry.trace("root"):
            with telemetry.trace("child"):
                pass
        child, root = sink.records(type="span")
        assert valid_trace_id(root["trace_id"])
        assert child["trace_id"] == root["trace_id"]
        assert child["parent_id"] == root["span_id"]

    def test_root_span_joins_ambient_context(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with trace_context("ab" * 16, 99):
            with telemetry.trace("root"):
                pass
        (span,) = sink.records(type="span")
        assert span["trace_id"] == "ab" * 16
        # The carried span id becomes the root's parent — how a server
        # span parents under the client's request span across HTTP.
        assert span["parent_id"] == 99

    def test_counters_carry_the_trace_id(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        with trace_context("ab" * 16):
            telemetry.count("loose", 1)
        (counter,) = sink.records(type="counter")
        assert counter["trace_id"] == "ab" * 16

    def test_null_span_mirrors_span_identity_fields(self):
        # Telemetry disabled: call sites like
        # ``job.trace_id = span.trace_id or ...`` must not need guards.
        with telemetry.trace("x") as span:
            assert span.trace_id is None
            assert span.span_id is None
            assert span.parent_id is None


class TestAsyncioIsolation:
    def test_interleaved_tasks_keep_their_own_lineage(self):
        # Regression: with a thread-local stack, two tasks sharing the
        # event-loop thread interleaved spans under each other's parents.
        sink = RingBufferSink()
        telemetry.add_sink(sink)

        async def request(name):
            with telemetry.trace(f"{name}.outer"):
                await asyncio.sleep(0)  # force an interleave point
                with telemetry.trace(f"{name}.inner"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(request("a"), request("b"))

        asyncio.run(main())
        spans = {s["name"]: s for s in sink.records(type="span")}
        for name in ("a", "b"):
            outer, inner = spans[f"{name}.outer"], spans[f"{name}.inner"]
            assert inner["parent_id"] == outer["span_id"]
            assert inner["trace_id"] == outer["trace_id"]
            assert outer["parent_id"] is None
        assert spans["a.outer"]["trace_id"] != spans["b.outer"]["trace_id"]

    def test_to_thread_inherits_context(self):
        sink = RingBufferSink()
        telemetry.add_sink(sink)

        async def main():
            with trace_context("ab" * 16):
                await asyncio.to_thread(lambda: telemetry.count("hop", 1))

        asyncio.run(main())
        (counter,) = sink.records(type="counter")
        assert counter["trace_id"] == "ab" * 16


class TestThreadIsolation:
    def test_plain_threads_do_not_inherit_spans(self):
        # Fleet encode threads must keep tracing independently — their
        # root spans start fresh traces, never parenting under whatever
        # span the spawning thread happened to be inside.
        sink = RingBufferSink()
        telemetry.add_sink(sink)
        seen = {}

        def worker():
            with telemetry.trace("thread.root") as span:
                seen["trace_id"] = span.trace_id
                seen["parent_id"] = span.parent_id

        with telemetry.trace("spawner") as outer:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["parent_id"] is None
        assert seen["trace_id"] != outer.trace_id
