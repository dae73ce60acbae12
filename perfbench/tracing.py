"""Outside-in layer timing: wrap public calls into each module, then restore.

The program under test is not instrumented for this benchmark; instead
:class:`LayerTracer` replaces a fixed list of attributes with thin
wrappers that time each call, raised or not (and count what it
returned, or that it raised), and
:meth:`LayerTracer.restore` puts the original objects back.  A wrapper
always returns the wrapped call's result unchanged.

Lanes run in worker threads, so every update takes one lock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

#: (module, owner attribute path, attribute, layer name).  An empty owner
#: path patches a module-level name where its caller looks it up.
TARGETS = (
    ("repro.service.server", "FleetService", "__init__", "recovery.construct"),
    ("repro.service.server", "FleetService", "checkpoint", "server.checkpoint"),
    ("repro.service.queue", "BoundedJobQueue", "get_batch", "queue.get_batch"),
    ("repro.service.shards", "Shard", "execute_batch", "lane.batch"),
    ("repro.monitor.fleet", "FleetMonitor", "sample", "lane.slo_sample"),
    ("repro.service.shards", "FleetHost", "channel", "host.channel"),
    ("repro.service.shards", "FleetHost", "snapshot", "host.snapshot"),
    ("repro.harness.controlboard", "ControlBoard", "stage_payload", "board.stage"),
    ("repro.harness.controlboard", "ControlBoard", "encode", "board.stress"),
    ("repro.service.shards", "", "capture_fleet", "capture"),
    ("repro.core.pipeline", "InvisibleBits", "decode_state", "channel.decode"),
    ("repro.core.pipeline", "InvisibleBits", "receive", "channel.fallback"),
    ("repro.service.journal", "Journal", "admit", "journal.admit"),
    ("repro.service.journal", "Journal", "complete", "journal.complete"),
)

#: Layers whose individual calls are kept as ``(start, seconds)`` events,
#: so their share of wall time can be split by quarter of the timed ops.
_EVENT_LAYERS = ("lane.slo_sample",)


class LayerTracer:
    """Per-layer call counts, total seconds and extra tallies."""

    def __init__(self):
        self._lock = threading.Lock()
        self._installed: "list[tuple[object, str, object]]" = []
        self.services: list = []
        #: Devices seen by ``FleetHost.channel`` (survives :meth:`reset`).
        self.touched: "set[str]" = set()
        self.reset()

    def reset(self) -> None:
        """Zero every tally (e.g. at the start of the timed phase)."""
        with self._lock:
            self.calls: "dict[str, int]" = {}
            self.seconds: "dict[str, float]" = {}
            self.tally: "dict[str, int]" = {}
            #: Calls that raised, per layer (also in ``calls``/``seconds``).
            self.errors: "dict[str, int]" = {}
            self.events: "dict[str, list]" = {name: [] for name in _EVENT_LAYERS}

    # -- bookkeeping ----------------------------------------------------------

    def _record(self, layer: str, start: float, args, result, raised) -> None:
        """Count and time one call; tally what it returned unless it raised."""
        elapsed = time.perf_counter() - start
        with self._lock:
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.seconds[layer] = self.seconds.get(layer, 0.0) + elapsed
            if layer in self.events:
                self.events[layer].append((start, elapsed))
            if raised:
                self.errors[layer] = self.errors.get(layer, 0) + 1
                return
            if layer == "queue.get_batch":
                self._add("queue.jobs", len(result))
            elif layer == "host.channel":
                device_id = args[1]
                if device_id not in self.touched:
                    self.touched.add(device_id)
                    self._add("host.devices_created", 1)
            elif layer == "host.snapshot":
                self._add("host.snapshot_devices", len(result["devices"]))
            elif layer == "capture":
                self._add("capture.devices", len(args[0]))
                self._add(
                    "capture.extra_attempts",
                    sum(result.attempts) - len(result.attempts),
                )
            elif layer == "recovery.construct":
                self.services.append(args[0])

    def _add(self, key: str, amount: int) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def _wrap(self, layer: str, original):
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                start, result, raised = time.perf_counter(), None, True
                try:
                    result = await original(*args, **kwargs)
                    raised = False
                    return result
                finally:
                    tracer._record(layer, start, args, result, raised)

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start, result, raised = time.perf_counter(), None, True
            try:
                result = original(*args, **kwargs)
                raised = False
                return result
            finally:
                tracer._record(layer, start, args, result, raised)

        return wrapper

    # -- install / restore ----------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, owner_path, attr, layer in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_path:
                owner = getattr(owner, owner_path)
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        return self

    def restore(self) -> None:
        """Put every original attribute back, last patched first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- export ---------------------------------------------------------------

    def totals(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "tally": dict(self.tally),
                "errors": dict(self.errors),
                "events": {k: list(v) for k, v in self.events.items()},
            }


def slo_series(service) -> int:
    """Series held in the lanes' private metric registries."""
    return sum(
        len(instrument.series())
        for shard in service.shards.values()
        for instrument in shard.registry.instruments()
    )
