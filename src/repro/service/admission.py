"""Admission control: who gets in, who gets shed, who gets re-admitted.

The controller owns the healthy-shard set the router draws from.  A
shard whose batch violates an SLO is **tripped** — recorded as a quarantine
in a :class:`~repro.faults.HealthLedger` keyed by shard name (the same
ledger the racks use for slots, reused one level up) — and its queued
jobs reroute to the surviving lanes.  Operators (or tests) re-admit a
repaired lane with :meth:`AdmissionController.readmit`, which goes
through :meth:`HealthLedger.reset` so the lane returns with a clean
history.

Shedding is the other half: when no healthy lane exists, or the target
lane's queue is full and the caller refused to wait, admission raises
:class:`~repro.errors.AdmissionError` *before* the job enters a queue —
a shed job is never half-done, resubmitting is always safe.  Every shed,
here or on a reroute or a no-drain stop, goes through
:meth:`AdmissionController.count_shed`, which keeps ``shed`` and the
``repro_service_shed_total`` metric in step.
"""

from __future__ import annotations

import threading

from .. import metrics
from ..errors import AdmissionError, ConfigurationError
from ..faults import HealthLedger

__all__ = ["AdmissionController"]

_SHED_TOTAL = metrics.counter(
    "repro_service_shed_total",
    "Jobs refused without running: a full queue, no healthy shards, a "
    "failed reroute or a no-drain stop",
)


class AdmissionController:
    """Healthy-set bookkeeping plus shed accounting for the service."""

    def __init__(self, shard_names: "tuple[str, ...] | list[str]"):
        names = tuple(shard_names)
        if not names:
            raise ConfigurationError("admission needs at least one shard")
        self._all = names
        self._ledger = HealthLedger(quarantine_after=1)
        self._lock = threading.Lock()
        self._trip_reasons: "dict[str, str]" = {}
        self.shed = 0
        self.readmissions = 0

    @property
    def healthy(self) -> "set[str]":
        return {
            name for name in self._all if not self._ledger.is_quarantined(name)
        }

    @property
    def tripped(self) -> "dict[str, str]":
        """Tripped shard → reason, in trip order."""
        with self._lock:
            return dict(self._trip_reasons)

    def is_healthy(self, name: str) -> bool:
        return not self._ledger.is_quarantined(name)

    def trip(self, name: str, reason: str) -> bool:
        """Quarantine a shard; returns True on the healthy→tripped edge.

        The ledger update and the reason book share one critical section:
        with separate locks a concurrent :meth:`readmit` could interleave
        and leave a lane quarantined without a reason (or healthy with a
        stale one) — the tripped-and-serving split state the concurrency
        hammer test pins down.
        """
        if name not in self._all:
            raise ConfigurationError(f"unknown shard {name!r}")
        with self._lock:
            newly = self._ledger.record_failure(name)
            if newly:
                self._trip_reasons[name] = reason
            return newly

    def readmit(self, name: str) -> bool:
        """Re-admit a repaired shard with a clean ledger history."""
        if name not in self._all:
            raise ConfigurationError(f"unknown shard {name!r}")
        with self._lock:
            was_tripped = self._ledger.reset(name)
            self._trip_reasons.pop(name, None)
            self.readmissions += was_tripped
            return was_tripped

    def count_shed(self) -> None:
        with self._lock:
            self.shed += 1
        _SHED_TOTAL.inc()

    def require_capacity(self, shard: "str | None") -> str:
        """Admission gate: a healthy shard name, or AdmissionError.

        ``shard`` is the router's pick over the current healthy set;
        ``None`` means the pool was empty.
        """
        if shard is None:
            self.count_shed()
            tripped = len(self._all) - len(self.healthy)
            raise AdmissionError(
                f"no healthy shards: {tripped}/{len(self._all)} lanes tripped"
            )
        return shard

    def stats(self) -> dict:
        healthy = self.healthy
        return {
            "shards": list(self._all),
            "healthy": sorted(healthy),
            "tripped": self.tripped,
            "shed": self.shed,
            "readmissions": self.readmissions,
        }
