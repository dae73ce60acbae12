"""Fold telemetry records into metric instruments.

:class:`TelemetryBridge` is an ordinary telemetry sink (attach it with
``telemetry.add_sink``): every span and counter record the existing
instrumentation already emits — per-capture BER and vote margins from
``channel.receive`` spans, retry / escalation / quarantine counters from
the fault machinery (PRs 2-3) — lands in labelled instruments without a
single change to physics or pipeline code.

The bridge and the direct hot-path instruments own **disjoint** metric
sets, so running both never double-counts:

- direct (only tick while the process runs): the channel's
  ``repro_captures_total{device}``, ``repro_capture_cells_total`` and
  ``repro_messages_total{phase,device}``; the server's
  ``repro_service_*`` job, queue, reroute, replay, checkpoint, probe,
  readmission and request-latency instruments; admission's
  ``repro_service_shed_total``; the host's
  ``repro_service_devices_{evicted,rehydrated}_total`` and
  ``repro_service_checkpoint_devices_total``; and the journal's
  ``repro_journal_*`` instruments;
- bridge (also available offline, replaying a JSONL trace):
  everything else — see the table in docs/metrics.md.

Counter *records* are emitted exactly once per ``telemetry.count()``
call, while span records carry the same values again after folding into
parents; the bridge therefore takes event totals from counter records
only and reads spans only for their attributes (BER lists, vote-margin
histograms, slot status counts).
"""

from __future__ import annotations

from ..telemetry.sinks import Sink
from .core import MetricsRegistry, exponential_buckets, linear_buckets

__all__ = [
    "TelemetryBridge",
    "BER_BUCKETS",
    "VOTE_MARGIN_BUCKETS",
    "LATENCY_SPANS",
    "SPAN_LATENCY_BUCKETS",
]

#: Bit-error rates: 1e-4 .. ~0.2 exponentially, then +Inf.
BER_BUCKETS = exponential_buckets(1e-4, 2.0, 12)

#: Per-bit vote margins are small odd integers (|2*ones - n|).
VOTE_MARGIN_BUCKETS = linear_buckets(1.0, 2.0, 8)

#: Request-path span names whose durations fold into
#: ``repro_span_latency_seconds{span=...}``.  Distinct from the service's
#: direct ``repro_service_request_latency_seconds`` instrument (which only
#: ticks inside a live server process): the bridge version also works
#: offline, replaying a recorded trace through ``repro monitor``.
LATENCY_SPANS = (
    "service.request",
    "service.submit",
    "lane.capture",
    "lane.execute",
    "service.journal",
    "recovery.replay",
    "client.send",
    "client.receive",
)

#: Request-path latencies: sub-millisecond journal fsyncs up to
#: multi-second stacked captures.
SPAN_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class TelemetryBridge(Sink):
    """A telemetry sink that aggregates records into ``registry``.

    Instruments are pre-registered at construction, so an exposition
    taken before any traffic already lists every series the bridge can
    ever produce (zero-label counters start visible at 0).
    """

    def __init__(self, registry: "MetricsRegistry | None" = None):
        if registry is None:
            from . import registry as default_registry

            registry = default_registry
        self.registry = registry
        reg = registry
        self._capture_ber = reg.histogram(
            "repro_capture_ber",
            "Per-capture disagreement with the majority-voted state",
            labelnames=("device",),
            buckets=BER_BUCKETS,
        )
        self._vote_margin = reg.histogram(
            "repro_vote_margin",
            "Per-bit majority-vote margins |2*ones - n_captures|",
            labelnames=("device",),
            buckets=VOTE_MARGIN_BUCKETS,
        )
        self._raw_ber = reg.gauge(
            "repro_raw_ber",
            "Raw channel BER of the most recent truth-referenced receive",
            labelnames=("device",),
        )
        self._sends = reg.counter(
            "repro_sends_total",
            "channel.send spans seen, by final status",
            labelnames=("device", "status"),
        )
        self._receives = reg.counter(
            "repro_receives_total",
            "channel.receive spans seen, by final status",
            labelnames=("device", "status"),
        )
        self._degraded = reg.counter(
            "repro_degraded_receives_total",
            "Receives accepted at the capture ceiling with fewer clean "
            "captures than the scheme asked for",
            labelnames=("device",),
        )
        self._stress_hours = reg.counter(
            "repro_stress_hours_total",
            "Cumulative stress-encode hours",
            labelnames=("device",),
        )
        self._slots = reg.counter(
            "repro_slots_total",
            "Resilient rack slot outcomes by phase",
            labelnames=("phase", "status"),
        )
        self._ecc_corrections = reg.counter(
            "repro_ecc_corrections_total",
            "Data bits/blocks repaired by ECC decodes",
        )
        self._ecc_overruled = reg.counter(
            "repro_ecc_overruled_copies_total",
            "Repetition copies outvoted during decode (per-copy unit, "
            "kept apart from corrections)",
        )
        self._escalation = reg.counter(
            "repro_escalation_captures_total",
            "Extra power-on captures taken by adaptive escalation",
        )
        self._retries = reg.counter(
            "repro_retry_attempts_total",
            "Transient-fault retry attempts",
        )
        self._faults = reg.counter(
            "repro_faults_injected_total",
            "Faults fired by injectors",
        )
        self._slots_failed = reg.counter(
            "repro_slots_failed_total",
            "Slots whose work failed after retries",
        )
        self._quarantined = reg.counter(
            "repro_slots_quarantined_total",
            "Slots pulled by the health ledger",
        )
        self._fleet_survivors = reg.gauge(
            "repro_fleet_survivors",
            "Candidates surviving the most recent encode_fleet",
        )
        self._fleet_failures = reg.counter(
            "repro_fleet_failures_total",
            "encode_fleet candidates dropped as failed",
        )
        self._fleet_winner_error = reg.gauge(
            "repro_fleet_winner_error",
            "Measured channel error of the most recent fleet winner",
        )
        self._alerts = reg.counter(
            "repro_alerts_total",
            "Monitor alerts fired, by severity",
            labelnames=("severity",),
        )
        self._events = reg.counter(
            "repro_events_total",
            "Raw telemetry counter events by name (catch-all)",
            labelnames=("event",),
        )
        self._span_latency = reg.histogram(
            "repro_span_latency_seconds",
            "Durations of request-path spans, by span name",
            labelnames=("span",),
            buckets=SPAN_LATENCY_BUCKETS,
        )

    # -- sink interface ------------------------------------------------------

    def emit(self, record: dict) -> None:
        kind = record.get("type")
        if kind == "span":
            self._on_span(record)
        elif kind == "counter":
            self._on_counter(record)
        elif kind == "alert":
            self._alerts.inc(1, severity=str(record.get("severity", "page")))

    # -- folding -------------------------------------------------------------

    def _on_counter(self, record: dict) -> None:
        name = record.get("name")
        if not name:
            return
        try:
            value = float(record.get("value", 1))
        except (TypeError, ValueError):
            return
        self._events.inc(value, event=str(name))
        if name == "retry.attempts":
            self._retries.inc(value)
        elif name == "faults.injected":
            self._faults.inc(value)
        elif name == "slots.failed":
            self._slots_failed.inc(value)
        elif name == "slots.quarantined":
            self._quarantined.inc(value)
        elif name == "escalation.captures":
            self._escalation.inc(value)
        elif name == "ecc.repetition.overruled":
            self._ecc_overruled.inc(value)
        elif name.endswith(".corrections"):
            self._ecc_corrections.inc(value)

    def _on_span(self, record: dict) -> None:
        name = record.get("name", "")
        attrs = record.get("attrs") or {}
        status = str(record.get("status", "ok"))
        # A finished span record carries the trace it belonged to; hand
        # it to the histograms as the exemplar, so a hot bucket in the
        # exposition points straight at an offending trace.
        exemplar = record.get("trace_id")
        if name in LATENCY_SPANS:
            dur = record.get("dur_ms")
            if dur is not None:
                try:
                    self._span_latency.observe(
                        float(dur) / 1e3, exemplar=exemplar, span=name
                    )
                except (TypeError, ValueError):
                    pass
        if name == "channel.receive":
            device = str(attrs.get("device", "?"))
            self._receives.inc(1, device=device, status=status)
            for rate in attrs.get("per_capture_flip_rate") or ():
                self._capture_ber.observe(
                    float(rate), exemplar=exemplar, device=device
                )
            for margin, count in enumerate(attrs.get("vote_margin_hist") or ()):
                if count:
                    self._vote_margin.observe(
                        float(margin),
                        n=float(count),
                        exemplar=exemplar,
                        device=device,
                    )
            raw = attrs.get("raw_error_vs")
            if raw is not None:
                self._raw_ber.set(float(raw), device=device)
            if attrs.get("degraded"):
                self._degraded.inc(1, device=device)
        elif name == "channel.send":
            device = str(attrs.get("device", "?"))
            self._sends.inc(1, device=device, status=status)
            hours = attrs.get("stress_hours")
            if hours is not None and status == "ok":
                self._stress_hours.inc(float(hours), device=device)
        elif name.startswith("rack."):
            phase = name[len("rack."):]
            for slot_status in ("ok", "failed", "quarantined"):
                count = attrs.get(slot_status)
                if count:
                    self._slots.inc(
                        float(count), phase=phase, status=slot_status
                    )
        elif name == "fleet.encode":
            if "survivors" in attrs:
                self._fleet_survivors.set(float(attrs["survivors"]))
            if attrs.get("failed"):
                self._fleet_failures.inc(float(attrs["failed"]))
            if "winner_error" in attrs:
                self._fleet_winner_error.set(float(attrs["winner_error"]))
        elif name == "fleet.capture":
            # The stacked capture kernel reports one [device, ber] pair
            # per measured slot; fold them into the same BER instruments
            # a channel.receive would feed.
            for pair in attrs.get("ber") or ():
                try:
                    device, rate = pair
                    rate = float(rate)
                except (TypeError, ValueError):
                    continue
                self._capture_ber.observe(
                    rate, exemplar=exemplar, device=str(device)
                )
                self._raw_ber.set(rate, device=str(device))
