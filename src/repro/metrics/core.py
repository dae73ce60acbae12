"""Labelled metric instruments with a Prometheus-compatible exposition.

:mod:`repro.telemetry` answers "what did this one run do" with spans;
this module answers "how is the fleet doing" with **aggregates**: a
process-wide :class:`MetricsRegistry` of named instruments —

- :class:`Counter` — monotonically increasing totals (captures taken,
  retries spent, slots quarantined);
- :class:`Gauge` — last-written measurements (raw BER of the most recent
  receive, fleet survivor count);
- :class:`Histogram` — bucketed distributions with fixed (by default
  exponential) upper bounds (per-capture BER, vote margins).

Every instrument carries a fixed tuple of label names (``device=``,
``phase=``, ``slot=``); each distinct label-value combination is its own
series.  The registry renders all of it three ways:

- :meth:`MetricsRegistry.expose` — Prometheus text exposition
  (``text/plain; version=0.0.4``), scrape-ready;
- :meth:`MetricsRegistry.snapshot` — a JSON-ready dict, the interchange
  format :mod:`repro.monitor` evaluates SLO rules over;
- :func:`snapshot_delta` — the difference between two snapshots
  (counters and histogram buckets subtract; gauges pass through).

Like the telemetry registry, a :class:`MetricsRegistry` is **disabled by
default**: ``inc``/``set``/``observe`` test one attribute and return —
the same null-object discipline that keeps the PR 1 capture-speedup gate
honest (see ``benchmarks/test_perf_substrate.py``).  Enabling is O(1)
and retroactive: instruments registered while disabled start recording
the moment :meth:`MetricsRegistry.enable` runs.
"""

from __future__ import annotations

import re
import threading

from ..errors import ConfigurationError
from ..telemetry.core import registry as _telemetry_registry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "exponential_buckets",
    "linear_buckets",
    "snapshot_delta",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def exponential_buckets(
    start: float, factor: float, count: int
) -> "tuple[float, ...]":
    """``count`` exponentially spaced upper bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ConfigurationError(
            f"need start > 0, factor > 1, count >= 1; got "
            f"({start}, {factor}, {count})"
        )
    out = []
    bound = float(start)
    for _ in range(count):
        out.append(bound)
        bound *= factor
    return tuple(out)


def linear_buckets(start: float, width: float, count: int) -> "tuple[float, ...]":
    """``count`` evenly spaced upper bounds: start, start+width, ..."""
    if width <= 0 or count < 1:
        raise ConfigurationError(
            f"need width > 0, count >= 1; got ({width}, {count})"
        )
    return tuple(float(start) + i * float(width) for i in range(count))


#: Default histogram bounds: 12 exponential buckets spanning rates/ratios
#: from 1e-6 up to ~4 (per-capture BER lives in the middle of this range).
DEFAULT_BUCKETS = exponential_buckets(1e-6, 4.0, 12)


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render bare, floats via repr."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _escape_help(text: str) -> str:
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def _label_pairs(labelnames: "tuple[str, ...]", key: "tuple[str, ...]") -> str:
    if not labelnames:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, key)
    )
    return "{" + body + "}"


class _Series:
    """One label combination's state.  Mutations lock per instrument."""

    __slots__ = ("value", "bucket_counts", "exemplars", "sum", "count")

    def __init__(self, n_buckets: int = 0):
        self.value = 0.0
        if n_buckets:
            self.bucket_counts = [0.0] * (n_buckets + 1)  # + the +Inf bucket
            # Last-sampled (trace_id, observed value) per bucket: the
            # breadcrumb from an SLO page back to one offending trace.
            self.exemplars: "list[tuple[str, float] | None]" = [None] * (
                n_buckets + 1
            )
        else:
            self.bucket_counts = None
            self.exemplars = None
        self.sum = 0.0
        self.count = 0.0


class Instrument:
    """Base of the three instrument kinds; not instantiated directly."""

    kind = "untyped"

    __slots__ = ("name", "help", "labelnames", "buckets", "_registry",
                 "_series", "_lock")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: "tuple[str, ...]",
        buckets: "tuple[float, ...] | None" = None,
    ):
        if not _METRIC_NAME.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label):
                raise ConfigurationError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ConfigurationError(f"duplicate label names in {labelnames}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = buckets
        self._registry = registry
        self._series: "dict[tuple, _Series]" = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            # Zero-label instruments expose their (single) series
            # immediately — a scrape sees `repro_retry_attempts_total 0`
            # rather than nothing at all.
            self._series[()] = self._new_series()

    def _new_series(self) -> _Series:
        return _Series(len(self.buckets) if self.buckets else 0)

    def _key(self, labels: dict) -> tuple:
        # As many labels as names, each name found: the same label set,
        # checked without building a set of either.
        names = self.labelnames
        if len(labels) == len(names):
            try:
                return tuple([str(labels[name]) for name in names])
            except KeyError:
                pass
        raise ConfigurationError(
            f"{self.name} takes labels {self.labelnames}, "
            f"got {tuple(sorted(labels))}"
        )

    def _get(self, labels: dict) -> _Series:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, self._new_series())
        return series

    def labels(self, **labels) -> "_Bound":
        """Pre-resolve a label set for repeated hot-path updates."""
        return _Bound(self, self._get(labels))

    def series(self) -> "dict[tuple, _Series]":
        """Snapshot view of the live series, keyed by label-value tuple."""
        with self._lock:
            return dict(self._series)

    def clear(self) -> None:
        """Drop every series (zero-label instruments re-seed at 0)."""
        with self._lock:
            self._series.clear()
            if not self.labelnames:
                self._series[()] = self._new_series()


class Counter(Instrument):
    """A monotonically increasing total (Prometheus ``counter``)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, value: float = 1.0, **labels) -> None:
        if not self._registry._enabled:
            return
        if value < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {value})"
            )
        series = self._get(labels)
        with self._lock:
            series.value += value


class Gauge(Instrument):
    """A last-written measurement (Prometheus ``gauge``)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels) -> None:
        if not self._registry._enabled:
            return
        series = self._get(labels)
        with self._lock:
            series.value = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        if not self._registry._enabled:
            return
        series = self._get(labels)
        with self._lock:
            series.value += value


class Histogram(Instrument):
    """A bucketed distribution with fixed upper bounds.

    ``observe(v, n=...)`` folds ``n`` identical observations in one call —
    how the telemetry bridge replays a whole vote-margin histogram without
    per-bit cost.

    Each bucket remembers the **last-sampled exemplar**: the trace id of
    the request whose observation most recently landed there.  Pass it
    explicitly (``exemplar="<trace_id>"`` — what the telemetry bridge
    does, since a finished span record already carries its trace) or let
    ``observe`` pick up the ambient trace context; with neither, the
    bucket's exemplar is left untouched.  Exemplars render in
    :meth:`MetricsRegistry.expose` as OpenMetrics-style suffixes.
    """

    kind = "histogram"
    __slots__ = ()

    def observe(
        self,
        value: float,
        n: float = 1.0,
        exemplar: "str | None" = None,
        **labels,
    ) -> None:
        if not self._registry._enabled:
            return
        if n <= 0:
            raise ConfigurationError(f"observation weight must be > 0, got {n}")
        series = self._get(labels)
        index = len(self.buckets)  # the +Inf bucket
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        if exemplar is None:
            exemplar = _telemetry_registry.current_trace_id()
        with self._lock:
            series.bucket_counts[index] += n
            series.sum += float(value) * n
            series.count += n
            if exemplar is not None:
                series.exemplars[index] = (str(exemplar), float(value))


class _Bound:
    """An instrument pre-bound to one label set (hot-path handle)."""

    __slots__ = ("_instrument", "_series")

    def __init__(self, instrument: Instrument, series: _Series):
        self._instrument = instrument
        self._series = series

    def inc(self, value: float = 1.0) -> None:
        inst = self._instrument
        if not inst._registry._enabled:
            return
        if inst.kind == "counter" and value < 0:
            raise ConfigurationError(
                f"counter {inst.name} cannot decrease (inc {value})"
            )
        with inst._lock:
            self._series.value += value

    def set(self, value: float) -> None:
        inst = self._instrument
        if not inst._registry._enabled:
            return
        with inst._lock:
            self._series.value = float(value)

    def observe(
        self, value: float, n: float = 1.0, exemplar: "str | None" = None
    ) -> None:
        inst = self._instrument
        if not inst._registry._enabled:
            return
        series = self._series
        index = len(inst.buckets)
        for i, bound in enumerate(inst.buckets):
            if value <= bound:
                index = i
                break
        if exemplar is None:
            exemplar = _telemetry_registry.current_trace_id()
        with inst._lock:
            series.bucket_counts[index] += n
            series.sum += float(value) * n
            series.count += n
            if exemplar is not None:
                series.exemplars[index] = (str(exemplar), float(value))


class MetricsRegistry:
    """A named collection of instruments with one enable switch.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    with the same configuration hands back the same instrument (so hot
    paths and the telemetry bridge can share series), while a kind or
    label mismatch raises — silent forking of a metric is always a bug.
    """

    def __init__(self, enabled: bool = False):
        self._instruments: "dict[str, Instrument]" = {}
        self._lock = threading.Lock()
        self._enabled = bool(enabled)

    # -- enable switch -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- instrument creation -------------------------------------------------

    def _register(self, cls, name, help, labelnames, buckets=None) -> Instrument:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.labelnames != labelnames
                    or (buckets is not None and existing.buckets != tuple(buckets))
                ):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}; cannot "
                        f"re-register as {cls.kind}{labelnames}"
                    )
                return existing
            if cls is Histogram:
                bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
                if list(bounds) != sorted(set(bounds)):
                    raise ConfigurationError(
                        f"histogram buckets must be strictly increasing: {bounds}"
                    )
                instrument = cls(self, name, help, labelnames, bounds)
            else:
                instrument = cls(self, name, help, labelnames)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: "tuple[str, ...]" = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: "tuple[str, ...]" = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: "tuple[str, ...]" = (),
        buckets: "tuple[float, ...] | None" = None,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets)

    def get(self, name: str) -> "Instrument | None":
        return self._instruments.get(name)

    def instruments(self) -> "list[Instrument]":
        with self._lock:
            return list(self._instruments.values())

    def reset_values(self) -> None:
        """Zero every series while keeping the registered instruments.

        Module-level hot paths hold direct instrument references, so the
        default registry must never drop instruments — tests isolate by
        zeroing values instead.
        """
        for instrument in self.instruments():
            instrument.clear()

    # -- rendering -----------------------------------------------------------

    def expose(self) -> str:
        """Prometheus text exposition of every instrument."""
        lines: "list[str]" = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            series = instrument.series()
            for key in sorted(series):
                state = series[key]
                if instrument.kind == "histogram":
                    cumulative = 0.0
                    bounds = [*instrument.buckets, float("inf")]
                    for index, (bound, count) in enumerate(
                        zip(bounds, state.bucket_counts)
                    ):
                        cumulative += count
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        pairs = _label_pairs(
                            (*instrument.labelnames, "le"), (*key, le)
                        )
                        exemplar = (
                            state.exemplars[index] if state.exemplars else None
                        )
                        # OpenMetrics-style exemplar suffix; the bucket
                        # line itself stays a valid 0.0.4 sample prefix.
                        tail = ""
                        if exemplar is not None:
                            trace_id, observed = exemplar
                            tail = (
                                f' # {{trace_id="{_escape_label_value(trace_id)}"}}'
                                f" {_format_value(observed)}"
                            )
                        lines.append(
                            f"{name}_bucket{pairs} {_format_value(cumulative)}"
                            f"{tail}"
                        )
                    pairs = _label_pairs(instrument.labelnames, key)
                    lines.append(f"{name}_sum{pairs} {_format_value(state.sum)}")
                    lines.append(
                        f"{name}_count{pairs} {_format_value(state.count)}"
                    )
                else:
                    pairs = _label_pairs(instrument.labelnames, key)
                    lines.append(f"{name}{pairs} {_format_value(state.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-ready aggregate state (the monitor's evaluation input)."""
        metrics: dict = {}
        for instrument in self.instruments():
            entries = []
            series = instrument.series()
            for key in sorted(series):
                state = series[key]
                labels = dict(zip(instrument.labelnames, key))
                if instrument.kind == "histogram":
                    buckets = {}
                    exemplars = {}
                    bounds = [*instrument.buckets, float("inf")]
                    for index, (bound, count) in enumerate(
                        zip(bounds, state.bucket_counts)
                    ):
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        buckets[le] = count
                        exemplar = (
                            state.exemplars[index] if state.exemplars else None
                        )
                        if exemplar is not None:
                            exemplars[le] = {
                                "trace_id": exemplar[0],
                                "value": exemplar[1],
                            }
                    entry = {
                        "labels": labels,
                        "buckets": buckets,
                        "sum": state.sum,
                        "count": state.count,
                    }
                    if exemplars:
                        entry["exemplars"] = exemplars
                    entries.append(entry)
                else:
                    entries.append({"labels": labels, "value": state.value})
            metrics[instrument.name] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "series": entries,
            }
        return {"schema": 1, "metrics": metrics}


def _series_key(entry: dict) -> tuple:
    return tuple(sorted(entry.get("labels", {}).items()))


def snapshot_delta(old: dict, new: dict) -> dict:
    """The change from ``old`` to ``new`` (both from ``snapshot()``).

    Counters and histograms subtract (series missing from ``old`` count
    from zero); gauges carry the new value unchanged.  Metrics absent
    from ``new`` are dropped.
    """
    out: dict = {"schema": 1, "metrics": {}}
    old_metrics = old.get("metrics", {})
    for name, new_metric in new.get("metrics", {}).items():
        old_series = {
            _series_key(entry): entry
            for entry in old_metrics.get(name, {}).get("series", [])
        }
        entries = []
        for entry in new_metric.get("series", []):
            prior = old_series.get(_series_key(entry))
            if new_metric.get("kind") == "gauge" or prior is None:
                entries.append(dict(entry))
            elif "buckets" in entry:
                delta = {
                    "labels": dict(entry["labels"]),
                    "buckets": {
                        le: count - prior.get("buckets", {}).get(le, 0.0)
                        for le, count in entry["buckets"].items()
                    },
                    "sum": entry["sum"] - prior.get("sum", 0.0),
                    "count": entry["count"] - prior.get("count", 0.0),
                }
                # Exemplars are last-seen breadcrumbs, not totals: the
                # newest one is the right answer for a delta window too.
                if "exemplars" in entry:
                    delta["exemplars"] = dict(entry["exemplars"])
                entries.append(delta)
            else:
                entries.append(
                    {
                        "labels": dict(entry["labels"]),
                        "value": entry["value"] - prior.get("value", 0.0),
                    }
                )
        out["metrics"][name] = {**new_metric, "series": entries}
    return out
