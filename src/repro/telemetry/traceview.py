"""Query and render JSONL traces by ``trace_id``.

Backs the ``repro trace`` CLI:

- ``repro trace search out.jsonl`` — one line per trace: id, span
  count, root span, wall duration, status.  Filterable by trace id
  (prefix), span name, status and minimum duration.
- ``repro trace show out.jsonl TRACE_ID`` — the span tree of one
  request, parent links walked, with per-span timings and counters.
- ``repro trace critical-path out.jsonl [TRACE_ID]`` — the chain of
  spans that bounds a request's latency (per trace), or the aggregate
  over every trace in a soak: which span names dominate the slow path.

All functions take plain record dicts (see
:func:`repro.telemetry.load_records`); spans missing a ``trace_id``
(traces written before PR 10, or hand-rolled records) are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TraceSummary",
    "critical_path",
    "group_traces",
    "render_critical_path",
    "render_search",
    "render_tree",
    "search_traces",
]


def group_traces(records: "list[dict]") -> "dict[str, list[dict]]":
    """Group span records by ``trace_id`` (insertion-ordered)."""
    traces: dict[str, list[dict]] = {}
    for rec in records:
        if rec.get("type") != "span":
            continue
        trace_id = rec.get("trace_id")
        if not trace_id:
            continue
        traces.setdefault(trace_id, []).append(rec)
    return traces


def _roots(spans: "list[dict]") -> "list[dict]":
    """Spans with no parent *within this trace*.

    A server-side root carries the client's span id as ``parent_id``;
    when the client's spans are not in the same file, that span is still
    the local root of the tree.
    """
    ids = {s.get("span_id") for s in spans}
    return [s for s in spans if s.get("parent_id") not in ids]


def _dur(span: dict) -> float:
    value = span.get("dur_ms")
    return float(value) if isinstance(value, (int, float)) else 0.0


@dataclass(frozen=True)
class TraceSummary:
    """One trace, one line: what ``search`` prints."""

    trace_id: str
    spans: int
    roots: int
    root_name: str
    started: float
    duration_ms: float
    status: str

    @property
    def complete(self) -> bool:
        """True when the trace has at least one root to hang a tree on."""
        return self.roots > 0


def summarize_trace(trace_id: str, spans: "list[dict]") -> TraceSummary:
    roots = _roots(spans)
    root_name = roots[0]["name"] if roots else "?"
    started = min(float(s.get("ts") or 0.0) for s in spans)
    if roots:
        duration = max(_dur(s) for s in roots)
    else:
        duration = max(_dur(s) for s in spans)
    status = "error" if any(s.get("status") == "error" for s in spans) else "ok"
    return TraceSummary(
        trace_id=trace_id,
        spans=len(spans),
        roots=len(roots),
        root_name=root_name,
        started=started,
        duration_ms=duration,
        status=status,
    )


def search_traces(
    records: "list[dict]",
    *,
    trace_id: "str | None" = None,
    name: "str | None" = None,
    status: "str | None" = None,
    min_dur_ms: "float | None" = None,
    limit: "int | None" = None,
) -> "list[TraceSummary]":
    """Filter traces; returns summaries ordered by start time.

    - ``trace_id`` — exact id or unique prefix;
    - ``name`` — keep traces containing a span with this name;
    - ``status`` — keep traces whose overall status matches;
    - ``min_dur_ms`` — keep traces at least this long;
    - ``limit`` — cap the result count (slowest-first when set, so the
      interesting traces survive the cut).
    """
    out = []
    for tid, spans in group_traces(records).items():
        if trace_id is not None and not tid.startswith(trace_id):
            continue
        if name is not None and not any(s.get("name") == name for s in spans):
            continue
        summary = summarize_trace(tid, spans)
        if status is not None and summary.status != status:
            continue
        if min_dur_ms is not None and summary.duration_ms < min_dur_ms:
            continue
        out.append(summary)
    out.sort(key=lambda s: s.started)
    if limit is not None and len(out) > limit:
        out.sort(key=lambda s: s.duration_ms, reverse=True)
        out = out[: int(limit)]
        out.sort(key=lambda s: s.started)
    return out


def render_search(summaries: "list[TraceSummary]") -> str:
    if not summaries:
        return "no traces matched"
    lines = [f"{len(summaries)} trace(s)"]
    header = ("trace_id", "spans", "root", "dur ms", "status")
    rows = [
        (
            s.trace_id,
            s.spans if s.complete else f"{s.spans} (no root)",
            s.root_name,
            f"{s.duration_ms:.1f}",
            s.status,
        )
        for s in summaries
    ]
    widths = [
        max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))
    ]
    lines.append(
        "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(header))
    )
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))
        )
    return "\n".join(lines)


def resolve_trace_id(records: "list[dict]", prefix: str) -> str:
    """Expand a trace-id prefix to the single trace it names."""
    traces = group_traces(records)
    if prefix in traces:
        return prefix
    matches = [tid for tid in traces if tid.startswith(prefix)]
    if not matches:
        raise ValueError(f"no trace matching {prefix!r}")
    if len(matches) > 1:
        raise ValueError(
            f"trace prefix {prefix!r} is ambiguous ({len(matches)} matches)"
        )
    return matches[0]


def _children_index(spans: "list[dict]") -> "dict[int | None, list[dict]]":
    children: dict = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: float(s.get("ts") or 0.0))
    return children


def render_tree(records: "list[dict]", trace_id: str) -> str:
    """Render one trace as an indented span tree with timings."""
    trace_id = resolve_trace_id(records, trace_id)
    spans = group_traces(records)[trace_id]
    ids = {s.get("span_id") for s in spans}
    children = _children_index(spans)
    lines = [f"trace {trace_id}: {len(spans)} span(s)"]

    def walk(span: dict, depth: int) -> None:
        marker = "" if span.get("status") == "ok" else f" [{span.get('status')}]"
        counters = span.get("counters") or {}
        extras = ""
        if counters:
            inner = ", ".join(f"{k}={v:g}" for k, v in sorted(counters.items()))
            extras = f"  ({inner})"
        lines.append(
            f"{'  ' * depth}{span['name']}  {_dur(span):.2f}ms"
            f"{marker}{extras}"
        )
        for child in children.get(span.get("span_id"), []):
            walk(child, depth + 1)

    for root in sorted(
        (s for s in spans if s.get("parent_id") not in ids),
        key=lambda s: float(s.get("ts") or 0.0),
    ):
        walk(root, 0)
    return "\n".join(lines)


def critical_path(spans: "list[dict]") -> "list[tuple[dict, float]]":
    """The latency-dominating chain of one trace.

    Starting from the slowest root, repeatedly descend into the slowest
    child.  Returns ``(span, self_ms)`` pairs, where ``self_ms`` is the
    span's duration minus the time attributed to the next step — the
    time that step alone contributed to the request's latency.
    """
    if not spans:
        return []
    roots = _roots(spans)
    if not roots:
        roots = spans
    children = _children_index(spans)
    path: list[tuple[dict, float]] = []
    node = max(roots, key=_dur)
    while True:
        kids = children.get(node.get("span_id"), [])
        if not kids:
            path.append((node, _dur(node)))
            return path
        heaviest = max(kids, key=_dur)
        path.append((node, max(0.0, _dur(node) - _dur(heaviest))))
        node = heaviest


def render_critical_path(
    records: "list[dict]", trace_id: "str | None" = None
) -> str:
    """One trace's critical path, or the soak-wide aggregate.

    Without a ``trace_id``, every trace's critical path is computed and
    the self-times are totalled per span name — the answer to "which
    stage should the next optimisation PR attack".
    """
    traces = group_traces(records)
    if trace_id is not None:
        trace_id = resolve_trace_id(records, trace_id)
        path = critical_path(traces[trace_id])
        total = sum(self_ms for _, self_ms in path)
        lines = [f"critical path of trace {trace_id} ({total:.1f} ms):"]
        for span, self_ms in path:
            share = (self_ms / total * 100.0) if total > 0 else 0.0
            lines.append(
                f"  {span['name']}  self {self_ms:.2f}ms  ({share:.0f}%)"
            )
        return "\n".join(lines)

    if not traces:
        return "no traces found"
    totals: dict[str, list[float]] = {}
    for spans in traces.values():
        for span, self_ms in critical_path(spans):
            bucket = totals.setdefault(span["name"], [0.0, 0.0])
            bucket[0] += 1
            bucket[1] += self_ms
    grand = sum(ms for _, ms in totals.values()) or 1.0
    lines = [f"aggregate critical path over {len(traces)} trace(s):"]
    for name, (count, ms) in sorted(
        totals.items(), key=lambda item: item[1][1], reverse=True
    ):
        lines.append(
            f"  {name}  total {ms:.1f}ms  ({ms / grand * 100.0:.0f}%)"
            f"  on {count:g} path(s)"
        )
    return "\n".join(lines)
