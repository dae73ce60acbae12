"""Turn one worker round into named metrics.

:func:`round_metrics` gives the end-to-end numbers a user of the service
sees (measured with tracing off); :func:`layer_metrics` gives the
per-layer numbers of a traced round.  Each metric has a fixed unit in
:data:`END_TO_END` / :data:`PER_LAYER`.  A per-layer metric of a layer a
workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from workloads import SHARDS, failed_share, percentile, quarter_bounds, tail_rate

#: End-to-end metrics: name -> unit.  ``None`` values (a
#: percentile without ten samples beyond it, or a metric that does not
#: apply to the workload) are reported as ``n/a``.
END_TO_END = {
    "ops_per_s": "1/s",
    "tail_ops_per_s": "1/s",
    "tail_ratio": "x",
    "cpu_ms_per_op": "ms",
    "tail_cpu_ratio": "x",
    "receive_p50_ms": "ms",
    "receive_tail_ms": "ms",
    "send_p50_ms": "ms",
    "send_tail_ms": "ms",
    "failed_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "setup_wall_s": "s",
    "disk_mb": "MB",
    "restart_s": "s",
}

#: Per-layer metrics of a traced round: name -> unit.  ``BENCHMARK.json``
#: gates a subset of the end-to-end metrics and lists every per-layer one
#: with the direction an optimisation should move it.
PER_LAYER = {
    "http.frontend_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.unattributed_ms": "ms",
    "server.checkpoint_ms": "ms",
    "server.idem_entries": "count",
    "server.reroutes": "count",
    "queue.batch_jobs": "count",
    "lane.batch_ms": "ms",
    "lane.busy_share": "share",
    "lane.slo_sample_ms": "ms",
    "lane.slo_sample_share": "share",
    "lane.slo_sample_share_q1": "share",
    "lane.slo_sample_share_q4": "share",
    "lane.slo_series": "count",
    "lane.trips": "count",
    "host.channel_ms": "ms",
    "host.devices_created": "count",
    "host.snapshot_devices": "count",
    "board.stage_ms": "ms",
    "board.stress_ms": "ms",
    "capture.ms_per_device": "ms",
    "capture.group_devices": "count",
    "capture.extra_attempts": "count",
    "channel.decode_ms": "ms",
    "channel.fallbacks": "count",
    "channel.first_pass_share": "share",
    "journal.admit_ms": "ms",
    "journal.complete_ms": "ms",
    "journal.bytes_per_op": "B",
    "recovery.records": "count",
    "recovery.construct_s": "s",
    "trace.ops_ratio": "x",
    "trace.raised_calls": "count",
}

#: Tail percentiles tried from the highest down; the first with ten
#: samples beyond it is the reported tail.
TAIL_PERCENTILES = (0.99, 0.95, 0.9)


def tail_latency(samples) -> "tuple[float | None, float | None]":
    """``(percentile, value)`` of the highest reportable tail percentile."""
    for p in TAIL_PERCENTILES:
        value = percentile(samples, p)
        if value is not None:
            return p, value
    return None, None


def _ms(value):
    return None if value is None else value * 1e3


def verified_ops(r: dict) -> int:
    return r["ok"] - r["mismatched"]


def round_metrics(r: dict) -> dict:
    """End-to-end metrics of one untraced round (``None`` = n/a)."""
    lat = r["latency"]
    ops_per_s = verified_ops(r) / r["wall_s"]
    tail_ops_per_s = tail_rate(r["done_at"])
    cpu_ms_per_op = r["cpu_s"] * 1e3 / r["attempted"]
    # The final quarter of the timed ops, as ``tail_rate`` counts it.
    tail_ops = r["attempted"] - (3 * r["attempted"]) // 4
    tail_cpu_ms = (
        r["tail_cpu_s"] * 1e3 / tail_ops if r.get("tail_cpu_s") else None
    )
    return {
        "ops_per_s": ops_per_s,
        "tail_ops_per_s": tail_ops_per_s,
        "tail_ratio": tail_ops_per_s / ops_per_s if tail_ops_per_s else None,
        "cpu_ms_per_op": cpu_ms_per_op,
        "tail_cpu_ratio": (
            cpu_ms_per_op / tail_cpu_ms if tail_cpu_ms else None
        ),
        "receive_p50_ms": _ms(percentile(lat["receive"], 0.5)),
        "receive_tail_ms": _ms(tail_latency(lat["receive"])[1]),
        "send_p50_ms": _ms(percentile(lat["send"], 0.5)),
        "send_tail_ms": _ms(tail_latency(lat["send"])[1]),
        "failed_share": failed_share(
            attempted=r["attempted"], errors=r["errors"], shed=r["shed"],
            mismatched=r["mismatched"], lost=r["lost"],
        ),
        "peak_rss_mb": r["peak_rss_mb"],
        "setup_s": r["setup_s"],
        "setup_wall_s": r["setup_wall_s"],
        "disk_mb": r.get("disk_mb"),
        "restart_s": r.get("restart_s"),
    }


def sample_counts(r: dict) -> dict:
    """Samples behind each latency metric, and which tail percentile."""
    counts = {}
    for kind in ("send", "receive"):
        samples = r["latency"][kind]
        p, _ = tail_latency(samples)
        counts[f"{kind}_p50_ms"] = f"n={len(samples)}"
        counts[f"{kind}_tail_ms"] = (
            f"p{round(p * 100)} n={len(samples)}" if p else f"n={len(samples)}"
        )
    return counts


def _quarter_share(events, windows) -> "list[float]":
    """Share of lane capacity spent in ``events`` per quarter window."""
    shares = []
    for lo, hi in windows:
        busy = sum(d for start, d in events if lo <= start < hi)
        shares.append(busy / ((hi - lo) * SHARDS) if hi > lo else 0.0)
    return shares


def layer_metrics(r: dict, untraced_ops_per_s: float) -> dict:
    """Per-layer metrics of one traced round."""
    server = r["server"]
    totals = server["totals"]
    calls, secs, tally = totals["calls"], totals["seconds"], totals["tally"]
    stats = server["stats"]
    wall = r["wall_s"]

    def per_call_ms(layer: str) -> float:
        n = calls.get(layer, 0)
        return secs.get(layer, 0.0) * 1e3 / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def returned(layer: str) -> int:
        """Calls that returned (their results are what ``tally`` counts)."""
        return calls.get(layer, 0) - totals["errors"].get(layer, 0)

    _, mean_ms, phase_ms = _timed_latency(stats, server.get("stats_before"))
    client_ms = [s * 1e3 for kind in ("send", "receive") for s in r["latency"][kind]]
    windows = quarter_bounds(r["done_at"], r["t0"])
    sample_events = totals["events"]["lane.slo_sample"]
    quarters = _quarter_share(sample_events, windows)
    decodes = calls.get("channel.decode", 0)  # first passes, raised or not
    fallbacks = calls.get("channel.fallback", 0)
    recovery = server.get("recovery") or {}
    traced_ops = verified_ops(r) / wall
    return {
        "http.frontend_ms": statistics.fmean(client_ms) - mean_ms,
        "server.queue_wait_ms": phase_ms.get("queue_wait", 0.0),
        "server.unattributed_ms": mean_ms - sum(phase_ms.values()),
        "server.checkpoint_ms": per_call_ms("server.checkpoint"),
        "server.idem_entries": stats["durability"]["idempotency_cache"],
        "server.reroutes": _counter(server["exposition"], "repro_service_rerouted_total"),
        "queue.batch_jobs": ratio(
            tally.get("queue.jobs", 0), returned("queue.get_batch")
        ),
        "lane.batch_ms": per_call_ms("lane.batch"),
        "lane.busy_share": secs.get("lane.batch", 0.0) / (wall * SHARDS),
        "lane.slo_sample_ms": per_call_ms("lane.slo_sample"),
        "lane.slo_sample_share": secs.get("lane.slo_sample", 0.0) / (wall * SHARDS),
        "lane.slo_sample_share_q1": quarters[0],
        "lane.slo_sample_share_q4": quarters[3],
        "lane.slo_series": server["slo_series"],
        "lane.trips": len(stats["admission"]["tripped"]),
        "host.channel_ms": per_call_ms("host.channel"),
        "host.devices_created": tally.get("host.devices_created", 0),
        "host.snapshot_devices": ratio(
            tally.get("host.snapshot_devices", 0), returned("host.snapshot")
        ),
        "board.stage_ms": per_call_ms("board.stage"),
        "board.stress_ms": per_call_ms("board.stress"),
        "capture.ms_per_device": ratio(
            secs.get("capture", 0.0) * 1e3, tally.get("capture.devices", 0)
        ),
        "capture.group_devices": ratio(
            tally.get("capture.devices", 0), returned("capture")
        ),
        "capture.extra_attempts": tally.get("capture.extra_attempts", 0),
        "channel.decode_ms": per_call_ms("channel.decode"),
        "channel.fallbacks": fallbacks,
        "channel.first_pass_share": 1.0 - ratio(fallbacks, decodes),
        "journal.admit_ms": per_call_ms("journal.admit"),
        "journal.complete_ms": per_call_ms("journal.complete"),
        "journal.bytes_per_op": ratio(server.get("journal_bytes", 0), r["attempted"]),
        "recovery.records": recovery.get("admitted", 0),
        "recovery.construct_s": server.get("construct_s", 0.0),
        "trace.ops_ratio": traced_ops / untraced_ops_per_s,
        "trace.raised_calls": sum(totals["errors"].values()),
    }


def _timed_latency(stats: dict, before: "dict | None"):
    """``(requests, mean ms, {phase: ms per request})`` of the service's
    own latency accounting, less whatever ``before`` had already seen
    (set-up traffic).  Phase times are per request, not per phase
    occurrence, so they add up against the mean."""
    def totals(s):
        if s is None:
            return 0, 0.0, {}
        lat = s["latency"]
        return (
            lat["requests"],
            lat["mean_ms"] * lat["requests"],
            {k: v["total_ms"] for k, v in lat["phases"].items()},
        )

    n1, t1, p1 = totals(stats)
    n0, t0, p0 = totals(before)
    n = n1 - n0
    if n <= 0:
        return 0, 0.0, {}
    return n, (t1 - t0) / n, {k: (v - p0.get(k, 0.0)) / n for k, v in p1.items()}


def _counter(exposition: str, name: str) -> float:
    """Sum of one counter's samples in Prometheus text exposition."""
    total = 0.0
    for line in exposition.splitlines():
        if line.startswith(name) and line[len(name)] in " {":
            total += float(line.split("#")[0].split()[-1])
    return total
