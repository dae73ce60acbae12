"""Unit tests for the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.api import ReceiveRequest, SendRequest  # noqa: E402
from repro.core.pipeline import InvisibleBits  # noqa: E402
from repro.errors import CodecError, ExtractionError  # noqa: E402

import report  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402
from tracing import TARGETS, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    RequestPlan,
    build_requests,
    failed_share,
    percentile,
)


def _plan(workload, seed):
    return build_requests(workload, seed, SendRequest, ReceiveRequest)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_requests_other_seed_other_silicon(workload):
    first, again, other = _plan(workload, 7), _plan(workload, 7), _plan(workload, 8)
    assert first == again

    def sends(plan):
        return [r for ops in (plan.staging,) + plan.timed for r in ops
                if isinstance(r, SendRequest)]

    ids = {r.device_id for r in sends(first)}
    assert ids and ids.isdisjoint(r.device_id for r in sends(other))
    assert {r.message for r in sends(first)}.isdisjoint(
        r.message for r in sends(other)
    )


def test_workload_sizes_are_op_counts():
    fresh = _plan("fresh_soak", 1)
    assert fresh.timed_ops == 2 * WORKLOADS["fresh_soak"].messages
    hot = _plan("hot_reread", 1)
    assert len(hot.staging) == WORKLOADS["hot_reread"].working_set
    assert hot.timed_ops == WORKLOADS["hot_reread"].rereads
    assert all(isinstance(ops[0], ReceiveRequest) for ops in hot.timed)
    durable = _plan("durable_http", 1)
    assert len(durable.after_restart) == WORKLOADS["durable_http"].restart_sample
    assert all(r.idempotency_key for ops in durable.timed for r in ops)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 20)), 0.5) is None  # 9 beyond rank 10
    assert percentile(list(range(1, 21)), 0.5) == 10  # 10 beyond
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile([], 0.5) is None
    assert report.tail_latency(list(range(300))) == (0.95, 284)
    assert report.tail_latency(list(range(5))) == (None, None)


def test_failed_share_counts_every_kind_of_failure_including_lost():
    share = failed_share(attempted=200, errors=1, shed=2, mismatched=3, lost=4)
    assert share == pytest.approx(10 / 200)
    assert failed_share(attempted=5, errors=0, shed=0, mismatched=0, lost=0) == 0
    with pytest.raises(ValueError):
        failed_share(attempted=0, errors=0, shed=0, mismatched=0, lost=0)


def test_round_accounting_lost_ops():
    r = {"ok": 7, "mismatched": 1, "errors": 1, "shed": 0, "lost": 1,
         "attempted": 10, "wall_s": 2.0, "cpu_s": 1.0, "tail_cpu_s": 0.5,
         "done_at": [0.1 * i for i in range(7)],
         "latency": {"send": [], "receive": [0.01] * 3},
         "peak_rss_mb": 1.0, "setup_s": 1.0, "setup_wall_s": 1.5}
    metrics = report.round_metrics(r)
    assert metrics["failed_share"] == pytest.approx(0.3)
    assert metrics["ops_per_s"] == pytest.approx(3.0)  # verified ops only
    assert metrics["receive_p50_ms"] is None  # 3 samples: not reportable
    # 100 ms/op overall against 500 ms over the final 3 of 10 ops.
    assert metrics["tail_cpu_ratio"] == pytest.approx(100 / (500 / 3))


def _originals():
    out = []
    for module_name, owner_path, attr, _ in TARGETS:
        owner = importlib.import_module(module_name)
        if owner_path:
            owner = getattr(owner, owner_path)
        out.append((owner, attr, owner.__dict__[attr]))
    return out


def _tiny_plan(workload, seed=3, staged=8, timed=24):
    full = _plan(workload, seed)
    staging = full.staging[:staged]
    ids = {r.device_id for r in staging} or None
    ops = [o for o in full.timed if ids is None or o[0].device_id in ids]
    return RequestPlan(staging, tuple(ops[:timed]), (), full.expected)


def _run_tiny(workload, plan, trace):
    args = types.SimpleNamespace(trace=trace, launched=0.0, setup_only=False)
    return worker.run_inprocess(args, plan, WORKLOADS[workload])


@pytest.mark.parametrize("workload", ["fresh_soak", "hot_reread"])
def test_traced_round_matches_untraced_and_restores_attributes(workload):
    plan = _tiny_plan(workload)
    originals = _originals()
    untraced, traced = _run_tiny(workload, plan, 0), _run_tiny(workload, plan, 1)
    assert traced["digest"] == untraced["digest"]
    assert traced["ok"] == untraced["ok"] == plan.timed_ops
    assert bench.round_correct(traced) and bench.round_correct(untraced)
    assert traced["server"]["totals"]["calls"]["lane.batch"] > 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"


def test_wrapper_counts_and_times_calls_that_raise():
    tracer = LayerTracer()

    def decode(ok):
        if not ok:
            raise CodecError("undecodable")
        return "decoded"

    wrapped = tracer._wrap("channel.decode", decode)
    assert wrapped(True) == "decoded"
    for _ in range(3):
        with pytest.raises(CodecError):
            wrapped(False)
    totals = tracer.totals()
    assert totals["calls"] == {"channel.decode": 4}
    assert totals["errors"] == {"channel.decode": 3}
    assert totals["seconds"]["channel.decode"] > 0


def test_first_pass_share_counts_decodes_that_raised(monkeypatch):
    """Every first-pass decode raises, so every receive falls back."""
    def undecodable(self, *args, **kwargs):
        raise CodecError("undecodable")

    monkeypatch.setattr(InvisibleBits, "decode_state", undecodable)
    plan = _tiny_plan("hot_reread", timed=12)
    traced = _run_tiny("hot_reread", plan, 1)
    assert bench.round_correct(traced)  # the fallback still reads back exactly
    totals = traced["server"]["totals"]
    assert totals["calls"]["channel.decode"] == totals["errors"]["channel.decode"]
    assert totals["calls"]["channel.fallback"] == totals["calls"]["channel.decode"]
    layers = report.layer_metrics(traced, untraced_ops_per_s=1.0)
    assert layers["channel.first_pass_share"] == 0.0
    assert layers["trace.raised_calls"] >= totals["calls"]["channel.decode"]
    assert InvisibleBits.__dict__["decode_state"] is undecodable  # restored


def test_errored_receive_fails_the_run(monkeypatch):
    def broken(self, *args, **kwargs):
        raise ExtractionError("residual errors")

    monkeypatch.setattr(InvisibleBits, "decode_state", broken)
    monkeypatch.setattr(InvisibleBits, "receive", broken)
    plan = _tiny_plan("hot_reread", timed=12)
    result = _run_tiny("hot_reread", plan, 0)
    assert result["mismatched"] == result["lost"] == 0
    assert result["errors"] + result["shed"] > 0
    assert not bench.round_correct(result)

    monkeypatch.setattr(bench, "spawn", lambda *a, **k: dict(result, setup_s=1.0, setup_wall_s=1.5))
    assert bench.main(["--workload", "hot_reread", "--seed", "3",
                       "--seconds", "1", "--trace", "0"]) == 1


def test_restart_check_errors_fail_the_round():
    clean = {"errors": 0, "shed": 0, "mismatched": 0, "lost": 0}
    assert bench.round_correct(dict(clean))
    check = dict(clean, ok=15, attempted=16, errors=1)
    assert not bench.round_correct(dict(clean, restart_check=check))
    assert not bench.round_correct(dict(clean, shed=1))


def test_benchmark_json_matches_report_tables():
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["perfbench"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for m in contract["end_to_end"]:
        assert report.END_TO_END[m["name"]] == m["unit"]
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == report.PER_LAYER
