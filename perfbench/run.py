"""The service benchmark: one workload, measured end to end or layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fresh_soak --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``fresh_soak``, ``hot_reread`` and
``durable_http``.  Each is a fixed number of operations; ``--seconds``
bounds how many fixed-size rounds one run repeats (at least one), each
round in a fresh worker process.  ``--trace 0`` prints the end-to-end
metrics (medians over rounds; set-up times are medians over at least
three set-ups); ``--trace 1`` runs one untraced and one traced round and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the metrics ``BENCHMARK.json`` names; the lines before
it are a readable report of every metric.

Exit code 0 means every op succeeded and every output was verified
correct; 1 means an error, shed, lost op or wrong output (the JSON still
says ``"correct": false``) or a failed round; 2
means the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from report import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    layer_metrics,
    round_metrics,
    sample_counts,
)
from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per run (rounds plus extra set-up-only launches).
SETUP_SAMPLES = 3
#: Hard wall-clock budget for one run (a run must end within 180 s).
RUN_BUDGET_S = 170.0


class RoundFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *, trace: int = 0,
          setup_only: bool = False, timeout: float) -> dict:
    """Run one worker round in a fresh process; return its JSON result.

    The worker gets its own process group, so a timeout also stops any
    server it launched.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
        "--launched", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"{workload} round timed out after {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise RoundFailed(f"{workload} worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def round_failures(r: dict) -> int:
    return r["errors"] + r["shed"] + r["mismatched"] + r["lost"]


def round_correct(r: dict) -> bool:
    """Every op of the round, and of the durable restart check, succeeded
    and read back exactly: no error, shed, mismatch or lost op."""
    check = r.get("restart_check")
    return round_failures(r) == 0 and (
        check is None
        or (round_failures(check) == 0 and check["ok"] == check["attempted"])
    )


def _median(values):
    present = [v for v in values if v is not None]
    if len(present) != len(values):
        return None
    return statistics.median(present)


def measure(workload: str, seed: int, seconds: int, trace: int):
    """Return ``(rounds, metrics, notes, correct)`` for one run."""
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - start)

    if trace:
        untraced = spawn(workload, seed, timeout=remaining())
        traced = spawn(workload, seed, trace=1, timeout=remaining())
        rounds = [untraced, traced]
        metrics = layer_metrics(traced, round_metrics(untraced)["ops_per_s"])
        same = traced["digest"] == untraced["digest"]
        notes = {
            "trace.ops_ratio": f"digests {'equal' if same else 'DIFFER'}",
            "trace.raised_calls": str(traced["server"]["totals"]["errors"]),
        }
        return rounds, metrics, notes, same and all(map(round_correct, rounds))

    rounds = []
    while True:
        began = time.perf_counter()
        rounds.append(spawn(workload, seed, timeout=remaining()))
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            break
    per_round = [round_metrics(r) for r in rounds]
    metrics = {
        name: _median([m[name] for m in per_round]) for name in END_TO_END
    }
    setups = list(rounds)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, setup_only=True, timeout=remaining()))
    notes = sample_counts(rounds[0])
    for name in ("setup_s", "setup_wall_s"):
        metrics[name] = statistics.median(s[name] for s in setups)
        notes[name] = f"median of {len(setups)}"
    deterministic = len({r["digest"] for r in rounds}) == 1
    notes["ops_per_s"] = (
        f"median of {[round(m['ops_per_s'], 1) for m in per_round]}; "
        f"results {'identical' if deterministic else 'DIFFER'} across rounds"
    )
    return rounds, metrics, notes, deterministic and all(map(round_correct, rounds))


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    try:
        rounds, metrics, notes, correct = measure(
            args.workload, args.seed, args.seconds, args.trace
        )
    except RoundFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)}")
    for name, value in metrics.items():
        print(f"{name:28s} {_fmt(value):>14s} {units[name]:6s} {notes.get(name, '')}")
    for r in rounds:
        for note in r["notes"] + r.get("restart_check", {}).get("notes", []):
            print(f"! {note}")

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        print(f"no value for {missing} on {args.workload}", file=sys.stderr)
        return 1
    checks = [r.get("restart_check") for r in rounds if r.get("restart_check")]
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds + checks),
        "failed": sum(round_failures(r) for r in rounds + checks),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
