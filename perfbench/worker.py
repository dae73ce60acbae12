"""One round of one workload, in a fresh process; prints one JSON line.

Run from a checkout's root (``run.py`` does this)::

    python3 perfbench/worker.py --workload fresh_soak --seed 1 --trace 0 \
        --launched <time.time() at launch>

A fresh process per round keeps peak RSS, set-up time and GC heap size
from carrying over between rounds or workloads.  ``--setup-only`` stops
once the service is ready for timed load (an extra set-up sample).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from repro import metrics  # noqa: E402
from repro.api import ReceiveRequest, SendRequest  # noqa: E402
from repro.errors import AdmissionError, ReproError  # noqa: E402
from repro.service import (  # noqa: E402
    FleetService,
    ServiceClient,
    ServiceConfig,
    results_digest,
)

from tracing import LayerTracer, slo_series  # noqa: E402
from workloads import SHARDS, WORKLOADS, build_requests  # noqa: E402

#: Working space for journals and server logs, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"
#: The documented durable recipe (docs/service.md), otherwise defaults.
CHECKPOINT_EVERY = 50
SERVER_READY_TIMEOUT_S = 60.0


def cpu_seconds(pid: "int | str" = "self") -> float:
    """User + system CPU time a process has used, all threads, from ``/proc``."""
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size of a process, from ``/proc``."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _since(mark: "float | None", now: float) -> "float | None":
    return None if mark is None else now - mark


class Ledger:
    """What the timed phase saw: latencies, completions, outcomes.

    The asyncio path updates it from one thread; the HTTP path from two,
    so :meth:`done` and :meth:`fail` take a lock.  Given ``timed_ops``,
    it reads the CPU time of process ``pid`` when three quarters of them
    have completed, so the final quarter's CPU cost can be told apart.
    """

    def __init__(self, expected: dict, timed_ops: int = 0,
                 pid: "int | str" = "self"):
        self.expected = expected
        self.quarter_mark = (3 * timed_ops) // 4
        self.pid = pid
        self.cpu_at_mark: "float | None" = None
        self.latency = {"send": [], "receive": []}
        self.done_at: "list[float]" = []
        self.results: "list[dict]" = []
        self.errors = self.shed = self.mismatched = 0
        self.notes: "list[str]" = []
        self._lock = threading.Lock()

    def done(self, kind: str, request, result, started: float) -> None:
        now = time.perf_counter()
        with self._lock:
            self.latency[kind].append(now - started)
            self.done_at.append(now)
            if len(self.done_at) == self.quarter_mark:
                self.cpu_at_mark = cpu_seconds(self.pid)
            self.results.append(result.to_dict())
            if kind == "receive" and (
                result.message != self.expected[request.device_id]
            ):
                self.mismatched += 1
                self.notes.append(f"{request.device_id}: payload mismatch")

    def fail(self, request, exc: Exception) -> None:
        with self._lock:
            if isinstance(exc, AdmissionError):
                self.shed += 1
            else:
                self.errors += 1
            self.notes.append(f"{request.device_id}: {type(exc).__name__}: {exc}")

    def summary(self, attempted: int) -> dict:
        ok = len(self.done_at)
        return {
            "attempted": attempted,
            "ok": ok,
            "errors": self.errors,
            "shed": self.shed,
            "mismatched": self.mismatched,
            "lost": attempted - ok - self.errors - self.shed,
            "latency": self.latency,
            "done_at": self.done_at,
            "digest": results_digest(self.results),
            "notes": self.notes[:10],
        }


def _kind(request) -> str:
    return "send" if isinstance(request, SendRequest) else "receive"


# -- in-process workloads -----------------------------------------------------


async def drive_inprocess(service, timed, in_flight: int, ledger: Ledger) -> None:
    """Closed loop: ``in_flight`` clients, each waits for its reply."""
    pending = iter(timed)

    async def client() -> None:
        for ops in pending:
            for request in ops:
                started = time.perf_counter()
                try:
                    result = await service.submit(request)
                except ReproError as exc:
                    ledger.fail(request, exc)
                    break  # a failed send leaves its receive unissued (lost)
                ledger.done(_kind(request), request, result, started)

    await asyncio.gather(*(client() for _ in range(in_flight)))


def run_inprocess(args, plan, spec) -> dict:
    tracer = LayerTracer().install() if args.trace else None
    try:
        return asyncio.run(_inprocess(args, plan, spec, tracer))
    finally:
        if tracer is not None:
            tracer.restore()


async def _inprocess(args, plan, spec, tracer) -> dict:
    service = FleetService(
        ServiceConfig(shards=SHARDS, queue_depth=128, max_batch=16)
    )
    await service.start()
    try:
        staging = Ledger(plan.expected)
        await drive_inprocess(
            service, [(r,) for r in plan.staging], spec.in_flight, staging
        )
        if len(staging.done_at) != len(plan.staging):
            raise RuntimeError(f"staging failed: {staging.notes}")
        # Set-up cost as CPU time, which time stolen by the hypervisor does
        # not inflate; the wall time is reported beside it.
        setup = {
            "setup_s": cpu_seconds(),
            "setup_wall_s": time.time() - args.launched,
        }
        if args.setup_only:
            return setup
        ledger = Ledger(plan.expected, plan.timed_ops)
        if tracer is not None:
            tracer.reset()
            stats_before = service.stats()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        await drive_inprocess(service, plan.timed, spec.in_flight, ledger)
        wall = time.perf_counter() - t0
        cpu1 = cpu_seconds()
        out = {
            **setup,
            "t0": t0,
            "wall_s": wall,
            "cpu_s": cpu1 - cpu0,
            "tail_cpu_s": _since(ledger.cpu_at_mark, cpu1),
            "peak_rss_mb": vm_hwm_mb(),
            **ledger.summary(plan.timed_ops),
        }
        if tracer is not None:
            out["server"] = {
                "stats": service.stats(),
                "stats_before": stats_before,
                "exposition": metrics.registry.expose(),
                "slo_series": slo_series(service),
                "totals": tracer.totals(),
            }
        return out
    finally:
        await service.stop()


# -- durable HTTP workload ----------------------------------------------------


class Server:
    """``repro serve`` in its own process, over a journal directory."""

    def __init__(self, journal_dir: pathlib.Path, log: pathlib.Path,
                 totals: "pathlib.Path | None"):
        serve = [
            "serve", "--shards", str(SHARDS), "--journal-dir", str(journal_dir),
            "--checkpoint-every", str(CHECKPOINT_EVERY), "--port", "0",
        ]
        if totals is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [
                sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                "--totals", str(totals), "--", *serve,
            ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = log
        launched = time.perf_counter()
        with open(log, "w") as handle:
            self.proc = subprocess.Popen(
                argv, stdout=handle, stderr=subprocess.STDOUT, env=env,
                cwd=ROOT,
            )
        try:
            self.client = self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - launched

    def _wait_ready(self) -> ServiceClient:
        deadline = time.perf_counter() + SERVER_READY_TIMEOUT_S
        url = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log.read_text()}")
            if url is None:
                for line in self.log.read_text().splitlines():
                    if line.startswith("serving ") and " on http://" in line:
                        url = line.split(" on ", 1)[1].split()[0]
            if url is not None:
                client = ServiceClient(url, timeout=60.0)
                try:
                    if client.healthz()["http_status"] == 200:
                        return client
                except ReproError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server not ready in time")

    def stop(self) -> None:
        """Graceful ``POST /shutdown``; the service drains and checkpoints."""
        self.client.shutdown()
        self.proc.wait(timeout=120)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def drive_http(client: ServiceClient, timed, in_flight: int,
               ledger: Ledger) -> None:
    """Closed loop over ``in_flight`` connections (threads)."""
    pending = iter(timed)
    lock = threading.Lock()

    def next_ops():
        with lock:
            return next(pending, None)

    def worker() -> None:
        while (ops := next_ops()) is not None:
            for request in ops:
                started = time.perf_counter()
                call = client.send if _kind(request) == "send" else client.receive
                try:
                    result = call(request)
                except ReproError as exc:
                    ledger.fail(request, exc)
                    break
                ledger.done(_kind(request), request, result, started)

    threads = [threading.Thread(target=worker) for _ in range(in_flight)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def dir_mb(path: pathlib.Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def run_durable(args, plan, spec) -> dict:
    work = WORK_DIR / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    journal_dir = work / "journal"
    traced = [work / f"totals-{life}.json" if args.trace else None for life in (1, 2)]
    server = None
    try:
        server = Server(journal_dir, work / "serve-1.log", traced[0])
        setup = {
            "setup_s": cpu_seconds(server.proc.pid),
            "setup_wall_s": server.ready_s,
        }
        if args.setup_only:
            server.stop()
            return setup
        ledger = Ledger(plan.expected, plan.timed_ops, server.proc.pid)
        cpu0 = cpu_seconds(server.proc.pid)
        t0 = time.perf_counter()
        drive_http(server.client, plan.timed, spec.in_flight, ledger)
        wall = time.perf_counter() - t0
        cpu1 = cpu_seconds(server.proc.pid)
        stats = server.client.stats()
        exposition = server.client.metrics() if args.trace else ""
        peak_rss_mb = vm_hwm_mb(server.proc.pid)
        server.stop()
        disk_mb = dir_mb(journal_dir)
        journal_bytes = (journal_dir / "journal.jsonl").stat().st_size

        server = Server(journal_dir, work / "serve-2.log", traced[1])
        restart_s = server.ready_s
        check = Ledger(plan.expected)
        drive_http(server.client, [(r,) for r in plan.after_restart], 1, check)
        restart_stats = server.client.stats()
        server.stop()
        server = None
        out = {
            **setup,
            "t0": t0,
            "wall_s": wall,
            "cpu_s": cpu1 - cpu0,
            "tail_cpu_s": _since(ledger.cpu_at_mark, cpu1),
            "peak_rss_mb": peak_rss_mb,
            "disk_mb": disk_mb,
            "restart_s": restart_s,
            **ledger.summary(plan.timed_ops),
            "restart_check": check.summary(len(plan.after_restart)),
        }
        if args.trace:
            first = json.loads(traced[0].read_text())
            second = json.loads(traced[1].read_text())
            out["server"] = {
                "stats": stats,
                "exposition": exposition,
                "slo_series": first["slo_series"],
                "totals": first["totals"],
                "journal_bytes": journal_bytes,
                "recovery": restart_stats["durability"]["recovery"],
                "construct_s": second["totals"]["seconds"].get(
                    "recovery.construct", 0.0
                ),
            }
        return out
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another round's directory is still there


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, default=None,
                        help="time.time() when the parent launched us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.launched is None:
        args.launched = time.time()
    spec = WORKLOADS[args.workload]
    plan = build_requests(args.workload, args.seed, SendRequest, ReceiveRequest)
    run = run_durable if args.workload == "durable_http" else run_inprocess
    result = run(args, plan, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
