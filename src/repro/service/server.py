"""The fleet service: async job queues in front of sharded encode/decode.

:class:`FleetService` is the tentpole of the serving layer — a single
asyncio process that accepts typed :class:`~repro.api.SendRequest` /
:class:`~repro.api.ReceiveRequest` jobs, routes each ``device_id`` to a
sticky home lane (rendezvous hashing over the currently-healthy shards),
queues it behind a bounded per-lane queue, and executes lane batches
through the fleet capture kernel directly on the event loop.

Lanes are worker tasks, not threads: each keeps its own queue, fault
injector and per-batch SLO verdict, and runs its batches inline, one
batch per turn, yielding to the loop after each.  The device work is
GIL-bound numpy, so threads bought no parallelism, only GIL hand-offs
(docs/service.md gives the measurements).

The control loop (docs/service.md):

* **Admission** — a full queue sheds impatient submitters, a cooperative
  submitter waits (that wait *is* the backpressure).  No healthy lanes →
  shed.
* **SLO trips** — a lane batch whose own largest raw BER or extra
  capture attempts exceed their SLO trips the lane: it stops taking new
  work, queued jobs reroute, and the tripping batch's receives are
  re-executed on healthy lanes (receives are read-only on device state,
  so the retry is safe; sends age silicon and keep their first outcome).
* **Graceful drain** — :meth:`FleetService.drain` stops admission and
  joins every queue until nothing is queued *or in flight anywhere*,
  looping because reroutes move jobs between queues mid-drain.

The optional HTTP frontend is hand-rolled over ``asyncio.start_server``
(stdlib only): ``GET /metrics`` (Prometheus text via the process
registry), ``GET /healthz``, ``GET /stats``, ``POST /send``,
``POST /receive``, ``POST /shutdown``.  A connection carries many
requests (HTTP/1.1 keep-alive) until an answer closes it or it idles
out (docs/service.md).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import time
from dataclasses import dataclass

from .. import metrics, telemetry
from ..telemetry import context as trace_ctx
from ..api import ReceiveRequest, SendRequest
from ..core.pipeline import InvisibleBits
from ..core.scheme import CodingScheme, paper_end_to_end_scheme
from ..device.catalog import make_varied_device
from ..errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    ServiceStoppedError,
)
from ..faults import FaultPlan, RetryPolicy
from ..harness.controlboard import ControlBoard
from .admission import AdmissionController
from .journal import Journal
from .queue import BoundedJobQueue, Job
from .recovery import recover_components
from .shards import RAW_BER_LIMIT, Shard, ShardRouter, stable_seed

_LOG = logging.getLogger(__name__)

__all__ = ["FleetService", "ServiceConfig", "serve_forever"]

#: Direct hot-path instruments on the process-wide registry — the same
#: get-or-create contract as the pipeline's message counter.
_JOBS_TOTAL = metrics.counter(
    "repro_service_jobs_total",
    "Jobs completed by the service, by shard, kind and status",
    labelnames=("shard", "kind", "status"),
)
_QUEUE_DEPTH = metrics.gauge(
    "repro_service_queue_depth",
    "Jobs currently queued per shard",
    labelnames=("shard",),
)
_REROUTED_TOTAL = metrics.counter(
    "repro_service_rerouted_total",
    "Jobs moved off a tripped shard onto a healthy one",
)
_IDEM_REPLAYS_TOTAL = metrics.counter(
    "repro_service_idempotent_replays_total",
    "Requests answered from the idempotency cache instead of re-executing",
)
_CHECKPOINTS_TOTAL = metrics.counter(
    "repro_service_checkpoints_total",
    "Fleet checkpoints written by the service",
)
_PROBES_TOTAL = metrics.counter(
    "repro_service_probes_total",
    "Synthetic readmission probes against tripped lanes, by outcome",
    labelnames=("shard", "outcome"),
)
_READMITTED_TOTAL = metrics.counter(
    "repro_service_readmitted_total",
    "Tripped lanes re-admitted by the readmission prober",
)
_REQUEST_LATENCY = metrics.histogram(
    "repro_service_request_latency_seconds",
    "End-to-end job latency from admission to completion",
    buckets=(0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
)

#: A job moved off tripped lanes more than this many times is shed.
MAX_REROUTES = 3

#: The largest request body the HTTP frontend reads; a larger
#: ``Content-Length`` is answered 413 without reading the body.
MAX_BODY_BYTES = 1 << 20

#: Seconds the HTTP frontend waits for a request's head and body; a
#: client still sending past it is answered 408 and disconnected.
REQUEST_READ_TIMEOUT_S = 10.0

#: Seconds a kept-alive connection may wait for its next request; past
#: it the frontend closes the connection without an answer.
IDLE_TIMEOUT_S = 15.0


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`FleetService` needs, in one frozen record."""

    shards: int = 4
    queue_depth: int = 64
    max_batch: int = 8
    device_name: str = "MSP430G2553"
    sram_kib: float = 0.25
    seed: int = 0
    scheme: "CodingScheme | None" = None
    fault_plan: "FaultPlan | None" = None
    fault_shards: "tuple[str, ...]" = ()
    host: str = "127.0.0.1"
    port: "int | None" = None
    #: Durability: a directory for the write-ahead journal + checkpoints.
    #: ``None`` keeps the service purely in-memory (the bench baseline).
    journal_dir: "str | None" = None
    #: Auto-checkpoint after this many journaled completions (0 = only
    #: the final graceful-stop checkpoint).
    checkpoint_every: int = 0
    #: LRU cap on simulated devices held in memory; overflow moves to the
    #: journal dir's device store, rehydrated bit-identically on touch.
    max_resident: "int | None" = None
    #: Self-healing: re-probe tripped lanes every this many seconds with
    #: synthetic traffic (0 = prober off); re-admit after this many
    #: consecutive probes inside the raw-BER SLO.
    probe_interval_s: float = 0.0
    readmit_after: int = 3

    def __post_init__(self):
        if self.shards < 1:
            raise ConfigurationError(f"need >= 1 shard, got {self.shards}")
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        unknown = set(self.fault_shards) - set(self.shard_names)
        if unknown:
            raise ConfigurationError(
                f"fault_shards {sorted(unknown)} not in {self.shard_names}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every and self.journal_dir is None:
            raise ConfigurationError(
                "checkpoint_every needs a journal_dir to write into"
            )
        if self.max_resident is not None and self.max_resident < 1:
            raise ConfigurationError(
                f"max_resident must be >= 1, got {self.max_resident}"
            )
        if self.max_resident is not None and self.journal_dir is None:
            raise ConfigurationError(
                "max_resident needs a journal_dir to evict into"
            )
        if self.probe_interval_s < 0:
            raise ConfigurationError(
                f"probe_interval_s must be >= 0, got {self.probe_interval_s}"
            )
        if self.readmit_after < 1:
            raise ConfigurationError(
                f"readmit_after must be >= 1, got {self.readmit_after}"
            )

    @property
    def shard_names(self) -> "tuple[str, ...]":
        return tuple(f"shard-{i}" for i in range(self.shards))

    def resolved_scheme(self) -> CodingScheme:
        return (
            self.scheme
            if self.scheme is not None
            else paper_end_to_end_scheme(copies=7, n_captures=5)
        )


class FleetService:
    """The sharded async frontend.  Create, ``await start()``, submit."""

    def __init__(self, config: "ServiceConfig | None" = None):
        self.config = config or ServiceConfig()
        # Restart and first boot are the same path: restore the newest
        # checkpoint (if any) and replay the journal suffix; without a
        # journal_dir, a fresh host and an in-memory ledger.
        self.host, self.ledger = recover_components(self.config)
        #: Per-phase latency accounting over completed jobs (seconds).
        self._phase_totals: "dict[str, float]" = {}
        self._phase_counts: "dict[str, int]" = {}
        self._latency_total = 0.0
        self._latency_n = 0
        self.router = ShardRouter(self.config.shard_names)
        self.admission = AdmissionController(self.config.shard_names)
        self.shards: "dict[str, Shard]" = {
            name: Shard(
                name,
                self.host,
                fault_plan=(
                    self.config.fault_plan
                    if name in self.config.fault_shards
                    else None
                ),
                fault_salt=index,
            )
            for index, name in enumerate(self.config.shard_names)
        }
        self.queues: "dict[str, BoundedJobQueue]" = {}
        self._homes: "dict[str, str]" = {}
        self._workers: "list[asyncio.Task]" = []
        self._prober_task: "asyncio.Task | None" = None
        self._http_server: "asyncio.AbstractServer | None" = None
        #: Kept-alive connections waiting for their next request, each
        #: with its handler task.
        self._idle_connections: "dict[asyncio.StreamWriter, asyncio.Task]" = {}
        self.http_connections = 0
        self.http_requests = 0
        self.accepting = False
        self.started = False
        self._metrics_was_enabled = False
        self.port: "int | None" = None
        self.completed = 0
        self.failed = 0
        self.checkpoints = 0
        self.probes = 0
        self._since_checkpoint = 0

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> "FleetService":
        if self.started:
            return self
        self._metrics_was_enabled = metrics.registry.enabled
        metrics.registry.enable()
        self.queues = {
            name: BoundedJobQueue(self.config.queue_depth)
            for name in self.config.shard_names
        }
        self._workers = [
            asyncio.create_task(self._worker(name), name=f"worker:{name}")
            for name in self.config.shard_names
        ]
        if self.config.probe_interval_s > 0:
            self._prober_task = asyncio.create_task(
                self._prober(), name="readmission-prober"
            )
        if self.config.port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
            self.port = self._http_server.sockets[0].getsockname()[1]
        self.accepting = True
        self.started = True
        telemetry.count("service.started")
        return self

    async def drain(self) -> None:
        """Stop admission; return once nothing is queued or in flight.

        Loops because a reroute can move a job onto a queue whose
        ``join`` already returned this pass.
        """
        self.accepting = False
        while True:
            if all(q.unfinished == 0 for q in self.queues.values()):
                return
            await asyncio.gather(*(q.join() for q in self.queues.values()))

    async def stop(self, *, drain: bool = True) -> None:
        if not self.started:
            return
        await self._stop_background()
        if drain:
            await self.drain()
            if self.ledger.journal is not None:
                # A graceful stop leaves a fresh checkpoint behind, so
                # the next boot replays an empty (or tiny) suffix.
                await self.checkpoint()
        self.accepting = False
        if not drain:
            self._shed_queued()
        await self._teardown(Journal.close, "service.stopped")

    async def abort(self) -> None:
        """Crash simulation: stop dead, completing and flushing nothing.

        Queued jobs are dropped on the floor (their futures never
        resolve — abandon the old submitters too).  A worker is
        cancelled only while it waits for its next batch, so a batch is
        either done or never dequeued.  The
        journal's file handle closes without a final fsync, no
        checkpoint is written.  What a ``kill -9`` leaves behind, minus
        the process exit; the recovery tests boot a fresh service on the
        same ``journal_dir`` afterwards.
        """
        if not self.started:
            return
        self.accepting = False
        await self._stop_background()
        await self._teardown(Journal.abandon, "service.aborted")

    async def _teardown(self, end_journal, event: str) -> None:
        """What ``stop`` and ``abort`` share: cancel the workers, close
        the HTTP listener, end the journal with ``end_journal``, restore
        the metrics registry."""
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._http_server is not None:
            self._http_server.close()
            # Close the idle kept-alive connections and let their
            # handlers end: from Python 3.12 ``wait_closed`` also waits
            # for every open connection.
            idle = list(self._idle_connections.items())
            for writer, _ in idle:
                writer.close()
            await asyncio.gather(
                *(task for _, task in idle), return_exceptions=True
            )
            await self._http_server.wait_closed()
            self._http_server = None
        if self.ledger.journal is not None:
            end_journal(self.ledger.journal)
        self.started = False
        if not self._metrics_was_enabled:
            metrics.registry.disable()
        telemetry.count(event)

    async def _stop_background(self) -> None:
        if self._prober_task is not None:
            self._prober_task.cancel()
            await asyncio.gather(self._prober_task, return_exceptions=True)
            self._prober_task = None

    def _shed_queued(self) -> None:
        """Surface every still-queued job as an explicit shed.

        The no-drain stop path: each drained job gets a journal-marked
        ``shed`` completion (so replay knows it never ran) and a
        :class:`~repro.errors.ServiceStoppedError` on its future —
        nothing dangles, nothing half-executes.
        """
        for queue in self.queues.values():
            for job in queue.drain_pending():
                self._shed(
                    job,
                    ServiceStoppedError(
                        "service stopped without draining; job shed"
                    ),
                )

    # -- durability ---------------------------------------------------------------

    async def checkpoint(self) -> dict:
        """Cut a consistent fleet checkpoint; returns a small summary.

        Fsync the journal and mark the cut (:meth:`Journal.checkpoint`),
        so every completion the manifest names is on disk before the
        manifest is; write each changed device and the manifest, and
        delete what the new checkpoint supersedes
        (:meth:`~repro.service.shards.FleetHost.snapshot`).  Neither
        this nor a lane batch has an await point, so a checkpoint only
        ever sees whole batches and the snapshot holds *exactly* the
        ledger's completed seqs.  Workers cut the automatic ones
        themselves, between batches.
        """
        return self._cut_checkpoint()

    def _cut_checkpoint(self) -> dict:
        """:meth:`checkpoint`, callable from a worker between batches."""
        journal = self.ledger.journal
        if journal is None:
            raise ConfigurationError(
                "checkpoint() needs a service with a journal_dir"
            )
        if not self.started:
            raise ServiceStoppedError("checkpoint() needs a started service")
        checkpoint_id = f"ckpt-{journal.next_seq:08d}"
        completed = sorted(self.ledger.completed_seqs)
        journal.checkpoint(checkpoint_id)
        self.host.snapshot(checkpoint_id, extra={"completed_seqs": completed})
        self.checkpoints += 1
        self._since_checkpoint = 0
        _CHECKPOINTS_TOTAL.inc()
        telemetry.count("service.checkpoint")
        return {
            "checkpoint": checkpoint_id,
            "devices": self.host.n_devices,
            "completed": len(completed),
        }

    async def _checkpoint_if_due(self) -> None:
        """Cut the automatic checkpoint once ``checkpoint_every`` is due.
        A failed cut is logged, not raised, so its lane keeps serving; the
        count stays due and the next batch retries."""
        every = self.config.checkpoint_every
        if not every or self._since_checkpoint < every:
            return
        try:
            await self.checkpoint()
        except Exception:
            _LOG.exception(
                "automatic checkpoint failed; retrying after the next batch"
            )

    # -- self-healing readmission -------------------------------------------------

    def _probe_lane(self, name: str, probe_index: int) -> float:
        """One synthetic send→receive on an ephemeral device; returns the
        measured raw BER (1.0 when the probe cannot decode at all).

        The probe device lives *outside* the :class:`FleetHost` — never
        journaled, never snapshotted, so probing cannot perturb the
        crash-restart bit-identity of real traffic — but it borrows the
        lane's fault injector, so it sees exactly what a real job on
        this lane would see.
        """
        device = make_varied_device(
            self.config.device_name,
            rng=stable_seed("probe", self.config.seed, name, probe_index),
            sram_kib=self.config.sram_kib,
        )
        board = ControlBoard(device)
        shard = self.shards[name]
        if shard.injector is not None:
            board.fault_injector = shard.injector
        channel = InvisibleBits(
            board,
            scheme=self.host.scheme,
            use_firmware=False,
        )
        # Each probe is its own trace — synthetic traffic must not ride
        # (or pollute) any real request's span tree.
        with trace_ctx.trace_context(inherit=False), telemetry.trace(
            "service.probe", shard=name, probe=probe_index
        ):
            try:
                encode = channel.send(b"probe")
                decode = channel.receive(expected_payload=encode.payload_bits)
            except ReproError:
                return 1.0
            raw = decode.raw_error_vs
            return float(raw) if raw is not None else 1.0

    async def _prober(self) -> None:
        """Re-probe tripped lanes; re-admit after a clean streak.

        A dirty probe backs the lane off on the shared
        :class:`~repro.faults.RetryPolicy` capped-exponential schedule
        (base = the probe interval), so a lane that stays sick costs
        asymptotically one probe per cap interval instead of hammering.
        """
        interval = self.config.probe_interval_s
        policy = RetryPolicy(
            max_attempts=2,
            base_delay_s=interval,
            max_delay_s=interval * 8,
            seed=self.config.seed,
        )
        streaks: "dict[str, int]" = {}
        failures: "dict[str, int]" = {}
        next_due: "dict[str, float]" = {}
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            for name in sorted(self.admission.tripped):
                if loop.time() < next_due.get(name, 0.0):
                    continue
                self.probes += 1
                probe_ber = self._probe_lane(name, self.probes)
                # One device call per turn, as for lane batches.
                await asyncio.sleep(0)
                clean = probe_ber <= RAW_BER_LIMIT
                _PROBES_TOTAL.inc(
                    shard=name, outcome="clean" if clean else "dirty"
                )
                telemetry.count("service.probe")
                if clean:
                    failures.pop(name, None)
                    streaks[name] = streaks.get(name, 0) + 1
                    if streaks[name] >= self.config.readmit_after:
                        if self.admission.readmit(name):
                            _READMITTED_TOTAL.inc()
                            telemetry.count("service.readmitted")
                            telemetry.emit_record(
                                {
                                    "type": "service.readmit",
                                    "shard": name,
                                    "probes": streaks[name],
                                }
                            )
                        streaks.pop(name, None)
                        next_due.pop(name, None)
                else:
                    streaks.pop(name, None)
                    failures[name] = failures.get(name, 0) + 1
                    backoff = policy.delays(failures[name])[-1]
                    next_due[name] = loop.time() + min(
                        backoff, policy.max_delay_s
                    )

    # -- submission ---------------------------------------------------------------

    def _pick_shard(self, device_id: str) -> str:
        home = self._homes.get(device_id)
        healthy = self.admission.healthy
        if home is None or home not in healthy:
            home = self.admission.require_capacity(
                self.router.route(device_id, healthy)
            )
            self._homes[device_id] = home
        return home

    async def submit(
        self,
        request: "SendRequest | ReceiveRequest",
        *,
        wait: bool = True,
    ):
        """Queue one job and await its typed result.

        ``wait=False`` sheds (raises :class:`~repro.errors.AdmissionError`)
        instead of blocking when the home shard's queue is full.

        A request carrying an ``idempotency_key`` is exactly-once: a key
        already completed returns (or re-raises) the cached outcome
        without touching silicon, a key currently in flight latches onto
        the running job's future, and on a journaled service the request
        is on disk before it enters a queue — a crash between admit and
        complete replays it deterministically on restart.
        """
        if not self.accepting:
            raise ServiceStoppedError(
                "service is draining or stopped; no new jobs accepted"
            )
        key = request.idempotency_key
        replay = self.ledger.known(key)
        if replay is not None:
            _IDEM_REPLAYS_TOTAL.inc()
            telemetry.count("service.idempotent_replay")
            with telemetry.trace(
                "service.idempotent_replay",
                device_id=request.device_id,
                key=key,
            ) as span:
                original = self.ledger.traces.get(key)
                if original is not None and span.trace_id not in (
                    None,
                    original,
                ):
                    # Re-home the replay span onto the execution that
                    # owns the outcome, so the answer correlates with the
                    # admit that did the work.
                    span.trace_id = original
                    span.parent_id = None
                return await asyncio.shield(replay)
        job = Job.for_request(
            request, asyncio.get_running_loop().create_future()
        )
        # Trace priority: an explicit ``request.trace_id`` wins (unless a
        # caller span is already open, which by construction carries the
        # same trace), then the ambient context, then a freshly minted
        # id — so every admitted job belongs to exactly one trace.
        with trace_ctx.trace_context(request.trace_id), telemetry.trace(
            "service.submit", kind=job.kind, device_id=request.device_id
        ) as span:
            # The or-branch covers inactive telemetry (null span): the
            # ambient context minted by ``trace_context`` still supplies
            # an id, so journal records carry traces even untraced.
            job.trace_id = span.trace_id or trace_ctx.current_trace_id()
            job.parent_span_id = span.span_id
            job.phases = {}
            job.enqueued_at = time.perf_counter()
            try:
                shard = self._pick_shard(request.device_id)
            except AdmissionError as exc:
                # ``require_capacity`` has already counted this shed.
                self._finish(job, exc)
                return await job.future
            job.shard = shard
            self.ledger.admit(job, key)
            queue = self.queues[shard]
            try:
                if wait:
                    await queue.put(job)
                else:
                    queue.put_nowait(job)
            except asyncio.QueueFull:
                self._shed(
                    job,
                    AdmissionError(
                        f"queue for {shard} is full "
                        f"({queue.maxsize} jobs) and wait=False",
                        shard=shard,
                    ),
                )
            except BaseException:
                self.ledger.release(job)
                raise
            else:
                _QUEUE_DEPTH.set(queue.qsize(), shard=shard)
            return await job.future

    # -- workers ------------------------------------------------------------------

    async def _worker(self, name: str) -> None:
        queue = self.queues[name]
        shard = self.shards[name]
        while True:
            # The only await before the batch runs: a worker cancelled
            # here leaves its next jobs queued (``asyncio.Queue.get``
            # takes nothing when cancelled), so no dequeued batch is
            # ever left unrun.
            batch = await queue.get_batch(self.config.max_batch)
            try:
                self._run_batch(name, queue, shard, batch)
            finally:
                for _ in batch:
                    queue.task_done()
            # Between batches: the one place an automatic checkpoint is
            # cut, so it only ever sees whole batches.
            await self._checkpoint_if_due()
            # A non-empty queue's get does not yield, so without this a
            # lane would run its whole queue back to back: yield after
            # every batch, so lanes alternate and the loop reads
            # connections between batches.
            await asyncio.sleep(0)

    def _run_batch(self, name, queue, shard, batch) -> None:
        _QUEUE_DEPTH.set(queue.qsize(), shard=name)
        dequeued = time.perf_counter()
        for job in batch:
            if job.phases is not None and job.enqueued_at is not None:
                # Time since admission until this execution began; a
                # rerouted job's wait includes its aborted first pass.
                job.phases["queue_wait"] = dequeued - job.enqueued_at
        try:
            if not self.admission.is_healthy(name):
                self._reroute(batch, source=name)
                return
            outcomes, reason = shard.execute_batch(batch)
            if reason is not None:
                if self.admission.trip(name, reason):
                    telemetry.count("service.shard_tripped")
                    telemetry.emit_record(
                        {
                            "type": "service.trip",
                            "shard": name,
                            "reason": reason,
                        }
                    )
                # The lane is untrustworthy: re-execute this batch's
                # receives elsewhere (read-only on device state);
                # sends aged silicon and keep their first outcome.
                retriable = [
                    job for job, _ in outcomes if job.kind == "receive"
                ]
                self._reroute(retriable, source=name)
                outcomes = [
                    (job, outcome)
                    for job, outcome in outcomes
                    if job.kind != "receive"
                ]
            for job, outcome in outcomes:
                self._finish(job, outcome)
        except Exception as exc:  # defensive: a worker must not die
            for job in batch:
                if not job.future.done():
                    self._finish(job, exc)

    def _finish(self, job: Job, outcome) -> None:
        if job.future.done():
            return
        if isinstance(outcome, BaseException):
            self.failed += 1
            job.future.set_exception(outcome)
        else:
            self.completed += 1
            job.future.set_result(outcome)
        status = self.ledger.complete(job, outcome)
        # A job refused before it had a home lane counts under "none".
        _JOBS_TOTAL.inc(shard=job.shard or "none", kind=job.kind, status=status)
        if status == "shed":
            return
        if job.enqueued_at is not None:
            latency = time.perf_counter() - job.enqueued_at
            _REQUEST_LATENCY.observe(latency, exemplar=job.trace_id)
            self._latency_total += latency
            self._latency_n += 1
            for phase, seconds in (job.phases or {}).items():
                self._phase_totals[phase] = (
                    self._phase_totals.get(phase, 0.0) + seconds
                )
                self._phase_counts[phase] = (
                    self._phase_counts.get(phase, 0) + 1
                )
        # Counted only; the worker cuts the checkpoint after the batch.
        self._since_checkpoint += 1

    def _shed(self, job: Job, exc: Exception) -> None:
        """Refuse a job that never touched a device: count it, journal
        it as ``shed`` and fail its future."""
        self.admission.count_shed()
        self._finish(job, exc)

    def _reroute(self, jobs: "list[Job]", *, source: str) -> None:
        healthy = self.admission.healthy - {source}
        for job in jobs:
            job.reroutes += 1
            if job.reroutes > MAX_REROUTES:
                self._shed(
                    job,
                    AdmissionError(
                        f"job for {job.request.device_id!r} exceeded "
                        f"{MAX_REROUTES} reroutes",
                        shard=source,
                    ),
                )
                continue
            target = self.router.route(job.request.device_id, healthy)
            if target is None:
                self._shed(
                    job,
                    AdmissionError(
                        "no healthy shards left to reroute to", shard=source
                    ),
                )
                continue
            self._homes[job.request.device_id] = target
            job.shard = target
            try:
                self.queues[target].put_nowait(job)
            except asyncio.QueueFull:
                # Never block a worker on a sibling's full queue (two
                # tripped lanes could deadlock face to face) — shed.
                self._shed(
                    job,
                    AdmissionError(
                        f"reroute target {target} is saturated", shard=target
                    ),
                )
                continue
            _REROUTED_TOTAL.inc()
            telemetry.count("service.rerouted")

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict:
        journal, report = self.ledger.journal, self.ledger.report
        return {
            "accepting": self.accepting,
            "completed": self.completed,
            "failed": self.failed,
            "devices": self.host.n_devices,
            "resident_devices": self.host.n_resident,
            "evicted_devices": self.host.evicted,
            "admission": self.admission.stats(),
            "http": {
                "connections": self.http_connections,
                "requests": self.http_requests,
            },
            "latency": {
                "requests": self._latency_n,
                "mean_ms": (
                    round(self._latency_total / self._latency_n * 1e3, 3)
                    if self._latency_n
                    else 0.0
                ),
                "phases": {
                    phase: {
                        "mean_ms": round(
                            total / self._phase_counts[phase] * 1e3, 3
                        ),
                        "total_ms": round(total * 1e3, 3),
                    }
                    for phase, total in sorted(self._phase_totals.items())
                },
            },
            "durability": {
                "journaled": journal is not None,
                "journal_seq": journal.next_seq - 1 if journal else 0,
                "checkpoints": self.checkpoints,
                "checkpoint_devices_written": self.host.checkpoint_written,
                "checkpoint_devices_reused": self.host.checkpoint_reused,
                "idempotency_cache": len(self.ledger.cache),
                "probes": self.probes,
                "recovery": report.to_dict() if report else None,
            },
            "queues": {
                name: {
                    "depth": queue.qsize(),
                    "enqueued": queue.enqueued,
                    "high_watermark": queue.high_watermark,
                }
                for name, queue in self.queues.items()
            },
            "shards": {
                name: shard.stats() for name, shard in self.shards.items()
            },
        }

    # -- HTTP frontend ------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """Answer one connection's requests in turn (HTTP/1.1 keep-alive)
        until an answer closes it, the peer leaves, or it idles out."""
        self.http_connections += 1
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        try:
            while True:
                # Idle: wait for the next request's first byte.  The
                # idle limit, or ``_teardown``, closes the connection
                # without an answer; the read then sees EOF.
                self._idle_connections[writer] = task
                idle = loop.call_later(IDLE_TIMEOUT_S, writer.close)
                try:
                    first = await reader.read(1)
                finally:
                    idle.cancel()
                    del self._idle_connections[writer]
                if not first:
                    return
                self.http_requests += 1
                keep_alive = await self._answer(reader, writer, first)
                # Checked after the answer is written: a service that
                # stopped accepting meanwhile takes no idle connections.
                if not (keep_alive and self.accepting):
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _answer(self, reader, writer, first: bytes) -> bool:
        """Read and answer one request whose first byte is ``first``;
        ``True`` when the connection may carry another."""
        # One deadline for the head and body: a stalled read fails with
        # ``TimeoutError`` instead of holding the handler.  A timer, not
        # ``wait_for``, which costs a task per request before 3.12.
        deadline = asyncio.get_running_loop().call_later(
            REQUEST_READ_TIMEOUT_S, reader.set_exception, asyncio.TimeoutError()
        )
        try:
            method, path, content_length, traceparent, keep_alive = (
                await _read_head(reader, first)
            )
            if content_length > MAX_BODY_BYTES:
                error = f"body over {MAX_BODY_BYTES} bytes"
                await _respond(writer, *_json(413, {"error": error}), False)
                return False
            body = (
                await reader.readexactly(content_length)
                if content_length
                else b""
            )
        except ValueError as exc:
            error = f"malformed request: {exc}"
            await _respond(writer, *_json(400, {"error": error}), False)
            return False
        except asyncio.TimeoutError:
            error = f"request not read within {REQUEST_READ_TIMEOUT_S:g} s"
            # ``drain`` re-raises the reader's timeout once the answer
            # is written; closing the writer flushes it.
            with contextlib.suppress(asyncio.TimeoutError):
                await _respond(writer, *_json(408, {"error": error}), False)
            return False
        finally:
            deadline.cancel()
        status, body, ctype = await self._dispatch(
            method, path, body, traceparent
        )
        # ``accepting`` is read after the route ran: ``POST /shutdown``
        # and a stopping service answer with ``Connection: close``.
        keep_alive = keep_alive and status != 400 and self.accepting
        await _respond(writer, status, body, ctype, keep_alive)
        return keep_alive

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        traceparent: "str | None" = None,
    ) -> "tuple[int, bytes, str]":
        """Route one request; returns its answer's status, body and type."""
        if method == "GET" and path == "/metrics":
            return 200, metrics.registry.expose().encode(), _PROMETHEUS_TEXT
        if method == "GET" and path == "/healthz":
            healthy = self.admission.healthy
            status = "ok" if self.accepting and healthy else "draining"
            return _json(
                200 if status == "ok" else 503,
                {"status": status, "healthy_shards": sorted(healthy)},
            )
        if method == "GET" and path == "/stats":
            return _json(200, self.stats())
        if method == "POST" and path in ("/send", "/receive"):
            return await self._handle_job(path, body, traceparent)
        if method == "POST" and path == "/shutdown":
            self.request_shutdown()
            return _json(200, {"status": "draining"})
        return _json(404, {"error": f"no route {method} {path}"})

    async def _handle_job(
        self,
        path: str,
        body: bytes,
        traceparent: "str | None" = None,
    ) -> "tuple[int, bytes, str]":
        try:
            payload = json.loads(body.decode() or "{}")
            cls = SendRequest if path == "/send" else ReceiveRequest
            request = cls.from_dict(payload)
        except (ValueError, KeyError, TypeError, ReproError) as exc:
            return _json(400, {"error": str(exc)})
        # Ingress context: the traceparent header wins (its span id lets
        # the server span parent under the client's), then the request
        # body's trace_id, then a fresh trace for bare curl-style calls.
        ctx = trace_ctx.from_traceparent(traceparent)
        with trace_ctx.trace_context(
            ctx.trace_id if ctx is not None else request.trace_id,
            ctx.span_id if ctx is not None else None,
            inherit=False,
        ), telemetry.trace(
            "service.request", path=path, device_id=request.device_id
        ):
            try:
                result = await self.submit(request)
            except AdmissionError as exc:
                return _json(429, {"error": str(exc), "shard": exc.shard})
            except ServiceStoppedError as exc:
                return _json(503, {"error": str(exc)})
            except ReproError as exc:
                return _json(
                    500, {"error": str(exc), "type": type(exc).__name__}
                )
            except Exception as exc:
                # A defect, not a refusal: still answer, so the client
                # sees a failed request rather than a dropped connection.
                _LOG.exception("%s job failed", path)
                return _json(
                    500, {"error": str(exc), "type": type(exc).__name__}
                )
            return _json(200, result.to_dict())

    def request_shutdown(self) -> None:
        """Signal-safe shutdown request: stops admission, sets the event
        ``serve_forever`` waits on.  Idempotent."""
        self.accepting = False
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    _shutdown_event: "asyncio.Event | None" = None


async def _read_head(
    reader, first: bytes
) -> "tuple[str, str, int, str | None, bool]":
    """Parse a request head into ``(method, path, content_length,
    traceparent, keep_alive)``; ``first`` is the request's first byte,
    already read.

    ``keep_alive`` is HTTP/1.1 without ``Connection: close``, or
    HTTP/1.0 with ``Connection: keep-alive``.  Raises
    :class:`ValueError` for a malformed request line, a
    ``Content-Length`` that is not a non-negative integer, or a line past
    the stream limit (asyncio's ``readline`` raises it).
    """
    request_line = first if first == b"\n" else first + await reader.readline()
    parts = request_line.decode("latin-1").split(" ", 2)
    if len(parts) != 3:
        raise ValueError("bad request line")
    method, path, version = parts
    content_length = 0
    traceparent = None
    connection = ""
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            if version.rstrip() == "HTTP/1.1":
                keep_alive = "close" not in connection
            else:
                keep_alive = "keep-alive" in connection
            return method, path, content_length, traceparent, keep_alive
        header = line.decode("latin-1")
        lowered = header.lower()
        if lowered.startswith("content-length:"):
            value = header.split(":", 1)[1].strip()
            if not (value.isascii() and value.isdigit()):
                raise ValueError(f"bad Content-Length {value!r}")
            content_length = int(value)
        elif lowered.startswith(trace_ctx.TRACEPARENT_HEADER + ":"):
            traceparent = header.split(":", 1)[1].strip()
        elif lowered.startswith("connection:"):
            connection = lowered.split(":", 1)[1]


_PROMETHEUS_TEXT = "text/plain; version=0.0.4"


def _json(status: int, payload: dict) -> "tuple[int, bytes, str]":
    return status, json.dumps(payload).encode(), "application/json"


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            408: "Request Timeout", 413: "Content Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


async def _respond(
    writer, status: int, body: bytes, ctype: str, keep_alive: bool
) -> None:
    reason = _REASONS.get(status, "OK")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def _serve(config: ServiceConfig, duration, on_ready) -> dict:
    service = FleetService(config)
    await service.start()
    stop_event = asyncio.Event()
    service._shutdown_event = stop_event
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    if on_ready is not None:
        on_ready(service)
    try:
        if duration is None:
            await stop_event.wait()
        else:
            try:
                await asyncio.wait_for(stop_event.wait(), timeout=duration)
            except asyncio.TimeoutError:
                pass
    finally:
        await service.stop(drain=True)
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    return service.stats()


def serve_forever(
    config: "ServiceConfig | None" = None,
    *,
    duration: "float | None" = None,
    on_ready=None,
) -> dict:
    """Run a service until SIGINT/SIGTERM, ``POST /shutdown``, or
    ``duration`` seconds; drain gracefully; return final stats.

    ``on_ready(service)`` fires once the HTTP socket is bound — tests use
    it to learn the ephemeral port, the CLI to print it.
    """
    return asyncio.run(_serve(config or ServiceConfig(), duration, on_ready))
