"""Crash recovery: checkpoint + journal-suffix replay, bit-identical.

Restart protocol (docs/service.md "Durability & recovery"):

1. **Restore** the newest complete checkpoint under
   ``<journal_dir>/checkpoints/`` into a fresh :class:`FleetHost` — the
   manifest's ``completed_seqs`` lists exactly the journal sequence
   numbers whose silicon effects the snapshot contains (the service
   cuts checkpoints only between lane batches, so the frontier is exact).
2. **Replay** the journal into a :class:`~repro.service.ledger.Ledger`
   in sequence order.  Ops completed before the checkpoint only refill
   its idempotency cache and frontier; ops completed *after*
   it re-execute (their aging/RNG effects are not in the snapshot) and
   the fresh result is compared digest-for-digest against the journaled
   one — a divergence means non-deterministic replay and raises
   :class:`~repro.errors.JournalError` rather than silently serving a
   different silicon history.  Admitted-but-incomplete ops (the crash
   window) re-execute and append a ``replayed`` completion; ``shed`` ops
   are skipped — they never touched a device, and their keys stay
   uncached so a client retry runs them fresh.

Replay executes through an ordinary :class:`~repro.service.shards.Shard`
— the same batch kernel as live traffic — one op per batch, in admit
order.  Per-device admit order equals execution order for any client
that awaits each op before issuing the next (the load generator and the
HTTP frontend both do), and the fleet capture kernel keeps per-device
RNG streams independent of batch composition, so batch-of-1 replay is
bit-identical to the original batch-of-N execution.

Completions recorded by a *faulted* lane (``config.fault_shards``) are
re-executed but not digest-verified: a
:class:`~repro.faults.FaultInjector` advances its fault streams per
event, so a replay cannot reproduce the original lane's mid-life fault
schedule.  Everything else verifies exactly.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
from dataclasses import asdict, dataclass

from .. import errors as errors_module
from .. import telemetry
from ..telemetry import context as trace_ctx
from ..api import ReceiveRequest, ReceiveResult, SendRequest, SendResult
from ..errors import JournalError, ServiceError
from .journal import Journal
from .ledger import Ledger, journal_outcome, outcome_status
from .queue import Job
from .shards import FleetHost, Shard

__all__ = [
    "RecoveryReport",
    "latest_checkpoint",
    "prune_checkpoints",
    "recover_components",
    "results_digest",
]

#: Name of the replay lane (shows up as ``shard`` on replayed results
#: before it is overwritten with the journaled original's shard).
REPLAY_SHARD = "replay"

#: Complete checkpoints a prune keeps: the newest, and the one before it.
KEEP_CHECKPOINTS = 2


def checkpoints_root(journal_dir) -> pathlib.Path:
    return pathlib.Path(journal_dir) / "checkpoints"


def journal_path(journal_dir) -> pathlib.Path:
    return pathlib.Path(journal_dir) / "journal.jsonl"


def complete_checkpoints(journal_dir) -> "list[pathlib.Path]":
    """Every complete checkpoint directory, oldest first.

    Checkpoint ids embed the journal frontier (``ckpt-<next_seq:08d>``)
    so lexicographic order is creation order; a directory without a
    ``manifest.json`` is an interrupted snapshot and is ignored — the
    manifest is written atomically last.
    """
    root = checkpoints_root(journal_dir)
    if not root.is_dir():
        return []
    return sorted(
        path
        for path in root.iterdir()
        if path.is_dir() and (path / "manifest.json").exists()
    )


def latest_checkpoint(journal_dir) -> "pathlib.Path | None":
    """The newest complete checkpoint directory, or ``None``."""
    complete = complete_checkpoints(journal_dir)
    return complete[-1] if complete else None


def prune_checkpoints(journal_dir) -> "list[pathlib.Path]":
    """Delete every checkpoint directory older than the
    :data:`KEEP_CHECKPOINTS`-th newest complete one; returns them.

    Directories newer than that one stay, an interrupted snapshot
    included.  Hard links keep the device files a kept checkpoint shares
    with a deleted one alive, and a host that has just snapshotted reads
    only from its newest checkpoint.  Each manifest goes first, so a
    prune cut short leaves an incomplete directory, never a checkpoint
    with missing device files.
    """
    complete = complete_checkpoints(journal_dir)
    if len(complete) < KEEP_CHECKPOINTS:
        return []
    oldest_kept = complete[-KEEP_CHECKPOINTS].name
    doomed = sorted(
        path
        for path in checkpoints_root(journal_dir).iterdir()
        if path.is_dir() and path.name < oldest_kept
    )
    for path in doomed:
        (path / "manifest.json").unlink(missing_ok=True)
        shutil.rmtree(path)
    return doomed


def results_digest(results: "list[dict]") -> str:
    """One stable digest over a whole run's result dicts.

    Order-insensitive (results are sorted by their canonical JSON), so
    an uninterrupted run and a crash-restart-replay run digest equal iff
    they produced the same result *set* — the CI smoke job's equality
    check.  The ``shard`` field is serving provenance, not result
    content — a crash-window op replays on the dedicated ``replay``
    lane while the uninterrupted twin ran on its home shard — so it is
    excluded from the digest.
    """
    h = hashlib.sha256()
    views = ({k: v for k, v in r.items() if k != "shard"} for r in results)
    for blob in sorted(
        json.dumps(r, separators=(",", ":"), sort_keys=True) for r in views
    ):
        h.update(blob.encode())
        h.update(b"\x1f")
    return h.hexdigest()[:32]


@dataclass
class RecoveryReport:
    """What a restart did: the replay accounting the smoke tests grep."""

    checkpoint: "str | None" = None
    admitted: int = 0
    cached: int = 0
    replayed: int = 0
    verified: int = 0
    unverified: int = 0
    shed: int = 0
    torn_tail: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _rebuild_error(error_type: "str | None", message: "str | None"):
    """An exception equivalent to a journaled failure, for the cache."""
    cls = getattr(errors_module, error_type or "", None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = ServiceError
    try:
        return cls(message or error_type or "journaled failure")
    except TypeError:  # constructor wants extra args; keep the message
        return ServiceError(
            f"{error_type}: {message or 'journaled failure'}"
        )


def _request_for(record: dict):
    cls = SendRequest if record["kind"] == "send" else ReceiveRequest
    return cls.from_dict(record["request"])


def _result_digests(kind: str, result: dict) -> tuple:
    """The fields that must match for a replay to count as bit-identical."""
    if kind == "send":
        return (result.get("payload_digest"),)
    return (result.get("state_digest"), result.get("message_hex"))


def _cached_outcome(kind: str, comp: dict):
    if comp["status"] == "ok":
        cls = SendResult if kind == "send" else ReceiveResult
        return cls.from_dict(comp["result"])
    return _rebuild_error(comp.get("error_type"), comp.get("error"))


def recover_components(config) -> "tuple[FleetHost, Ledger]":
    """Build a service's state: ``(host, ledger)``.

    The one constructor of :class:`~repro.service.server.FleetService`'s
    fleet and exactly-once ledger.  Without a ``journal_dir`` the ledger
    lives in memory.  With one, the newest checkpoint is restored and the
    journal suffix replayed into the ledger; on a pristine directory that
    is a fresh host and an empty journal, so first boot and restart are
    the same code path.
    """
    host = FleetHost(
        device_name=config.device_name,
        sram_kib=config.sram_kib,
        scheme=config.resolved_scheme(),
        seed=config.seed,
        max_resident=config.max_resident,
        archive_dir=config.resolved_archive_dir(),
    )
    if config.journal_dir is None:
        return host, Ledger()
    journal_dir = pathlib.Path(config.journal_dir)
    report = RecoveryReport()
    completed_in_ckpt: "set[int]" = set()

    ckpt = latest_checkpoint(journal_dir)
    if ckpt is not None:
        manifest = host.restore(ckpt)
        completed_in_ckpt = set(manifest.get("completed_seqs", ()))
        report.checkpoint = ckpt.name

    # Opening the journal is its one parse: it validates the file,
    # repairs a torn tail and resumes next_seq past everything on disk.
    # Replay takes the scanned records from it.
    journal = Journal(journal_path(journal_dir))
    records, journal.existing = journal.existing, []
    report.torn_tail = journal.torn_tail
    admits = [r for r in records if r["op"] == "admit"]
    completes: "dict[int, dict]" = {
        r["seq"]: r for r in records if r["op"] == "complete"
    }
    ledger = Ledger(journal, report)
    faulted = set(config.fault_shards)
    lane = Shard(REPLAY_SHARD, host)

    for record in sorted(admits, key=lambda r: r["seq"]):
        seq, key, kind = record["seq"], record["key"], record["kind"]
        trace = record.get("trace")
        if trace is not None:
            ledger.traces[key] = trace
        report.admitted += 1
        comp = completes.get(seq)
        if comp is not None and comp["status"] == "shed":
            report.shed += 1
            continue
        if seq in completed_in_ckpt:
            # Effects are inside the snapshot; just refill the cache.
            if comp is None:
                raise JournalError(
                    f"checkpoint {report.checkpoint} claims seq {seq} "
                    "completed but the journal has no completion for it"
                )
            ledger.cache[key] = _cached_outcome(kind, comp)
            ledger.completed_seqs.add(seq)
            report.cached += 1
            continue
        # Re-execute: either completed after the checkpoint (effects
        # missing from the snapshot) or cut off mid-flight by the crash.
        # The replay re-enters the admit's trace, so its spans and the
        # appended completion correlate with the original request even
        # though that request lived in a dead process.
        job = Job(kind=kind, request=_request_for(record), future=None)
        with trace_ctx.trace_context(trace, inherit=False), telemetry.trace(
            "recovery.replay", seq=seq, kind=kind
        ) as replay_span:
            job.trace_id = replay_span.trace_id or trace
            job.parent_span_id = replay_span.span_id
            outcomes, _reason = lane.execute_batch([job])
        outcome = outcomes[0][1]
        status = outcome_status(outcome)
        if comp is None:
            journal_outcome(
                journal,
                seq,
                key,
                outcome,
                shard=REPLAY_SHARD,
                replayed=True,
                trace=trace,
            )
            report.replayed += 1
            telemetry.count("recovery.replayed")
        else:
            # The lane that produced the outcome: completions carry it
            # directly (error completions have no result dict to read it
            # from); fall back to the result's shard for journals written
            # before the field existed.
            original_shard = comp.get("shard")
            if original_shard is None:
                original_shard = (comp.get("result") or {}).get("shard")
            if original_shard in faulted or (
                faulted and original_shard is None and comp["status"] == "error"
            ):
                # A faulted lane's outcome (or a legacy error record that
                # cannot prove it wasn't one) is not reproducible: the
                # injector's fault streams advanced per event on the
                # original lane, and the clean replay lane sees none of
                # them.  Re-executed, not digest-verified.
                report.unverified += 1
            elif comp["status"] != status or (
                status == "ok"
                and _result_digests(kind, comp["result"])
                != _result_digests(kind, outcome.to_dict())
            ):
                raise JournalError(
                    f"replay of seq {seq} (key {key!r}) diverged from the "
                    f"journaled outcome — journal says {comp['status']}, "
                    f"replay produced {status}; refusing to serve a "
                    "different silicon history"
                )
            else:
                report.verified += 1
            # Keep the original completion's shard on the cached result
            # so clients see where it really ran.
            if status == "ok" and comp["status"] == "ok":
                outcome = _cached_outcome(kind, comp)
        ledger.cache[key] = outcome
        ledger.completed_seqs.add(seq)

    journal.flush()
    telemetry.emit_record({"type": "recovery.report", **report.to_dict()})
    return host, ledger
