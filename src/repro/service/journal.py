"""The write-ahead journal: every admitted job is on disk before it runs.

Durability contract (docs/service.md "Durability & recovery"):

- **Admit before enqueue.**  :meth:`Journal.admit` appends an ``admit``
  record — sequence number, idempotency key, kind, and the full request
  dict — *before* the job enters a shard queue.  A crash after the append
  can lose the in-memory job but never the fact that it was accepted.
- **Complete on result.**  :meth:`Journal.complete` appends the outcome:
  the serialized result for successes, the error type/message for
  failures, a bare ``shed`` marker for jobs refused mid-flight.  Recovery
  replays every admitted-but-incomplete record and serves completed ones
  from cache (idempotency keys make client retries exact no-ops).
- **CRC framing.**  Each line is ``<crc32:08x> <compact-json>``; a torn
  final line is the expected crash signature and is skipped, while a bad
  CRC *before* a valid record means real corruption and raises
  :class:`~repro.errors.JournalError` — silently resuming from a damaged
  prefix could double-apply stress.
- **One scan per open.**  Opening a journal parses its bytes once
  (:func:`_scan`): the valid records, the torn-tail flag and the length
  of the valid prefix.  Working on bytes makes a fragment cut
  mid-character an ordinary torn tail.  The open then repairs the tail
  in place — truncating the fragment to the valid prefix, or adding the
  one newline a complete final record lost — so the next append starts
  on a fresh line instead of concatenating onto the fragment and turning
  a tolerated torn tail into hard corruption one restart later.
  Recovery replays the records that scan produced
  (:attr:`Journal.existing`) and never reads the file itself.
- **Batched fsync.**  Appends are flushed to the OS on every record and
  fsynced every ``fsync_every`` records (:meth:`checkpoint`,
  :meth:`flush` and :meth:`close` always fsync inline).  Batched fsyncs
  run on a dedicated writer thread so the every-Nth-record sync never
  stalls the asyncio event loop the service appends from.  Losing a
  not-yet-synced tail is safe by construction: a lost ``admit`` was
  never acknowledged (the client retries with the same key), and a lost
  ``complete`` just re-executes deterministically on replay.

Record vocabulary (one JSON object per line, ``op`` discriminates):

``{"op": "admit", "seq": n, "key": k, "kind": "send"|"receive",
   "request": {...}, "trace": str|None}``
``{"op": "complete", "seq": n, "key": k, "status": "ok"|"error"|"shed",
   "result": {...}|None, "error": str|None, "error_type": str|None,
   "shard": str|None, "replayed": bool, "trace": str|None}``
``{"op": "checkpoint", "checkpoint": "ckpt-00000042"}``

A checkpoint marker holds only the checkpoint's id: the checkpoint's
``manifest.json`` (``completed_seqs``) is the one record of what it
covers, and nothing reads markers back.  Older journals' markers also
carry a ``completed`` list; it is ignored.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
import zlib

from .. import metrics, telemetry
from ..errors import ConfigurationError, JournalError

__all__ = ["Journal", "read_journal"]

#: Journal instruments on the process-wide registry (same get-or-create
#: contract as the service counters in server.py).
_APPENDS_TOTAL = metrics.counter(
    "repro_journal_appends_total",
    "Records appended to the write-ahead journal, by op",
    labelnames=("op",),
)
_FSYNC_SECONDS = metrics.histogram(
    "repro_journal_fsync_seconds",
    "Wall latency of journal fsync batches",
    buckets=metrics.exponential_buckets(1e-5, 4.0, 10),
)
_TORN_TAIL_TOTAL = metrics.counter(
    "repro_journal_torn_tail_total",
    "Torn/partial trailing lines skipped while reading a journal",
)
_TAIL_REPAIRS_TOTAL = metrics.counter(
    "repro_journal_tail_repairs_total",
    "Torn trailing fragments repaired before reopening a journal for append",
)


def _frame(record: dict) -> str:
    body = json.dumps(record, separators=(",", ":"), sort_keys=True)
    return f"{zlib.crc32(body.encode()):08x} {body}\n"


def _unframe(line: bytes) -> "dict | None":
    """Parse one framed line; ``None`` for anything torn or corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    body = line[9:]
    try:
        if int(line[:8], 16) != zlib.crc32(body):
            return None
        record = json.loads(body)
    except ValueError:  # bad hex, bad JSON, or bytes that are not UTF-8
        return None
    return record if isinstance(record, dict) and "op" in record else None


def _scan(path: pathlib.Path) -> "tuple[list[dict], int, int]":
    """The one parse of a journal: ``(records, torn, valid_bytes)``.

    Works on bytes, so a crash fragment cut mid-character is an ordinary
    torn tail.  ``valid_bytes`` is the length of the prefix made of whole,
    newline-terminated lines before the first bad one; past it lies either
    the torn fragment or a final record that lost only its newline.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return [], 0, 0
    records: "list[dict]" = []
    bad_at: "int | None" = None
    valid_bytes = end = 0
    for lineno, line in enumerate(raw.splitlines(keepends=True), start=1):
        end += len(line)
        body = line.rstrip(b"\r\n")
        if body.strip():
            record = _unframe(body)
            if record is None:
                if bad_at is None:
                    bad_at = lineno
                continue
            if bad_at is not None:
                raise JournalError(
                    f"{path}: corrupt record at line {bad_at} followed by a "
                    "valid one — refusing to replay a damaged journal"
                )
            records.append(record)
        if bad_at is None and line.endswith(b"\n"):
            valid_bytes = end
    torn = 1 if bad_at is not None else 0
    if torn:
        _TORN_TAIL_TOTAL.inc()
        telemetry.count("journal.torn_tail")
    return records, torn, valid_bytes


def read_journal(path) -> "tuple[list[dict], int]":
    """Read every valid record; returns ``(records, torn_lines)``.

    A run of unparseable lines at the *end* of the file is the crash
    signature (a write cut mid-line) and is tolerated; an unparseable
    line followed by a valid record is corruption and raises
    :class:`~repro.errors.JournalError`.
    """
    records, torn, _ = _scan(pathlib.Path(path))
    return records, torn


class Journal:
    """Append-only CRC-framed JSONL writer with batched fsync.

    Thread-safe: the asyncio event loop appends admits/completes while a
    checkpointer thread appends markers.  ``next_seq`` starts after the
    highest seq already on disk, so reopening a journal (restart) keeps
    sequence numbers strictly increasing across process lives.  Opening
    repairs a torn trailing fragment so the first append of the new life
    starts on a fresh line.
    """

    def __init__(self, path, *, fsync_every: int = 8):
        if fsync_every < 1:
            raise ConfigurationError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Scan (and validate) first: a corrupt journal raises here and is
        # never repaired over; only a tolerated torn tail gets trimmed.
        existing, self.torn_tail, valid_bytes = _scan(self.path)
        self.next_seq = 1 + max(
            (r.get("seq", 0) for r in existing), default=0
        )
        #: The records on disk at open, for recovery to replay; it takes
        #: the list, so a live journal keeps no copy of its history.
        self.existing = existing
        self.fsync_every = fsync_every
        self._file = open(self.path, "a", encoding="utf-8")
        # Past the valid prefix lies a torn fragment (cut it) or a final
        # record that lost only its newline (finish it): appending onto a
        # fragment would leave corruption followed by valid records.
        fd = self._file.fileno()
        self.repaired_tail = os.fstat(fd).st_size > valid_bytes
        if self.repaired_tail:
            if self.torn_tail:
                os.ftruncate(fd, valid_bytes)
            else:
                self._file.write("\n")
                self._file.flush()
            _TAIL_REPAIRS_TOTAL.inc()
            telemetry.count("journal.tail_repaired")
        self._lock = threading.Lock()
        self._unsynced = 0
        self.appended = 0
        self.fsyncs = 0
        #: Batched fsyncs run here, off the appender's (event loop's)
        #: thread; flush/close/checkpoint still fsync inline for a hard
        #: durability point.
        self._sync_wanted = threading.Event()
        self._sync_stop = False
        self._sync_thread = threading.Thread(
            target=self._sync_loop, name="journal-fsync", daemon=True
        )
        self._sync_thread.start()

    # -- record builders ----------------------------------------------------------

    def admit(
        self,
        key: str,
        kind: str,
        request: dict,
        *,
        trace: "str | None" = None,
    ) -> int:
        """Journal an accepted job; returns its sequence number.

        ``trace`` records the admitting request's trace id, so a replay
        after a crash can re-enter the original trace context — the
        replayed completion correlates with the admit that caused it,
        even across process lives.
        """
        with self._lock:
            seq = self.next_seq
            self.next_seq += 1
            self._append(
                {
                    "op": "admit",
                    "seq": seq,
                    "key": key,
                    "kind": kind,
                    "request": request,
                    "trace": trace,
                }
            )
        return seq

    def complete(
        self,
        seq: int,
        key: str,
        status: str,
        *,
        result: "dict | None" = None,
        error: "str | None" = None,
        error_type: "str | None" = None,
        shard: "str | None" = None,
        replayed: bool = False,
        trace: "str | None" = None,
    ) -> None:
        """Journal a job outcome (``ok``/``error``/``shed``).

        ``shard`` records the lane that produced the outcome even when
        there is no result dict to carry it (error/shed completions) —
        recovery needs it to exempt faulted-lane outcomes from strict
        replay verification.  ``trace`` carries the originating request's
        trace id (recovery re-stamps the admit's trace on replayed
        completions).
        """
        if status not in ("ok", "error", "shed"):
            raise ConfigurationError(f"unknown complete status {status!r}")
        with self._lock:
            self._append(
                {
                    "op": "complete",
                    "seq": seq,
                    "key": key,
                    "status": status,
                    "result": result,
                    "error": error,
                    "error_type": error_type,
                    "shard": shard,
                    "replayed": replayed,
                    "trace": trace,
                }
            )

    def checkpoint(self, checkpoint_id: str) -> None:
        """Fsync everything journaled so far, then mark the cut.

        The fsync is the checkpoint's durability point: the service calls
        this before it publishes the checkpoint's manifest, so every
        completion the manifest names is on disk first.  The id-only
        marker after it is an ordinary record that rides the next batched
        fsync.
        """
        with self._lock:
            self._fsync()
            self._append({"op": "checkpoint", "checkpoint": checkpoint_id})

    # -- plumbing -----------------------------------------------------------------

    def _append(self, record: dict) -> None:
        self._file.write(_frame(record))
        self._file.flush()
        self.appended += 1
        self._unsynced += 1
        _APPENDS_TOTAL.inc(op=record["op"])
        if self._unsynced >= self.fsync_every:
            # Hand the sync to the writer thread: the appender (often
            # the service's event loop) never blocks on the disk.
            self._sync_wanted.set()

    def _sync_loop(self) -> None:
        while True:
            self._sync_wanted.wait()
            with self._lock:
                self._sync_wanted.clear()
                if self._sync_stop:
                    return
                pending = self._unsynced
                fd = None if self._file.closed else self._file.fileno()
            if fd is None or pending == 0:
                continue
            start = time.perf_counter()
            os.fsync(fd)
            _FSYNC_SECONDS.observe(time.perf_counter() - start)
            with self._lock:
                # Records appended *during* the fsync may or may not have
                # made it down; count them as still unsynced.
                self._unsynced = max(0, self._unsynced - pending)
                self.fsyncs += 1

    def _halt_sync_thread(self) -> None:
        with self._lock:
            self._sync_stop = True
        self._sync_wanted.set()
        self._sync_thread.join(timeout=10.0)

    def _fsync(self) -> None:
        if self._unsynced == 0 or self._file.closed:
            return
        start = time.perf_counter()
        os.fsync(self._file.fileno())
        _FSYNC_SECONDS.observe(time.perf_counter() - start)
        self._unsynced = 0
        self.fsyncs += 1

    def flush(self) -> None:
        """Force any batched records down to the disk."""
        with self._lock:
            self._fsync()

    def close(self) -> None:
        self._halt_sync_thread()
        with self._lock:
            if not self._file.closed:
                self._fsync()
                self._file.close()

    def abandon(self) -> None:
        """Close the handle with no final fsync — the crash-simulation
        path (:meth:`FleetService.abort`); whatever the OS already has is
        whatever recovery gets."""
        self._halt_sync_thread()
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
