"""The exactly-once ledger: what the service keeps so each request runs once.

A send is an NBTI stress and the aging it leaves is permanent, so a
duplicate request must never reach silicon twice.  :class:`Ledger` is
the one owner of that contract (docs/service.md "Durability &
recovery"):

- the idempotency cache — key → completed outcome;
- the in-flight latch — key → future of the running job, so a
  concurrent retry awaits the first execution instead of re-running it;
- each key's owning trace, so a replay correlates with the request that
  did the work;
- the completed-seq frontier — journaled seqs whose silicon effects the
  host holds, the next checkpoint's ``completed_seqs``;
- the optional write-ahead :class:`~repro.service.journal.Journal` and
  the :class:`~repro.service.recovery.RecoveryReport` of the boot that
  built it.

:func:`journal_outcome` is the only writer of ``complete`` records:
live completions and crash-recovery replay both go through it.
"""

from __future__ import annotations

import asyncio
import time

from .. import telemetry
from ..errors import AdmissionError, ServiceStoppedError
from ..telemetry import context as trace_ctx

__all__ = ["Ledger", "journal_outcome", "outcome_status"]


def outcome_status(outcome) -> str:
    """``shed``, ``error`` or ``ok`` for a job outcome.

    Sheds (refused at admission or reroute, or drained at stop) never
    touched a device.  Real errors *may* have aged silicon (a failed
    receive still burned captures), so they are kept like results.
    """
    if isinstance(outcome, (AdmissionError, ServiceStoppedError)):
        return "shed"
    return "error" if isinstance(outcome, BaseException) else "ok"


def journal_outcome(journal, seq: int, key: str, outcome, **fields) -> str:
    """Append ``outcome``'s ``complete`` record; returns its status.

    ``fields`` carry provenance (``shard``, ``trace``, ``replayed``).
    ``shard`` is recorded even on error records, which have no result
    dict to carry it, so recovery can exempt faulted-lane errors from
    strict replay verification.
    """
    status = outcome_status(outcome)
    if status == "ok":
        fields["result"] = outcome.to_dict()
    elif status == "error":
        fields.update(error=str(outcome), error_type=type(outcome).__name__)
    journal.complete(seq, key, status, **fields)
    return status


class Ledger:
    """Idempotency, in-flight latching, the frontier and the journal."""

    def __init__(self, journal=None, report=None):
        #: ``None`` keeps the ledger in memory (no journal_dir).
        self.journal = journal
        self.report = report
        #: Idempotency key → completed outcome (result or exception).
        self.cache: "dict[str, object]" = {}
        #: Idempotency key → future of the in-flight job.
        self.inflight: "dict[str, asyncio.Future]" = {}
        #: Idempotency key → trace id of the execution that owns (or will
        #: own) the cached outcome.
        self.traces: "dict[str, str]" = {}
        #: Journaled seqs whose silicon effects the host now holds.
        self.completed_seqs: "set[int]" = set()

    def known(self, key) -> "asyncio.Future | None":
        """The outcome of an already-seen key, or ``None``.

        A completed key comes back as a resolved future; a key in flight
        returns the running job's future, so the caller latches onto it
        instead of touching silicon a second time.
        """
        if key not in self.cache:
            return self.inflight.get(key)
        future = asyncio.get_running_loop().create_future()
        outcome = self.cache[key]
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
        return future

    def admit(self, job, key) -> None:
        """Take ownership of a job before it enters a queue.

        Records the key's owning trace, writes the ``admit`` record ahead
        of execution (a crash between admit and complete replays the job
        on restart), and latches the key onto the job's future.
        """
        if key is not None and job.trace_id is not None:
            self.traces[key] = job.trace_id
        if self.journal is not None:
            # Auto keys embed the sequence number, which resumes past
            # prior lives, so they never collide with a previous run's.
            job.key = key if key is not None else f"auto-{self.journal.next_seq}"
            t0 = time.perf_counter()
            job.seq = self.journal.admit(
                job.key, job.kind, job.request.to_dict(), trace=job.trace_id
            )
            job.phases["journal_fsync"] = time.perf_counter() - t0
        if key is not None:
            self.inflight[key] = job.future

    def complete(self, job, outcome) -> str:
        """Record a job's outcome; returns its status.

        Sheds are journaled as such and kept out of the cache, so a
        client retry runs fresh; results and errors are journaled,
        cached and join the frontier.
        """
        status = outcome_status(outcome)
        if self.journal is not None and job.seq is not None:
            t0 = time.perf_counter()
            with trace_ctx.trace_context(
                job.trace_id, job.parent_span_id, inherit=False
            ), telemetry.trace("service.journal", seq=job.seq, status=status):
                journal_outcome(
                    self.journal,
                    job.seq,
                    job.key,
                    outcome,
                    shard=job.shard,
                    trace=job.trace_id,
                )
            if status != "shed":
                self.completed_seqs.add(job.seq)
            if job.phases is not None:
                job.phases["journal_fsync"] = job.phases.get(
                    "journal_fsync", 0.0
                ) + (time.perf_counter() - t0)
        key = job.request.idempotency_key
        if key is not None and status != "shed":
            self.cache[key] = outcome
        self.release(job)
        return status

    def release(self, job) -> None:
        """Drop the job's in-flight latch (it completed or never will)."""
        key = job.request.idempotency_key
        if key is not None and self.inflight.get(key) is job.future:
            del self.inflight[key]
