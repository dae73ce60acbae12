"""Write-ahead journal: CRC framing, torn tails, fsync batching, seq resume."""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigurationError, JournalError
from repro.service import Journal, read_journal
from repro.service import journal as journal_module


def _path(tmp_path):
    return tmp_path / "journal.jsonl"


def test_records_round_trip_through_framing(tmp_path):
    with Journal(_path(tmp_path)) as journal:
        seq = journal.admit("key-1", "send", {"device_id": "dev-1"})
        journal.complete(seq, "key-1", "ok", result={"shard": "shard-0"})
        journal.checkpoint("ckpt-00000002")
    records, torn = read_journal(_path(tmp_path))
    assert torn == 0
    assert [r["op"] for r in records] == ["admit", "complete", "checkpoint"]
    assert records[0]["request"] == {"device_id": "dev-1"}
    assert records[1]["status"] == "ok"
    assert records[2] == {"op": "checkpoint", "checkpoint": "ckpt-00000002"}


def test_every_line_carries_a_valid_crc(tmp_path):
    with Journal(_path(tmp_path)) as journal:
        journal.admit("k", "send", {"device_id": "d"})
    line = _path(tmp_path).read_text().splitlines()[0]
    import zlib

    crc_hex, body = line.split(" ", 1)
    assert int(crc_hex, 16) == zlib.crc32(body.encode())


def test_torn_tail_is_tolerated(tmp_path):
    with Journal(_path(tmp_path)) as journal:
        journal.admit("k1", "send", {"device_id": "d"})
        journal.admit("k2", "send", {"device_id": "d"})
    # The crash signature: a final line cut mid-write.
    with open(_path(tmp_path), "a") as handle:
        handle.write('0badc0de {"op": "adm')
    records, torn = read_journal(_path(tmp_path))
    assert len(records) == 2
    assert torn == 1


def test_reopen_after_torn_tail_repairs_before_appending(tmp_path):
    """The second-restart regression: appending after a torn tail must
    not concatenate onto the fragment — that would turn one tolerated
    torn line into corruption-followed-by-valid-records, and the restart
    after next would refuse to boot."""
    with Journal(_path(tmp_path)) as journal:
        journal.admit("k1", "send", {"device_id": "d"})
    with open(_path(tmp_path), "a") as handle:
        handle.write('0badc0de {"op": "adm')  # crash cut a line mid-write
    # First restart: the torn fragment is truncated before any append.
    with Journal(_path(tmp_path)) as revived:
        assert revived.repaired_tail
        assert revived.next_seq == 2
        revived.admit("k2", "send", {"device_id": "d"})
    # Second restart: the journal reads clean end to end.
    records, torn = read_journal(_path(tmp_path))
    assert torn == 0
    assert [r["key"] for r in records] == ["k1", "k2"]
    with Journal(_path(tmp_path)) as third:
        assert not third.repaired_tail
        assert third.next_seq == 3


def test_reopen_terminates_a_record_that_only_lost_its_newline(tmp_path):
    with Journal(_path(tmp_path)) as journal:
        journal.admit("k1", "send", {"device_id": "d"})
        journal.admit("k2", "send", {"device_id": "d"})
    raw = _path(tmp_path).read_bytes()
    _path(tmp_path).write_bytes(raw[:-1])  # the crash ate only the "\n"
    with Journal(_path(tmp_path)) as revived:
        assert revived.repaired_tail
        revived.admit("k3", "send", {"device_id": "d"})
    records, torn = read_journal(_path(tmp_path))
    assert torn == 0
    assert [r["key"] for r in records] == ["k1", "k2", "k3"]


def test_a_torn_tail_cut_mid_character_is_an_ordinary_torn_tail(tmp_path):
    """A crash can cut a line inside a multi-byte character, leaving bytes
    that are not UTF-8: the reader works on bytes, so that fragment is a
    torn tail like any other, not a decode error that stops a restart."""
    with Journal(_path(tmp_path)) as journal:
        journal.admit("k1", "send", {"device_id": "d"})
    with open(_path(tmp_path), "ab") as handle:
        handle.write(b'0badc0de {"op":\xff\xfe')
    records, torn = read_journal(_path(tmp_path))
    assert [r["key"] for r in records] == ["k1"]
    assert torn == 1
    with Journal(_path(tmp_path)) as revived:
        assert revived.repaired_tail
        assert revived.torn_tail == 1
        revived.admit("k2", "send", {"device_id": "d"})
    records, torn = read_journal(_path(tmp_path))
    assert torn == 0
    assert [r["key"] for r in records] == ["k1", "k2"]


def test_a_non_utf8_line_before_a_valid_record_raises(tmp_path):
    with Journal(_path(tmp_path)) as journal:
        journal.admit("k1", "send", {"device_id": "d"})
    planted = b'0badc0de {"op":\xff\xfe\n' + _path(tmp_path).read_bytes()
    _path(tmp_path).write_bytes(planted)
    with pytest.raises(JournalError, match="corrupt record at line 1"):
        read_journal(_path(tmp_path))
    with pytest.raises(JournalError, match="corrupt record at line 1"):
        Journal(_path(tmp_path))
    assert _path(tmp_path).read_bytes() == planted  # never repaired over


def test_corruption_before_a_valid_record_raises(tmp_path):
    with Journal(_path(tmp_path)) as journal:
        journal.admit("k1", "send", {"device_id": "d"})
        journal.admit("k2", "send", {"device_id": "d"})
    lines = _path(tmp_path).read_text().splitlines(keepends=True)
    first = lines[0]
    lines[0] = first[:12] + chr(ord(first[12]) ^ 1) + first[13:]
    _path(tmp_path).write_text("".join(lines))
    with pytest.raises(JournalError, match="corrupt record at line 1"):
        read_journal(_path(tmp_path))


def test_missing_file_reads_empty(tmp_path):
    records, torn = read_journal(_path(tmp_path))
    assert records == [] and torn == 0


def test_fsync_batches_and_flush_forces(tmp_path, monkeypatch):
    monkeypatch.setattr(journal_module, "FSYNC_EVERY", 3)
    journal = Journal(_path(tmp_path))
    try:
        journal.admit("k1", "send", {})
        journal.admit("k2", "send", {})
        assert journal.fsyncs == 0  # below the batch threshold
        journal.admit("k3", "send", {})
        # Batched syncs run on the writer thread, off the appender.
        deadline = time.monotonic() + 5.0
        while journal.fsyncs < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert journal.fsyncs == 1  # batch boundary
        journal.admit("k4", "send", {})
        journal.flush()  # inline: a hard durability point
        assert journal.fsyncs == 2
        journal.flush()  # nothing pending: no extra fsync
        assert journal.fsyncs == 2
    finally:
        journal.close()


def test_checkpoint_marker_always_fsyncs(tmp_path, monkeypatch):
    monkeypatch.setattr(journal_module, "FSYNC_EVERY", 100)
    journal = Journal(_path(tmp_path))
    try:
        journal.admit("k", "send", {})
        assert journal.fsyncs == 0
        journal.checkpoint("ckpt-00000002")
        assert journal.fsyncs == 1
    finally:
        journal.close()


def test_next_seq_resumes_across_lives(tmp_path):
    with Journal(_path(tmp_path)) as journal:
        first = journal.admit("k1", "send", {})
        second = journal.admit("k2", "receive", {})
    assert (first, second) == (1, 2)
    with Journal(_path(tmp_path)) as revived:
        assert revived.next_seq == 3
        assert revived.admit("k3", "send", {}) == 3


def test_abandon_skips_the_final_fsync_but_flushed_records_survive(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(journal_module, "FSYNC_EVERY", 100)
    journal = Journal(_path(tmp_path))
    journal.admit("k", "send", {"device_id": "d"})
    journal.abandon()
    assert journal.fsyncs == 0
    records, _ = read_journal(_path(tmp_path))
    assert len(records) == 1


def test_unknown_complete_status_rejected(tmp_path):
    with Journal(_path(tmp_path)) as journal:
        with pytest.raises(ConfigurationError, match="unknown complete"):
            journal.complete(1, "k", "maybe")
