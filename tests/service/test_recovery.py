"""Checkpoint/restore and crash-restart replay: the durability contract.

The differential twin of the ``service.crash_recovery`` oracle: these
tests pin each recovery semantic individually — snapshot/restore
bit-identity, incremental checkpoints that re-serialise only touched
devices, LRU eviction transparency, replay of the crash window,
shed skipping, divergence refusal, and idempotent resubmission after a
graceful restart.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import ReceiveRequest, SendRequest
from repro.errors import JournalError, ServiceError, ServiceStoppedError
from repro.service import (
    FleetHost,
    FleetService,
    Journal,
    Shard,
    ServiceConfig,
    read_journal,
    recover_components,
)
from repro.service.journal import _frame
from repro.service.recovery import (
    KEEP_CHECKPOINTS,
    complete_checkpoints,
    journal_path,
    latest_checkpoint,
    prune_checkpoints,
    results_digest,
)
from repro.service.queue import Job

from ._hold import hold_lanes

SEED = 31


def _host(tmp_path=None, **overrides) -> FleetHost:
    base = dict(
        scheme=ServiceConfig().resolved_scheme(),
        seed=SEED,
        archive_dir=str(tmp_path / "archive") if tmp_path else None,
    )
    base.update(overrides)
    return FleetHost(**base)


def _execute(host: FleetHost, requests) -> list:
    shard = Shard("lane", host)
    results = []
    for request in requests:
        job = Job(
            kind="send" if isinstance(request, SendRequest) else "receive",
            request=request,
            future=None,
        )
        outcomes, _reason = shard.execute_batch([job])
        outcome = outcomes[0][1]
        if isinstance(outcome, BaseException):
            raise outcome
        results.append(outcome)
    return results


def _traffic(n: int):
    for index in range(n):
        device = f"dev-{index}"
        yield SendRequest(device_id=device, message=f"m{index}".encode())
        yield ReceiveRequest(device_id=device)


class TestSnapshotRestore:
    def test_restore_is_bit_identical(self, tmp_path):
        host = _host()
        _execute(host, _traffic(3))
        manifest = host.snapshot(tmp_path / "ckpt", extra={"checkpoint": "c"})
        assert manifest["devices"] and manifest["checkpoint"] == "c"

        twin = _host()
        restored = twin.restore(tmp_path / "ckpt")
        assert restored["checkpoint"] == "c"
        assert twin.n_devices == host.n_devices
        assert twin.state_digest() == host.state_digest()

    def test_restore_rejects_a_mismatched_fleet(self, tmp_path):
        host = _host()
        _execute(host, _traffic(1))
        host.snapshot(tmp_path / "ckpt")
        with pytest.raises(JournalError, match="seed"):
            _host(seed=SEED + 1).restore(tmp_path / "ckpt")

    def test_restore_rejects_an_unknown_format(self, tmp_path):
        host = _host()
        _execute(host, _traffic(1))
        host.snapshot(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "somebody-elses-checkpoint"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(JournalError, match="not a fleet checkpoint"):
            _host().restore(tmp_path / "ckpt")

    def test_lru_eviction_is_transparent(self, tmp_path):
        capped = _host(tmp_path, max_resident=2)
        uncapped = _host()
        # All sends, then all receives: every receive touches a device
        # the send wave already pushed out of residency.
        requests = sorted(
            _traffic(5), key=lambda r: isinstance(r, ReceiveRequest)
        )
        capped_results = _execute(capped, requests)
        uncapped_results = _execute(uncapped, requests)

        assert capped.n_resident <= 2
        assert capped.n_devices == 5
        assert capped.evicted > 0 and capped.rehydrated > 0
        # Eviction+rehydration never changes a single device bit.
        assert capped.state_digest() == uncapped.state_digest()
        for mine, theirs in zip(capped_results, uncapped_results):
            if hasattr(mine, "state_digest"):
                assert mine.state_digest == theirs.state_digest
                assert mine.message == theirs.message

    def test_a_batch_never_evicts_its_own_devices(self, tmp_path):
        """One receive group over 4 devices on a 2-resident host: the
        batch pins all four, so staging the third cannot archive the
        first while the capture is about to age it."""
        capped = _host(tmp_path, max_resident=2)
        uncapped = _host()
        devices = [f"dev-{index}" for index in range(4)]
        outcomes = {}
        for host in (capped, uncapped):
            _execute(
                host,
                [
                    SendRequest(device_id=d, message=d.encode())
                    for d in devices
                ],
            )
            jobs = [
                Job(
                    kind="receive",
                    request=ReceiveRequest(device_id=d),
                    future=None,
                )
                for d in devices
            ]
            batch, _reason = Shard("lane", host).execute_batch(jobs)
            outcomes[id(host)] = [outcome.to_dict() for _, outcome in batch]

        assert capped.n_resident <= 2
        assert capped.state_digest() == uncapped.state_digest()
        assert outcomes[id(capped)] == outcomes[id(uncapped)]

    def test_second_snapshot_rewrites_only_touched_devices(self, tmp_path):
        host = _host()
        _execute(host, _traffic(4))
        host.snapshot(tmp_path / "a")
        assert (host.checkpoint_written, host.checkpoint_reused) == (4, 0)
        _execute(host, [SendRequest(device_id="dev-1", message=b"again")])
        manifest = host.snapshot(tmp_path / "b")
        assert (host.checkpoint_written, host.checkpoint_reused) == (5, 3)
        for device_id in manifest["devices"]:
            name = host._device_file(device_id)
            shared = (tmp_path / "a" / name).samefile(tmp_path / "b" / name)
            assert shared == (device_id != "dev-1"), device_id

        # The same history, checkpointed once from scratch.
        scratch = _host()
        _execute(scratch, _traffic(4))
        _execute(scratch, [SendRequest(device_id="dev-1", message=b"again")])
        scratch.snapshot(tmp_path / "scratch")
        assert scratch.checkpoint_written == 4
        incremental, full = _host(), _host()
        incremental.restore(tmp_path / "b")
        full.restore(tmp_path / "scratch")
        assert incremental.state_digest() == full.state_digest()
        assert incremental.state_digest() == host.state_digest()

    def test_deleting_the_older_checkpoint_keeps_the_newer_restorable(
        self, tmp_path
    ):
        import shutil

        origin = _host()
        _execute(origin, _traffic(3))
        origin.snapshot(tmp_path / "a")
        # A restarted host: every device cold in "a" until touched.
        host = _host()
        host.restore(tmp_path / "a")
        _execute(host, [ReceiveRequest(device_id="dev-0")])
        host.snapshot(tmp_path / "b")
        assert (host.checkpoint_written, host.checkpoint_reused) == (1, 2)
        shutil.rmtree(tmp_path / "a")

        twin = _host()
        twin.restore(tmp_path / "b")
        assert twin.state_digest() == host.state_digest()
        # The live host needs nothing from the deleted directory either:
        # its cold devices now rehydrate from "b".
        _execute(host, [ReceiveRequest(device_id="dev-2")])
        host.snapshot(tmp_path / "c")
        twin = _host()
        twin.restore(tmp_path / "c")
        assert twin.state_digest() == host.state_digest()

    def test_a_same_id_recut_leaves_linked_files_unchanged(self, tmp_path):
        host = _host()
        _execute(host, _traffic(3))
        host.snapshot(tmp_path / "a")
        digest_a = host.state_digest()
        _execute(host, [ReceiveRequest(device_id="dev-0")])
        host.snapshot(tmp_path / "b")
        bytes_a = {
            path.name: path.read_bytes() for path in (tmp_path / "a").iterdir()
        }

        # A restart restores "b" (two of whose files are "a"'s inodes),
        # touches one of those devices and re-cuts "b" under the same id.
        restarted = _host()
        restarted.restore(tmp_path / "b")
        _execute(restarted, [ReceiveRequest(device_id="dev-1")])
        restarted.snapshot(tmp_path / "b")

        assert {
            path.name: path.read_bytes() for path in (tmp_path / "a").iterdir()
        } == bytes_a
        older = _host()
        older.restore(tmp_path / "a")
        assert older.state_digest() == digest_a
        newer = _host()
        newer.restore(tmp_path / "b")
        assert newer.state_digest() == restarted.state_digest()

    def test_an_evicted_then_touched_device_is_written_again(self, tmp_path):
        capped = _host(tmp_path, max_resident=2)
        uncapped = _host()
        first = [SendRequest(device_id=f"dev-{i}", message=b"x") for i in (0, 1)]
        # dev-2's send evicts dev-0; the receive rehydrates and ages it.
        later = [
            SendRequest(device_id="dev-2", message=b"y"),
            ReceiveRequest(device_id="dev-0"),
        ]
        for host, root in ((capped, "capped"), (uncapped, "uncapped")):
            _execute(host, first)
            host.snapshot(tmp_path / root / "a")
            _execute(host, later)
            host.snapshot(tmp_path / root / "b")
        assert capped.evicted >= 2 and capped.rehydrated == 1
        name = capped._device_file("dev-0")
        ckpt = tmp_path / "capped"
        assert not (ckpt / "a" / name).samefile(ckpt / "b" / name)
        # dev-0 and dev-2 serialised again; dev-1 linked from the archive.
        assert (capped.checkpoint_written, capped.checkpoint_reused) == (4, 1)

        restored = _host()
        restored.restore(ckpt / "b")
        assert restored.state_digest() == uncapped.state_digest()


class TestPayloadInDeviceFile:
    """A device's staged payload lives with the rest of its state: in RAM
    while it is resident, in its device file while it is cold."""

    def test_the_manifest_lists_devices_and_holds_no_payloads(self, tmp_path):
        host = _host()
        _execute(host, _traffic(3))
        manifest = host.snapshot(tmp_path / "ckpt")
        on_disk = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert on_disk == manifest
        assert sorted(manifest["devices"]) == ["dev-0", "dev-1", "dev-2"]
        assert "payloads" not in manifest and "use_firmware" not in manifest
        assert manifest["version"] == 3

    def test_the_payload_map_holds_resident_devices_only(self, tmp_path):
        capped = _host(tmp_path, max_resident=2)
        shard = Shard("lane", capped)
        for index in range(6):
            jobs = [
                Job(kind="send", request=request, future=None)
                for request in (
                    SendRequest(device_id=f"dev-{index}-{k}", message=b"m")
                    for k in range(3)
                )
            ]
            shard.execute_batch(jobs)
            assert set(capped._payloads) <= set(capped._channels)
            assert capped.n_resident <= 2
        assert capped.n_devices == 18 and capped.evicted == 16

    def test_an_archived_device_receives_like_an_uncapped_twin(
        self, tmp_path
    ):
        capped = _host(tmp_path, max_resident=1)
        uncapped = _host()
        sends = [
            SendRequest(device_id=f"dev-{i}", message=b"m%d" % i)
            for i in range(2)
        ]
        receive = ReceiveRequest(device_id="dev-0")
        for host in (capped, uncapped):
            _execute(host, sends)
        assert "dev-0" in capped._cold and "dev-0" not in capped._payloads
        [mine] = _execute(capped, [receive])
        [theirs] = _execute(uncapped, [receive])
        assert mine.raw_ber is not None  # the file held the payload
        assert mine.to_dict() == theirs.to_dict()
        assert capped.state_digest() == uncapped.state_digest()

    def test_a_receive_for_an_unknown_device_creates_none(self):
        host = _host()
        _execute(host, _traffic(1))
        job = Job(
            kind="receive",
            request=ReceiveRequest(device_id="ghost"),
            future=None,
        )
        [(_, outcome)] = Shard("lane", host).execute_batch([job])[0]
        assert isinstance(outcome, ServiceError)
        assert "no staged message" in str(outcome)
        assert host.n_devices == 1 and "ghost" not in host._payloads

    def test_restore_drops_the_payloads_of_devices_it_makes_cold(
        self, tmp_path
    ):
        host = _host()
        _execute(host, _traffic(2))
        host.snapshot(tmp_path / "ckpt")
        _execute(host, [SendRequest(device_id="dev-0", message=b"later")])
        host.restore(tmp_path / "ckpt")
        assert host._payloads == {} and host.n_resident == 0
        twin = _host()
        twin.restore(tmp_path / "ckpt")
        assert host.state_digest() == twin.state_digest()
        [mine] = _execute(host, [ReceiveRequest(device_id="dev-0")])
        assert mine.message == b"m0"  # the checkpoint's payload, not RAM's

    def test_a_new_payload_rewrites_a_clean_device_file(self, tmp_path):
        host = _host()
        _execute(host, _traffic(2))
        host.snapshot(tmp_path / "a")
        bits = host.payload("dev-0").copy()
        bits[0] ^= 1
        host.store_payload("dev-0", bits)
        host.snapshot(tmp_path / "b")
        assert (host.checkpoint_written, host.checkpoint_reused) == (3, 1)
        twin = _host()
        twin.restore(tmp_path / "b")
        assert twin.payload("dev-0").tobytes() == bits.tobytes()


class TestPrune:
    @staticmethod
    def _cut(host, journal_dir, name):
        host.snapshot(journal_dir / "checkpoints" / name)
        return prune_checkpoints(journal_dir)

    def test_only_the_newest_two_complete_checkpoints_stay(self, tmp_path):
        host = _host()
        for index in range(4):
            _execute(host, _traffic(index + 1))
            pruned = self._cut(host, tmp_path, f"ckpt-{index:08d}")
            assert [path.name for path in pruned] == (
                [f"ckpt-{index - 2:08d}"] if index >= 2 else []
            )
        kept = complete_checkpoints(tmp_path)
        assert len(kept) == KEEP_CHECKPOINTS
        assert [path.name for path in kept] == [
            "ckpt-00000002",
            "ckpt-00000003",
        ]
        # The kept checkpoints shared inodes with pruned ones; every
        # device file they name is still there.
        for path in kept:
            _host().restore(path)
        twin = _host()
        twin.restore(kept[-1])
        assert twin.state_digest() == host.state_digest()

    def test_interrupted_snapshots_newer_than_the_kept_ones_stay(
        self, tmp_path
    ):
        host = _host()
        _execute(host, _traffic(1))
        root = tmp_path / "checkpoints"
        (root / "ckpt-00000000").mkdir(parents=True)  # older, incomplete
        self._cut(host, tmp_path, "ckpt-00000001")
        (root / "ckpt-00000002").mkdir()  # between the kept two
        (root / "ckpt-00000009").mkdir()  # newer than the newest
        pruned = self._cut(host, tmp_path, "ckpt-00000003")
        assert [path.name for path in pruned] == ["ckpt-00000000"]
        assert prune_checkpoints(tmp_path) == []
        assert sorted(path.name for path in root.iterdir()) == [
            "ckpt-00000001",
            "ckpt-00000002",
            "ckpt-00000003",
            "ckpt-00000009",
        ]
        assert latest_checkpoint(tmp_path).name == "ckpt-00000003"

    def test_a_checkpointing_service_keeps_two_and_recovers_from_them(
        self, tmp_path
    ):
        config = _config(tmp_path, checkpoint_every=2)

        async def life():
            service = FleetService(config)
            await service.start()
            for index in range(5):
                for request in _keyed_pair(index):
                    await service.submit(request)
            state = service.host.state_digest()
            await service.stop()
            return state, service.checkpoints

        state, cut = asyncio.run(life())
        assert cut >= 4
        assert len(complete_checkpoints(config.journal_dir)) == 2
        host, ledger = recover_components(config)
        ledger.journal.close()
        assert host.state_digest() == state

    def test_a_failed_auto_checkpoint_keeps_the_service_serving(
        self, tmp_path, monkeypatch, caplog
    ):
        """A worker's automatic cut that raises is logged, not fatal: the
        lane keeps serving, and the next batch cuts the checkpoint."""
        config = _config(tmp_path, checkpoint_every=1)
        snapshot = FleetHost.snapshot
        failed = []

        def fails_once(self, directory, **kwargs):
            if not failed:
                failed.append(directory)
                raise OSError("no space left on device")
            return snapshot(self, directory, **kwargs)

        monkeypatch.setattr(FleetHost, "snapshot", fails_once)

        async def life():
            service = FleetService(config)
            await service.start()
            results = []
            for index in range(3):
                for request in _keyed_pair(index):
                    results.append(await service.submit(request))
            cut = service.checkpoints
            state = service.host.state_digest()
            await service.stop()
            return results, cut, state

        with caplog.at_level("ERROR", logger="repro.service.server"):
            # Bounded: a lane killed by its cut would hang its queue.
            results, cut, state = asyncio.run(asyncio.wait_for(life(), 60))
        assert [r.device_id for r in results] == [
            f"dev-{index}" for index in range(3) for _ in range(2)
        ]
        assert [r.message for r in results[1::2]] == [b"m0", b"m1", b"m2"]
        assert len(failed) == 1
        # Six one-job batches, each followed by a cut: the first failed.
        assert cut == 5
        logged = [r for r in caplog.records if r.exc_info is not None]
        assert len(logged) == 1
        assert isinstance(logged[0].exc_info[1], OSError)
        host, ledger = recover_components(config)
        ledger.journal.close()
        assert host.state_digest() == state


def _config(tmp_path, **overrides) -> ServiceConfig:
    base = dict(shards=1, seed=SEED, journal_dir=str(tmp_path / "jd"))
    base.update(overrides)
    return ServiceConfig(**base)


def _keyed_pair(index: int):
    device = f"dev-{index}"
    return (
        SendRequest(
            device_id=device,
            message=f"m{index}".encode(),
            idempotency_key=f"t-{index}-send",
        ),
        ReceiveRequest(device_id=device, idempotency_key=f"t-{index}-recv"),
    )


class TestCrashRestart:
    def test_graceful_restart_serves_everything_from_cache(self, tmp_path):
        async def first_life():
            service = FleetService(_config(tmp_path))
            await service.start()
            results = []
            for index in range(2):
                send, receive = _keyed_pair(index)
                await service.submit(send)
                results.append(await service.submit(receive))
            await service.stop()  # leaves a final checkpoint behind
            return results

        async def second_life():
            service = FleetService(_config(tmp_path))
            report = service.ledger.report
            await service.start()
            results = []
            for index in range(2):
                send, receive = _keyed_pair(index)
                await service.submit(send)
                results.append(await service.submit(receive))
            executed = service.completed
            await service.stop()
            return results, report, executed

        first = asyncio.run(first_life())
        second, report, executed = asyncio.run(second_life())
        # Everything predates the checkpoint: cached, nothing re-executed.
        assert report.checkpoint is not None
        assert report.cached == 4 and report.replayed == 0
        assert executed == 0
        for a, b in zip(first, second):
            assert a.to_dict() == b.to_dict()

    def test_crash_window_admits_are_replayed(self, tmp_path):
        config = _config(tmp_path)

        async def crash():
            service = FleetService(config)
            await service.start()
            send, receive = _keyed_pair(0)
            await service.submit(send)
            await service.submit(receive)
            # The crash window: admitted on disk, never executed.
            tail_send, _ = _keyed_pair(1)
            service.ledger.journal.admit(
                "t-1-send", "send", tail_send.to_dict()
            )
            await service.abort()

        asyncio.run(crash())
        host, ledger = recover_components(config)
        ledger.journal.close()
        report = ledger.report
        assert report.admitted == 3
        assert report.replayed == 1  # the dangling admit re-executed
        assert report.verified == 2  # completed ops replay digest-equal
        assert "t-1-send" in ledger.cache
        # The replay appended its own completion: a second recovery of
        # the same journal has nothing left to replay.
        host2, ledger2 = recover_components(config)
        ledger2.journal.close()
        second = ledger2.report
        assert second.replayed == 0
        assert host2.state_digest() == host.state_digest()

    def test_shed_ops_are_skipped_and_stay_uncached(self, tmp_path):
        config = _config(tmp_path)
        send, _ = _keyed_pair(0)
        with Journal(journal_path(config.journal_dir)) as journal:
            seq = journal.admit("t-0-send", "send", send.to_dict())
            journal.complete(seq, "t-0-send", "shed")
        host, ledger = recover_components(config)
        ledger.journal.close()
        report = ledger.report
        assert report.shed == 1 and report.replayed == 0
        assert "t-0-send" not in ledger.cache  # a retry must run fresh
        assert host.n_devices == 0  # shed means no silicon was touched

    def test_cached_errors_resurface_on_resubmit(self, tmp_path):
        async def first_life():
            service = FleetService(_config(tmp_path))
            await service.start()
            with pytest.raises(ServiceError, match="no staged message"):
                await service.submit(
                    ReceiveRequest(
                        device_id="ghost", idempotency_key="ghost-recv"
                    )
                )
            await service.stop()

        async def second_life():
            service = FleetService(_config(tmp_path))
            await service.start()
            try:
                with pytest.raises(ServiceError, match="no staged message"):
                    await service.submit(
                        ReceiveRequest(
                            device_id="ghost", idempotency_key="ghost-recv"
                        )
                    )
                return service.completed
            finally:
                await service.stop()

        asyncio.run(first_life())
        assert asyncio.run(second_life()) == 0  # served from the cache

    def test_replay_divergence_is_refused(self, tmp_path):
        config = _config(tmp_path)

        async def life():
            service = FleetService(config)
            await service.start()
            send, _ = _keyed_pair(0)
            await service.submit(send)
            await service.abort()  # no checkpoint: replay must re-verify

        asyncio.run(life())
        path = journal_path(config.journal_dir)
        lines = path.read_text().splitlines(keepends=True)
        records, _ = read_journal(path)
        doctored = False
        for index, record in enumerate(records):
            if record["op"] == "complete" and record["status"] == "ok":
                record["result"]["payload_digest"] = "0" * 16
                lines[index] = _frame(record)
                doctored = True
        assert doctored
        path.write_text("".join(lines))
        with pytest.raises(JournalError, match="diverged"):
            recover_components(config)


def test_checkpoint_device_counts_reach_stats_and_metrics(tmp_path):
    from repro import metrics

    async def scenario():
        service = FleetService(_config(tmp_path))
        await service.start()
        for index in range(3):
            send, _ = _keyed_pair(index)
            await service.submit(send)
        await service.checkpoint()
        _, receive = _keyed_pair(0)
        await service.submit(receive)
        await service.checkpoint()
        durability = service.stats()["durability"]
        exposition = metrics.registry.expose()
        await service.stop()
        return durability, exposition

    durability, exposition = asyncio.run(scenario())
    # Three new devices, then the one read back; two linked unchanged.
    assert durability["checkpoint_devices_written"] == 4
    assert durability["checkpoint_devices_reused"] == 2
    for mode, count in (("written", 4), ("reused", 2)):
        line = f'repro_service_checkpoint_devices_total{{mode="{mode}"}} {count}'
        assert line in exposition.splitlines()


def test_checkpoint_needs_a_running_service(tmp_path):
    """Before ``start()`` and after ``stop()`` a checkpoint is refused
    with the service's own error, and nothing is written."""

    async def scenario():
        fresh = FleetService(_config(tmp_path / "fresh"))
        try:
            with pytest.raises(ServiceStoppedError):
                await fresh.checkpoint()
        finally:
            fresh.ledger.journal.close()
        stopped = FleetService(_config(tmp_path / "stopped"))
        await stopped.start()
        await stopped.stop()
        before = complete_checkpoints(stopped.config.journal_dir)
        with pytest.raises(ServiceStoppedError):
            await stopped.checkpoint()
        return before, complete_checkpoints(stopped.config.journal_dir)

    before, after = asyncio.run(scenario())
    assert after == before
    assert not complete_checkpoints(str(tmp_path / "fresh" / "jd"))


def _checkpointed_life(config, n: int = 3) -> None:
    """Keyed send/receive pairs with a checkpoint after each send, then a
    crash: the last receive completes after the newest checkpoint."""

    async def life():
        service = FleetService(config)
        await service.start()
        for index in range(n):
            send, receive = _keyed_pair(index)
            await service.submit(send)
            await service.checkpoint()
            await service.submit(receive)
        await service.abort()

    asyncio.run(life())


def _recovered(config) -> tuple:
    host, ledger = recover_components(config)
    ledger.journal.close()
    results = [
        outcome.to_dict()
        for outcome in ledger.cache.values()
        if not isinstance(outcome, BaseException)
    ]
    return host.state_digest(), results_digest(results), ledger.report


def test_recovery_parses_the_journal_once(tmp_path, monkeypatch):
    from repro.service import journal as journal_module

    config = _config(tmp_path)
    _checkpointed_life(config)
    raw = journal_path(config.journal_dir).read_bytes()
    n_lines = sum(1 for line in raw.splitlines() if line.strip())
    calls = []
    real = journal_module._unframe
    monkeypatch.setattr(
        journal_module, "_unframe", lambda line: calls.append(line) or real(line)
    )
    _state, _results, report = _recovered(config)
    assert report.cached == 5 and report.verified == 1
    assert len(calls) == n_lines


def test_checkpoint_makes_the_journal_durable_before_the_manifest(
    tmp_path, monkeypatch
):
    """Every completion a manifest names is fsynced before the manifest
    is published.  A power cut between the two steps must not leave a
    manifest naming seqs whose completions never reached the disk: the
    next boot would refuse with "checkpoint claims seq N completed"."""
    import os

    events = []
    real_fsync, real_replace = os.fsync, os.replace

    async def scenario():
        service = FleetService(_config(tmp_path))
        journal = service.ledger.journal
        await service.start()
        send, receive = _keyed_pair(0)
        await service.submit(send)
        await service.submit(receive)
        assert journal.fsyncs == 0  # four records, under the fsync batch

        def fsync(fd):
            if not journal._file.closed and fd == journal._file.fileno():
                events.append(("journal fsync", journal._unsynced))
            return real_fsync(fd)

        def replace(src, dst, *args, **kwargs):
            if str(dst).endswith("manifest.json"):
                events.append(("manifest", journal._unsynced))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        await service.checkpoint()
        await service.abort()

    asyncio.run(scenario())
    assert events[:2] == [("journal fsync", 4), ("manifest", 1)]


def test_markers_that_carry_completed_lists_recover_identically(tmp_path):
    """Journals written before markers held only the checkpoint id repeat
    the completed-seq list in every marker.  The field is ignored: such a
    journal recovers to the same fleet, results and report."""
    import shutil

    config = _config(tmp_path / "id-only")
    _checkpointed_life(config)
    legacy = _config(tmp_path / "legacy")
    shutil.copytree(config.journal_dir, legacy.journal_dir)
    path = journal_path(legacy.journal_dir)
    records, _ = read_journal(path)
    completed, lines = [], []
    for record in records:
        if record["op"] == "complete":
            completed.append(record["seq"])
        elif record["op"] == "checkpoint":
            record["completed"] = sorted(completed)
        lines.append(_frame(record))
    assert sum('"completed":[' in line for line in lines) == 3
    path.write_text("".join(lines))
    assert _recovered(legacy) == _recovered(config)


def test_stop_without_drain_journals_queued_jobs_as_shed(tmp_path):
    """A no-drain stop leaves nothing dangling: every queued job gets a
    journaled ``shed`` completion and a ServiceStoppedError, and recovery
    leaves the shed keys uncached.  A worker is cancelled only while it
    waits for a batch, so no dequeued job is ever left unrun."""
    config = _config(tmp_path, max_batch=1, queue_depth=16)

    async def scenario():
        service = FleetService(config)
        await service.start()
        hold_lanes(service, "shard-0")  # keep every job queued
        tasks = []
        for index in range(5):
            send, _ = _keyed_pair(index)
            tasks.append(asyncio.create_task(service.submit(send)))
        await asyncio.sleep(0.02)  # all admitted and queued
        await service.stop(drain=False)
        done, pending = await asyncio.wait(tasks, timeout=5)
        assert not pending, "a submitter hung on a no-drain stop"
        return await asyncio.gather(*tasks, return_exceptions=True)

    outcomes = asyncio.run(scenario())
    stopped = [o for o in outcomes if isinstance(o, ServiceStoppedError)]
    assert len(stopped) == 5

    records, _ = read_journal(journal_path(config.journal_dir))
    shed = [
        r for r in records if r["op"] == "complete" and r["status"] == "shed"
    ]
    assert len(shed) == 5

    host, ledger = recover_components(config)
    ledger.journal.close()
    report = ledger.report
    assert report.shed == 5
    assert report.replayed == 0
    for record in shed:
        assert record["key"] not in ledger.cache


def test_faulted_lane_error_completions_replay_unverified(tmp_path):
    """An error journaled by a faulted lane replays on the clean replay
    lane (where it may well succeed) without tripping the divergence
    check — the injector's fault schedule is not reproducible there."""
    config = _config(tmp_path, shards=2, fault_shards=("shard-1",))
    send = SendRequest(
        device_id="dev-0", message=b"m", idempotency_key="f-send"
    )
    legacy = SendRequest(
        device_id="dev-1", message=b"n", idempotency_key="f-legacy"
    )
    with Journal(journal_path(config.journal_dir)) as journal:
        seq = journal.admit("f-send", "send", send.to_dict())
        journal.complete(
            seq,
            "f-send",
            "error",
            error="injected: brownout during capture",
            error_type="CaptureFaultError",
            shard="shard-1",
        )
        # A journal written before completions carried ``shard``: an
        # error record with no way to prove which lane produced it.
        seq2 = journal.admit("f-legacy", "send", legacy.to_dict())
        journal.complete(
            seq2,
            "f-legacy",
            "error",
            error="injected: flaky port",
            error_type="CaptureFaultError",
        )
    host, ledger = recover_components(config)
    ledger.journal.close()
    report = ledger.report
    assert report.unverified == 2
    assert report.verified == 0
    # Both keys are cached with the fresh replay outcome; the rebuilt
    # host state reflects that successful re-execution.
    assert "f-send" in ledger.cache and "f-legacy" in ledger.cache


def _spoil(path, case: str) -> None:
    """Damage one device file the way ``case`` names."""
    blob = path.read_bytes()
    head, _, body = blob.partition(b"\n")
    if case == "truncated":
        path.write_bytes(blob[: len(head) + 1 + len(body) // 2])
    elif case == "corrupt":
        flipped = bytearray(body)
        flipped[len(flipped) // 2] ^= 0xFF
        path.write_bytes(head + b"\n" + bytes(flipped))
    elif case == "wrong-format":
        header = json.loads(head)
        header["format"] = "invisible-bits/captures"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    else:  # a v1 checkpoint's .npz under the v2 name
        import numpy as np

        from repro.io import device_state_arrays

        device = _host()._fresh_channel("dev-0").board.device
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **device_state_arrays(device))


class TestBadDeviceFiles:
    """Every reader of a device file refuses a bad one with a typed
    JournalError naming the file: restore, rehydration, state_digest
    and ``repro recover --digest``."""

    @pytest.mark.parametrize(
        "case", ["truncated", "corrupt", "wrong-format", "v1-npz"]
    )
    def test_bad_device_file_is_refused(self, tmp_path, case):
        from repro.cli import _write_service_config_json, main

        config = _config(tmp_path)
        _write_service_config_json(config)  # as `repro serve` does

        async def life():
            service = FleetService(config)
            await service.start()
            for index in range(2):
                send, _ = _keyed_pair(index)
                await service.submit(send)
            await service.stop()  # leaves a final checkpoint behind

        asyncio.run(life())
        ckpt = latest_checkpoint(config.journal_dir)
        # A host that adopted the checkpoint before the damage: its
        # device files are cold, so reads happen on demand.
        host = _host()
        host.restore(ckpt)
        name = host._device_file("dev-0")
        _spoil(ckpt / name, case)
        pattern = name.replace(".", r"\.")

        with pytest.raises(JournalError, match=pattern):
            _host().restore(ckpt)
        with pytest.raises(JournalError, match=pattern):
            host.state_digest()
        for _ in range(2):  # a failed rehydration leaves the device cold
            with pytest.raises(JournalError, match=pattern):
                host.channel("dev-0")
        with pytest.raises(JournalError, match=pattern):
            main(["recover", config.journal_dir, "--digest"])

    def test_a_file_from_other_silicon_is_refused(self, tmp_path):
        import shutil

        host = _host()
        _execute(host, _traffic(2))
        host.snapshot(tmp_path / "ckpt")
        twin = _host()
        twin.restore(tmp_path / "ckpt")
        # dev-1's aging state under dev-0's name: a valid file, but cut
        # from silicon that dev-0's seed does not rebuild.
        shutil.copyfile(
            tmp_path / "ckpt" / host._device_file("dev-1"),
            tmp_path / "ckpt" / host._device_file("dev-0"),
        )
        with pytest.raises(JournalError, match="silicon digest"):
            twin.channel("dev-0")

    def test_a_v2_checkpoint_is_refused(self, tmp_path):
        host = _host()
        _execute(host, _traffic(1))
        host.snapshot(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(JournalError, match="checkpoint version 2"):
            _host().restore(tmp_path / "ckpt")

    def test_a_v2_device_file_is_refused(self, tmp_path):
        host = _host()
        _execute(host, _traffic(1))
        host.snapshot(tmp_path / "ckpt")
        path = tmp_path / "ckpt" / host._device_file("dev-0")
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["version"] = 2
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(JournalError, match="device file version 2"):
            _host().restore(tmp_path / "ckpt")

    def test_a_v1_checkpoint_is_refused(self, tmp_path):
        host = _host()
        _execute(host, _traffic(1))
        host.snapshot(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(JournalError, match="checkpoint version 1"):
            _host().restore(tmp_path / "ckpt")
