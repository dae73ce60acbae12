"""Sustained-throughput soak of the fleet service frontend.

The serving-layer acceptance bench: an in-process
:class:`~repro.service.LoadGenerator` drives >= 10k send→receive→verify
round trips through a 4-shard :class:`~repro.service.FleetService` and
every message must be accounted for (``lost == 0``) and byte-exact
(``mismatched == 0``).  The measured number —
``service_throughput_msgs_per_s`` — is the full-stack rate: queueing,
rendezvous routing, batch formation, the fleet capture kernel, decode,
and result plumbing, with no socket in the loop (the HTTP path is CI's
smoke job, not this measurement).

Devices are one-shot by design: re-encoding a device on top of residual
NBTI aging is exactly the degraded-channel regime the paper's §7
recovery experiments study, so the soak models the steady state of a
provisioning fleet — every message lands on fresh silicon.

The soak stresses at 24 h instead of the 12 h recipe default: across
10k process-varied devices the 12 h raw-BER tail crosses both the
decode margin and the 0.2 raw-BER lane SLO (p99 ≈ 0.16 at 12 h versus
≈ 0.07 at 20 h), and burning stress time for channel margin is exactly
the paper's Fig. 6 tradeoff.  Stress time is simulated closed-form, so
the extra hours cost nothing measurable.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.service import FleetService, LoadGenerator, ServiceConfig

N_MESSAGES = 10_000
N_SHARDS = 4


def test_perf_service_soak_throughput(record_metric, frozen_heap):
    """>= 10k messages over 4 shards: zero lost, zero mismatched."""

    async def soak():
        service = FleetService(
            ServiceConfig(shards=N_SHARDS, queue_depth=128, max_batch=16)
        )
        await service.start()
        generator = LoadGenerator(
            seed=2022, message_bytes=8, stress_hours=24.0
        )
        report = await generator.run(
            service, N_MESSAGES, concurrency=64
        )
        stats = service.stats()
        await service.stop()
        return report, stats

    report, stats = asyncio.run(soak())

    # The zero-lost-jobs invariant, and nothing silently corrupted.
    assert report.lost == 0
    assert report.completed == N_MESSAGES, report.errors
    assert report.failed == 0 and report.shed == 0, report.errors
    assert report.mismatched == 0, report.errors

    # The soak genuinely exercised every lane and never tripped one.
    busy = [q for q in stats["queues"].values() if q["enqueued"] > 0]
    assert len(busy) == N_SHARDS
    assert stats["admission"]["tripped"] == {}
    assert stats["devices"] == N_MESSAGES

    throughput = report.throughput_msgs_per_s
    print(
        f"\nservice soak: {report.completed} msgs in "
        f"{report.elapsed_s:.1f} s -> {throughput:.1f} msg/s "
        f"across {N_SHARDS} shards"
    )
    record_metric(
        "service_throughput_msgs_per_s",
        throughput,
        better="higher",
        unit="msg/s",
    )
    # Generous absolute floor: the full stack runs hundreds of messages
    # per second on one core; double digits means something broke.
    assert throughput >= 50.0


# The durability tax must stay a tax, not a rewrite of the cost model:
# enough messages that per-soak setup amortizes away, few enough that
# the paired legs stay cheap next to the 10k soak above.
N_JOURNAL_MESSAGES = 400


def test_perf_journal_overhead(record_metric, frozen_heap):
    """Write-ahead journaling costs <= 1.25x the in-memory service.

    Two identical keyed soaks — same seed, same devices, same payloads —
    one on a plain in-memory :class:`~repro.service.FleetService`, one
    with ``journal_dir`` set so every op is CRC-framed, appended, and
    batch-fsynced (``Journal(fsync_every=8)``, the serving default)
    before it touches silicon.  The measured window covers admission
    through result plumbing; the final checkpoint a graceful ``stop()``
    cuts is deliberately outside it (that is shutdown cost, not per-op
    cost).  ``journal_overhead_x`` is the elapsed-time ratio.
    """

    def timed_soak(config: ServiceConfig) -> float:
        async def soak():
            service = FleetService(config)
            await service.start()
            # 24 h stress for the same reason as the big soak above:
            # buy raw-BER margin so the process-variation tail never
            # turns a timing bench into a decode flake.
            generator = LoadGenerator(
                seed=77, message_bytes=8, stress_hours=24.0, idempotency=True
            )
            start = time.perf_counter()
            report = await generator.run(
                service, N_JOURNAL_MESSAGES, concurrency=16
            )
            elapsed = time.perf_counter() - start
            await service.stop()
            assert report.lost == 0
            assert report.completed == N_JOURNAL_MESSAGES, report.errors
            assert report.mismatched == 0, report.errors
            return elapsed

        return asyncio.run(soak())

    def best_of(make_config, reps: int = 2) -> float:
        # A single leg carries ~20% scheduler/GC noise on a loaded or
        # single-core machine — more than the 1.25x gate leaves room
        # for.  The min over repeats estimates the noise-free cost,
        # which is what a ratio gate should compare.  Each rep gets a
        # fresh config (and journal dir) so the keyed soak can never be
        # served from a previous rep's idempotency cache.
        gc.collect()
        return min(timed_soak(make_config()) for _ in range(reps))

    timed_soak(ServiceConfig(shards=2, seed=77))  # cold-start warm-up
    in_memory_s = best_of(lambda: ServiceConfig(shards=2, seed=77))
    with tempfile.TemporaryDirectory() as journal_root:
        dirs = iter([f"{journal_root}/a", f"{journal_root}/b"])
        journaled_s = best_of(
            lambda: ServiceConfig(
                shards=2, seed=77, journal_dir=next(dirs)
            )
        )

    overhead = journaled_s / in_memory_s
    print(
        f"\njournal overhead: {in_memory_s:.2f} s in-memory vs "
        f"{journaled_s:.2f} s journaled over {N_JOURNAL_MESSAGES} msgs "
        f"-> {overhead:.3f}x"
    )
    record_metric("journal_overhead_x", overhead, better="lower", unit="x")
    # The acceptance gate: durability stays under a quarter of the
    # serving cost.  Measured ~1.1x locally at the default fsync batch.
    assert overhead <= 1.25


# A checkpoint's cost should follow the devices touched since the last
# one, not the fleet: a 400-device host with 25 of them touched.
N_CHECKPOINT_DEVICES = 400
N_CHECKPOINT_TOUCHED = 25


def test_perf_checkpoint_incremental_speedup(record_metric, tmp_path):
    """An incremental ``FleetHost.snapshot`` is >= 4x cheaper than a full one.

    The full checkpoint serialises all 400 devices; each incremental one
    follows a re-send to 25 of them, serialises those again and
    hard-links the other 375 files from the checkpoint before.
    ``checkpoint_incremental_speedup`` is the CPU-time ratio, full over
    the best of three incremental checkpoints.
    """
    from repro.core.scheme import paper_end_to_end_scheme
    from repro.service import FleetHost

    host = FleetHost(
        scheme=paper_end_to_end_scheme(copies=7, n_captures=5), seed=11
    )

    def send(device_id: str, message: bytes) -> None:
        sent = host.channel(device_id).send(message, stress_hours=24)
        host.store_payload(device_id, sent.payload_bits)

    ids = [f"dev-{i:04d}" for i in range(N_CHECKPOINT_DEVICES)]
    for device_id in ids:
        send(device_id, b"8 bytes!")

    def timed_snapshot(name: str) -> float:
        start = time.process_time()
        host.snapshot(tmp_path / name)
        return time.process_time() - start

    full_s = timed_snapshot("full")
    assert host.checkpoint_written == N_CHECKPOINT_DEVICES
    incremental_s = []
    for rep in range(3):
        before = (host.checkpoint_written, host.checkpoint_reused)
        for device_id in ids[rep::N_CHECKPOINT_DEVICES // N_CHECKPOINT_TOUCHED]:
            send(device_id, b"again!!!")
        incremental_s.append(timed_snapshot(f"incremental-{rep}"))
        assert (host.checkpoint_written, host.checkpoint_reused) == (
            before[0] + N_CHECKPOINT_TOUCHED,
            before[1] + N_CHECKPOINT_DEVICES - N_CHECKPOINT_TOUCHED,
        )

    speedup = full_s / min(incremental_s)
    print(
        f"\ncheckpoint of {N_CHECKPOINT_DEVICES} devices: full "
        f"{full_s * 1e3:.0f} ms, incremental ({N_CHECKPOINT_TOUCHED} "
        f"touched) {min(incremental_s) * 1e3:.0f} ms -> {speedup:.1f}x"
    )
    record_metric(
        "checkpoint_incremental_speedup", speedup, better="higher", unit="x"
    )
    assert speedup >= 4.0


# Durable state should follow the live fleet: with every superseded
# checkpoint deleted and each payload stored once, in its device file,
# doubling the soak (and so the fleet, one device per message) should
# about double the checkpoint bytes.
N_DISK_MESSAGES = 500


def _checkpoint_disk(journal_dir: str, n_messages: int) -> "tuple[int, float]":
    """Soak a journaled service (``checkpoint_every=50``) and stop it
    gracefully; returns the bytes under ``checkpoints/``, each inode
    counted once, and the newest manifest's bytes per device."""
    from repro.service.recovery import checkpoints_root, latest_checkpoint

    async def soak():
        service = FleetService(
            ServiceConfig(
                shards=2, seed=41, journal_dir=journal_dir, checkpoint_every=50
            )
        )
        await service.start()
        generator = LoadGenerator(
            seed=41, message_bytes=8, stress_hours=24.0, idempotency=True
        )
        report = await generator.run(service, n_messages, concurrency=16)
        await service.stop()
        assert report.lost == 0 and report.mismatched == 0, report.errors
        assert report.completed == n_messages, report.errors

    asyncio.run(soak())
    sizes = {}
    for path in checkpoints_root(journal_dir).rglob("*"):
        if path.is_file():
            st = path.stat()
            sizes[(st.st_dev, st.st_ino)] = st.st_size
    manifest = latest_checkpoint(journal_dir) / "manifest.json"
    n_devices = len(json.loads(manifest.read_text())["devices"])
    return sum(sizes.values()), manifest.stat().st_size / n_devices


def test_perf_checkpoint_disk_growth(record_metric, tmp_path, frozen_heap):
    """Checkpoint storage grows linearly with the fleet, not with history.

    Two soaks of 500 and 1000 messages, one fresh device each.
    ``checkpoint_disk_growth_x`` is the checkpoint bytes after 1000
    messages over those after 500: about 2 when disk follows the live
    fleet, and growing with the soak when every superseded checkpoint
    stays on disk.  ``checkpoint_manifest_bytes_per_device`` is the
    newest manifest's size per device (device id and the completed-seq
    frontier; each payload lives in its device file).
    """
    half, _ = _checkpoint_disk(str(tmp_path / "half"), N_DISK_MESSAGES)
    full, per_device = _checkpoint_disk(
        str(tmp_path / "full"), 2 * N_DISK_MESSAGES
    )
    growth = full / half
    print(
        f"\ncheckpoints: {half / 1e6:.2f} MB after {N_DISK_MESSAGES} msgs, "
        f"{full / 1e6:.2f} MB after {2 * N_DISK_MESSAGES} -> {growth:.2f}x; "
        f"manifest {per_device:.0f} B per device"
    )
    record_metric("checkpoint_disk_growth_x", growth, better="lower", unit="x")
    record_metric(
        "checkpoint_manifest_bytes_per_device",
        per_device,
        better="lower",
        unit="B",
    )
    assert growth <= 2.2
    assert per_device <= 100


N_WRITE_DEVICES = 100


def _npz_write(target, arrays: dict) -> None:
    """The previous device-file writer: the whole mapping as ``.npz``."""
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "xb") as fh:
        np.savez_compressed(fh, **arrays)
    os.replace(tmp, target)


def test_perf_checkpoint_device_write_speedup(record_metric, tmp_path):
    """The service's device-file write is >= 5x cheaper than ``.npz``.

    Both writers serialise the same :func:`repro.io.device_state_arrays`
    mapping of 100 sent devices to a temp name and ``os.replace`` it into
    place.  The ``.npz`` writer deflates the seed-derived ``mismatch``
    and wraps 12 members in a zip; the lean file stores the silicon as a
    digest and the four NBTI clocks and the device's staged payload as
    one zlib stream, as a checkpoint does.
    ``checkpoint_device_write_speedup`` is the per-device CPU-time ratio
    (best of three passes each); ``checkpoint_device_file_bytes`` is the
    mean lean file size.
    """
    from repro.core.scheme import paper_end_to_end_scheme
    from repro.io import device_state_arrays
    from repro.service import FleetHost
    from repro.service.shards import _write_device_file

    host = FleetHost(
        scheme=paper_end_to_end_scheme(copies=7, n_captures=5), seed=11
    )
    mappings = []
    for index in range(N_WRITE_DEVICES):
        channel = host.channel(f"dev-{index:04d}")
        sent = channel.send(b"8 bytes!", stress_hours=24)
        mappings.append(
            (device_state_arrays(channel.board.device), sent.payload_bits)
        )

    def per_device_s(writer, name: str) -> float:
        best = float("inf")
        for rep in range(3):
            directory = tmp_path / f"{name}-{rep}"
            directory.mkdir()
            start = time.process_time()
            for index, (arrays, payload) in enumerate(mappings):
                writer(directory / f"dev-{index:04d}", arrays, payload)
            best = min(best, time.process_time() - start)
        return best / N_WRITE_DEVICES

    # The .npz checkpoints kept payloads in the manifest, not the file.
    npz_s = per_device_s(
        lambda target, arrays, payload: _npz_write(target, arrays), "npz"
    )
    lean_s = per_device_s(_write_device_file, "lean")
    lean_bytes = np.mean(
        [path.stat().st_size for path in (tmp_path / "lean-0").iterdir()]
    )
    npz_bytes = np.mean(
        [path.stat().st_size for path in (tmp_path / "npz-0").iterdir()]
    )
    speedup = npz_s / lean_s
    print(
        f"\ndevice-file write: npz {npz_s * 1e3:.2f} ms, "
        f"{npz_bytes / 1024:.1f} KiB; lean {lean_s * 1e3:.2f} ms, "
        f"{lean_bytes / 1024:.1f} KiB -> {speedup:.1f}x"
    )
    record_metric(
        "checkpoint_device_write_speedup", speedup, better="higher", unit="x"
    )
    record_metric(
        "checkpoint_device_file_bytes",
        float(lean_bytes),
        better="lower",
        unit="B",
    )
    assert speedup >= 5.0


def _import_cpu_s(module: str) -> float:
    """CPU seconds a fresh interpreter spends on ``import module``."""
    probe = (
        "import time; start = time.process_time(); "
        f"import {module}; print(time.process_time() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def test_perf_service_import_cpu(record_metric):
    """``import repro.service`` costs <= 6x the CPU of ``import numpy``.

    Cold start (``repro serve``, a restart, every perfbench round) is
    import-bound, and numpy is the one heavy module the serving path
    needs: Phi and Phi^-1 come from the pure-Python ``repro.stats.normal``
    and scipy is imported only by experiments and statistics.  Each side
    is the best of three fresh interpreters, interleaved;
    ``service_import_cpu_ratio`` is service over numpy (about 10x while
    the service still loaded ``scipy.stats``, 3-4x without it).
    """
    numpy_s, service_s = [], []
    for _ in range(3):
        numpy_s.append(_import_cpu_s("numpy"))
        service_s.append(_import_cpu_s("repro.service"))
    ratio = min(service_s) / min(numpy_s)
    print(
        f"\nimport cpu: numpy {min(numpy_s) * 1e3:.0f} ms, repro.service "
        f"{min(service_s) * 1e3:.0f} ms -> {ratio:.1f}x"
    )
    record_metric("service_import_cpu_ratio", ratio, better="lower", unit="x")
    assert ratio <= 6.0
