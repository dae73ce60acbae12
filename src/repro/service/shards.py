"""Shards: compute lanes over a shared simulated fleet.

A :class:`Shard` is *not* a partition of the devices — devices live in
the shared :class:`FleetHost`, keyed by ``device_id`` and seeded purely
by ``stable_seed(service_seed, device_id)``.  A shard is a harness lane:
one queue, one fault domain, judged batch by batch on each batch's own
raw BER and retry count.  Lanes are not threads: every lane's batches
run on the service's single lane thread, one at a time.  Because device
simulation never depends on which lane (or thread) touched it (and the
fleet capture kernel preserves per-device RNG streams for any batch
composition), rerouting a device's jobs from a tripped lane to a healthy
one yields bit-identical results — the property the backpressure tests
pin down.

Routing is rendezvous hashing (:class:`ShardRouter`): every device gets
a stable home among the currently-healthy lanes, reshuffling only the
tripped lane's devices when one drops out.

Faults are lane-scoped: a shard built with a fault plan swaps its
:class:`~repro.faults.FaultInjector` onto each board for the duration of
a batch and restores the board's own injector after — a stuck bus bit in
one rack position corrupts that lane's captures, not the silicon.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import threading
import time
import zlib
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from .. import metrics, telemetry
from ..telemetry import context as trace_ctx
from ..api import receive_result, send_result
from ..core.fleetcapture import capture_fleet
from ..core.pipeline import InvisibleBits, decode_group
from ..device.catalog import make_varied_device
from ..errors import (
    CodecError,
    ConfigurationError,
    ExtractionError,
    JournalError,
    ReproError,
    ServiceError,
)
from ..faults import FaultInjector, FaultPlan
from ..harness.controlboard import ControlBoard
from ..io import (
    AGING_CLOCKS,
    DEVICE_STATE_FORMAT,
    FORMAT_VERSION,
    apply_device_state,
    device_state_arrays,
    silicon_digest,
)
from .queue import Job

__all__ = ["FleetHost", "Shard", "ShardRouter", "stable_seed"]

#: Fleet checkpoint manifest format tag (docs/service.md).
CHECKPOINT_FORMAT = "invisible-bits/fleet-checkpoint"
#: Version 3 device files carry the device's staged payload; version 1
#: (``.npz``) and version 2 checkpoints are refused.
CHECKPOINT_VERSION = 3
#: Per-device checkpoint and LRU-archive file format tag.
DEVICE_FILE_FORMAT = "invisible-bits/device-file"

_EVICTED_TOTAL = metrics.counter(
    "repro_service_devices_evicted_total",
    "Devices archived to disk by the FleetHost LRU",
)
_REHYDRATED_TOTAL = metrics.counter(
    "repro_service_devices_rehydrated_total",
    "Devices restored from archive/checkpoint on first touch",
)
_CHECKPOINT_DEVICES_TOTAL = metrics.counter(
    "repro_service_checkpoint_devices_total",
    "Device files placed in checkpoints: serialised again (written) or "
    "linked from an unchanged earlier file (reused)",
    labelnames=("mode",),
)


def stable_seed(*parts) -> int:
    """A deterministic 64-bit seed from any printable parts.

    Used for device RNG streams (``stable_seed("device", seed, id)``)
    and rendezvous scores; stable across processes and Python hash
    randomization, unlike ``hash()``.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def _temp_for(target: pathlib.Path) -> pathlib.Path:
    """A fresh temp name beside ``target``.

    A leftover from an interrupted write may be a hard link to a live
    checkpoint file, so it is unlinked, never written through.
    """
    tmp = target.with_name(target.name + ".tmp")
    tmp.unlink(missing_ok=True)
    return tmp


def _encode_device_file(arrays: dict, payload: "np.ndarray | None") -> bytes:
    """A lean device file for a :func:`repro.io.device_state_arrays` mapping.

    One JSON header line (format, version, model, size, id, toggle count,
    RNG position, the :func:`repro.io.silicon_digest` of ``mismatch`` and
    the staged payload's length in bits or ``null``), then one zlib stream
    of the four NBTI clock arrays as little-endian float64, in
    :data:`repro.io.AGING_CLOCKS` order, and the packed payload bits.  The
    silicon itself is not stored: it is a pure function of the device's
    seed, and the reader rebuilds it.
    """
    header = {
        "format": DEVICE_FILE_FORMAT,
        "version": CHECKPOINT_VERSION,
        "device_name": str(arrays["device_name"]),
        "n_bits": int(arrays["n_bits"]),
        "device_id": arrays["device_id"].tobytes().hex(),
        "toggle_count": float(arrays["toggle_count"]),
        "rng_state": json.loads(str(arrays["rng_state"])),
        "silicon": silicon_digest(arrays["mismatch"]),
        "payload_bits": None if payload is None else int(payload.size),
    }
    body = [np.asarray(arrays[key], dtype="<f8") for key in AGING_CLOCKS]
    if payload is not None:
        body.append(np.packbits(payload.astype(np.uint8)))
    stream = b"".join(part.tobytes() for part in body)
    return json.dumps(header).encode() + b"\n" + zlib.compress(stream, 1)


def _write_device_file(target: pathlib.Path, arrays: dict, payload) -> None:
    """Serialise a device and its staged payload to ``target`` on a new inode.

    The old ``target`` may be linked from another checkpoint, so it is
    replaced, never truncated.
    """
    tmp = _temp_for(target)
    with open(tmp, "xb") as fh:
        fh.write(_encode_device_file(arrays, payload))
    os.replace(tmp, target)


def _read_device_file(path: pathlib.Path) -> dict:
    """The :func:`repro.io.device_state_arrays` mapping a device file holds.

    ``mismatch`` is absent; ``silicon`` carries its digest instead, and
    ``payload`` the staged payload bits (``None`` when nothing is staged).
    A missing, truncated, corrupt or foreign file (a v1 ``.npz`` included)
    raises :class:`~repro.errors.JournalError` naming the file.
    """
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"{path}: unreadable device file: {exc}") from None
    head, _, body = blob.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        header = None
    if (
        not isinstance(header, dict)
        or header.get("format") != DEVICE_FILE_FORMAT
    ):
        raise JournalError(
            f"{path}: not a device file ({DEVICE_FILE_FORMAT} "
            f"v{CHECKPOINT_VERSION} expected)"
        )
    if header.get("version") != CHECKPOINT_VERSION:
        raise JournalError(
            f"{path}: unsupported device file version "
            f"{header.get('version')!r}"
        )
    try:
        n_bits, payload_bits = int(header["n_bits"]), header["payload_bits"]
        n_clocks = n_bits * len(AGING_CLOCKS)
        inflater = zlib.decompressobj()
        stream = inflater.decompress(body)
        if (
            not inflater.eof
            or inflater.unused_data
            or len(stream) != 8 * n_clocks + ((payload_bits or 0) + 7) // 8
        ):
            raise ValueError("stream is truncated or overlong")
        rows = np.frombuffer(stream, dtype="<f8", count=n_clocks)
        payload = None
        if payload_bits is not None:
            payload = np.unpackbits(
                np.frombuffer(stream, dtype=np.uint8, offset=8 * n_clocks),
                count=payload_bits,
            )
        return {
            "format": np.array(DEVICE_STATE_FORMAT),
            "version": np.array(FORMAT_VERSION),
            "device_name": np.array(str(header["device_name"])),
            "device_id": np.frombuffer(
                bytes.fromhex(header["device_id"]), dtype=np.uint8
            ),
            "n_bits": np.array(n_bits),
            **dict(zip(AGING_CLOCKS, rows.reshape(-1, n_bits))),
            "toggle_count": np.array(float(header["toggle_count"])),
            "rng_state": np.array(json.dumps(header["rng_state"])),
            "silicon": str(header["silicon"]),
            "payload": payload,
        }
    except (KeyError, TypeError, ValueError, zlib.error) as exc:
        raise JournalError(f"{path}: corrupt device file: {exc}") from None


def _check_silicon(arrays: dict, device, source) -> None:
    """Refuse a device file cut from other silicon than ``device``'s."""
    ours = silicon_digest(device.sram.mismatch)
    if arrays["silicon"] != ours:
        raise JournalError(
            f"{source}: silicon digest {arrays['silicon']} does not match "
            f"the device rebuilt from its seed ({ours})"
        )


def _load_device_file(path: pathlib.Path, device) -> "np.ndarray | None":
    """Apply a device file to ``device``, freshly built from its seed;
    returns the file's staged payload bits."""
    arrays = _read_device_file(path)
    _check_silicon(arrays, device, path)
    arrays["mismatch"] = device.sram.mismatch
    try:
        apply_device_state(device, arrays, source=str(path))
    except ConfigurationError as exc:
        raise JournalError(str(exc)) from None
    return arrays["payload"]


def _link_device_file(source: pathlib.Path, target: pathlib.Path) -> None:
    """Place ``source``'s bytes at ``target``: a hard link, else a copy."""
    try:
        # A new checkpoint directory: one syscall, nothing to replace.
        os.link(source, target)
        return
    except FileExistsError:
        # Re-cutting the checkpoint a file came from: already in place.
        if source.samefile(target):
            return
    except OSError:
        pass  # links refused here; the copy below stands in
    tmp = _temp_for(target)
    try:
        os.link(source, tmp)
    except OSError:
        shutil.copyfile(source, tmp)
    os.replace(tmp, target)


class ShardRouter:
    """Rendezvous (highest-random-weight) device→shard routing.

    Every ``(device_id, shard)`` pair gets a stable score; a device goes
    to the highest-scoring shard in the eligible pool.  Removing a shard
    from the pool moves only that shard's devices — the minimal-churn
    property that keeps reroutes from perturbing healthy lanes.
    """

    def __init__(self, shards: "tuple[str, ...] | list[str]"):
        names = tuple(shards)
        if not names:
            raise ConfigurationError("router needs at least one shard")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate shard names: {names}")
        self.shards = names

    def route(
        self, device_id: str, pool: "set[str] | None" = None
    ) -> "str | None":
        """The device's home among ``pool`` (default: all shards).

        Returns ``None`` when the pool is empty — admission turns that
        into a shed, the router stays policy-free.
        """
        eligible = [
            name
            for name in self.shards
            if pool is None or name in pool
        ]
        if not eligible:
            return None
        return max(
            eligible, key=lambda name: stable_seed("route", device_id, name)
        )


class FleetHost:
    """The shared device store behind every shard.

    Creates one simulated device + :class:`ControlBoard` +
    :class:`~repro.core.pipeline.InvisibleBits` channel per ``device_id``
    on first use, and remembers the last staged payload bits per device
    (in RAM while it is resident, in its device file while it is cold)
    so receives can feed truth-referenced raw BER into the shard SLOs.
    Thread-safe: the service's lane thread mutates it while the event
    loop reads its stats.
    """

    def __init__(
        self,
        *,
        device_name: str = "MSP430G2553",
        sram_kib: float = 0.25,
        scheme,
        seed: int = 0,
        max_resident: "int | None" = None,
        archive_dir=None,
    ):
        if sram_kib <= 0:
            raise ConfigurationError(f"sram_kib must be > 0, got {sram_kib}")
        if max_resident is not None:
            if max_resident < 1:
                raise ConfigurationError(
                    f"max_resident must be >= 1, got {max_resident}"
                )
            if archive_dir is None:
                raise ConfigurationError(
                    "max_resident needs an archive_dir to evict into"
                )
        self.device_name = device_name
        self.sram_kib = sram_kib
        self.scheme = scheme
        self.seed = seed
        self.max_resident = max_resident
        self.archive_dir = (
            pathlib.Path(archive_dir) if archive_dir is not None else None
        )
        # Re-entrant: payload() rehydrates a cold device through channel().
        self._lock = threading.RLock()
        #: Resident channels in least-recently-used order (first = coldest).
        self._channels: "OrderedDict[str, InvisibleBits]" = OrderedDict()
        #: Resident device_id -> its staged payload bits.
        self._payloads: "dict[str, np.ndarray]" = {}
        #: device_id -> device file holding its state (LRU archive or a
        #: checkpoint); rehydrated lazily on next touch.
        self._cold: "dict[str, pathlib.Path]" = {}
        #: device_id -> pin count; pinned devices are never evicted, so
        #: a batch cannot archive its own earlier devices mid-batch.
        self._pins: "dict[str, int]" = {}
        #: Resident device_id -> the checkpoint file holding its current
        #: state.  :meth:`channel` (the only way to reach a device),
        #: eviction and :meth:`restore` clear the entry.
        self._clean: "dict[str, pathlib.Path]" = {}
        self.evicted = 0
        self.rehydrated = 0
        #: Device files :meth:`snapshot` serialised vs. linked unchanged.
        self.checkpoint_written = 0
        self.checkpoint_reused = 0

    def _device_file(self, device_id: str) -> str:
        """A filesystem-safe, collision-free file name for a device."""
        tag = hashlib.blake2b(device_id.encode(), digest_size=12).hexdigest()
        return f"dev-{tag}.state"

    def _fresh_channel(self, device_id: str) -> InvisibleBits:
        device = make_varied_device(
            self.device_name,
            rng=stable_seed("device", self.seed, device_id),
            sram_kib=self.sram_kib,
        )
        return InvisibleBits(
            ControlBoard(device),
            scheme=self.scheme,
            use_firmware=False,
        )

    def channel(self, device_id: str) -> InvisibleBits:
        """The device's bound channel, created (or rehydrated) on use.

        The device RNG is seeded from ``(seed, device_id)`` only — never
        from the shard or batch — so results are identical no matter
        which lane serves the device.  A device evicted to the archive
        (or restored lazily from a checkpoint) is rebuilt from the same
        seed and its snapshot applied on top — bit-identical to one that
        never left memory, because snapshots carry the exact aging clocks
        *and* the RNG stream position.
        """
        with self._lock:
            # The caller may change the device; its last checkpoint file
            # no longer vouches for it.
            self._clean.pop(device_id, None)
            channel = self._channels.get(device_id)
            if channel is None:
                channel = self._fresh_channel(device_id)
                cold = self._cold.get(device_id)
                if cold is not None:
                    # A bad file raises and leaves the device cold: it
                    # never silently restarts as fresh silicon.
                    payload = _load_device_file(cold, channel.board.device)
                    if payload is not None:
                        self._payloads[device_id] = payload
                    del self._cold[device_id]
                    self.rehydrated += 1
                    _REHYDRATED_TOTAL.inc()
                    telemetry.count("service.device_rehydrated")
                self._channels[device_id] = channel
            self._channels.move_to_end(device_id)
            self._maybe_evict(keep=device_id)
            return channel

    @contextmanager
    def pinned(self, device_ids):
        """Hold the named devices resident for the duration of a batch."""
        ids = list(device_ids)
        with self._lock:
            for device_id in ids:
                self._pins[device_id] = self._pins.get(device_id, 0) + 1
        try:
            yield
        finally:
            with self._lock:
                for device_id in ids:
                    count = self._pins.get(device_id, 0) - 1
                    if count <= 0:
                        self._pins.pop(device_id, None)
                    else:
                        self._pins[device_id] = count
                # A fully-pinned batch can push residency over the cap;
                # sweep now that these devices are evictable again.
                self._maybe_evict()

    def _maybe_evict(self, *, keep: "str | None" = None) -> None:
        """Archive coldest unpinned devices down to ``max_resident``.

        Caller holds the lock.  Pinned (mid-batch) devices are skipped —
        the fleet may transiently exceed the cap rather than lose
        in-flight aging state.
        """
        if self.max_resident is None:
            return
        while len(self._channels) > self.max_resident:
            victim = next(
                (
                    device_id
                    for device_id in self._channels
                    if device_id != keep and device_id not in self._pins
                ),
                None,
            )
            if victim is None:
                return
            channel = self._channels.pop(victim)
            self._clean.pop(victim, None)
            self.archive_dir.mkdir(parents=True, exist_ok=True)
            path = self.archive_dir / self._device_file(victim)
            # Checkpoints link archive files: replace, never overwrite.
            arrays = device_state_arrays(channel.board.device)
            _write_device_file(path, arrays, self._payloads.pop(victim, None))
            self._cold[victim] = path
            self.evicted += 1
            _EVICTED_TOTAL.inc()
            telemetry.count("service.device_evicted")

    def store_payload(self, device_id: str, payload_bits: np.ndarray) -> None:
        with self._lock:
            # The device's last checkpoint file holds its old payload.
            self._clean.pop(device_id, None)
            self._payloads[device_id] = payload_bits

    def payload(self, device_id: str) -> "np.ndarray | None":
        """The device's staged payload bits, or ``None`` (an unknown device
        is not created)."""
        with self._lock:
            if device_id in self._cold:
                self.channel(device_id)  # its file holds the payload
            return self._payloads.get(device_id)

    @property
    def n_devices(self) -> int:
        """Every device this host knows, resident or archived."""
        with self._lock:
            return len(self._channels) + len(self._cold)

    @property
    def n_resident(self) -> int:
        with self._lock:
            return len(self._channels)

    # -- checkpoint / restore -----------------------------------------------------

    def snapshot(self, directory, *, extra: "dict | None" = None) -> dict:
        """Write the whole fleet's state under ``directory``; incremental.

        One lean device file per device plus a ``manifest.json`` naming
        the fleet parameters, the device ids (each device's file name is
        a hash of its id), and any ``extra`` bookkeeping the caller wants
        carried (the service puts its completed-sequence frontier here).
        Returns the manifest.

        A device file holds what changes over a device's life: its four
        NBTI clock arrays and staged payload (one zlib stream), toggle
        count and RNG stream position.  Its silicon (``mismatch``) is
        fixed at manufacture and rebuilt from the device's seed on read,
        so the file carries only a digest of it, which the reader checks
        (~2.6 KB per 0.25 KiB device).

        Only devices reached through :meth:`channel` or
        :meth:`store_payload` since their last checkpoint are serialised
        again.  Every other device's file is hard-linked (copied where
        links are refused) from the checkpoint or LRU archive file that
        already holds its state, so the cost scales with the devices
        touched, not the fleet.  Each checkpoint directory stays
        self-contained, and afterwards the host reads only this one, so
        older ones can be deleted.  Files are written under a temp name
        and ``os.replace``d into place, so re-cutting a checkpoint id
        never changes bytes another checkpoint links to.  The caller
        quiesces the fleet first (the service's lane thread).
        """
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            devices: "list[str]" = []
            written = 0
            for device_id, channel in self._channels.items():
                target = directory / self._device_file(device_id)
                clean = self._clean.get(device_id)
                if clean is not None and clean.exists():
                    _link_device_file(clean, target)
                else:
                    arrays = device_state_arrays(channel.board.device)
                    payload = self._payloads.get(device_id)
                    _write_device_file(target, arrays, payload)
                    written += 1
                self._clean[device_id] = target
                devices.append(device_id)
            for device_id, cold_path in self._cold.items():
                target = directory / self._device_file(device_id)
                _link_device_file(cold_path, target)
                # Follow the newest copy, so deleting an older checkpoint
                # never strands a device this host has yet to rehydrate.
                self._cold[device_id] = target
                devices.append(device_id)
            reused = len(devices) - written
            self.checkpoint_written += written
            self.checkpoint_reused += reused
            manifest = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "device_name": self.device_name,
                "sram_kib": self.sram_kib,
                "seed": self.seed,
                "devices": devices,
                **(extra or {}),
            }
        tmp = directory / "manifest.json.tmp"
        # Compact: the C encoder, ~10x faster than an indented dump.
        tmp.write_text(json.dumps(manifest, sort_keys=True))
        tmp.replace(directory / "manifest.json")
        telemetry.count("service.checkpoint_devices", len(devices))
        telemetry.count("service.checkpoint_devices_written", written)
        telemetry.count("service.checkpoint_devices_reused", reused)
        _CHECKPOINT_DEVICES_TOTAL.inc(written, mode="written")
        _CHECKPOINT_DEVICES_TOTAL.inc(reused, mode="reused")
        return manifest

    def restore(self, directory) -> dict:
        """Adopt a :meth:`snapshot` directory; devices rehydrate lazily.

        Validates the manifest against this host's fleet parameters and
        records each device's file as a cold source — first touch
        rebuilds the device and applies the snapshot, staged payload
        included.  Every device file is read and checked here, so a
        missing, truncated, corrupt or foreign one refuses the checkpoint
        at restart, not at some later request.  Returns the manifest.
        """
        directory = pathlib.Path(directory)
        manifest_path = directory / "manifest.json"
        if not manifest_path.exists():
            raise JournalError(f"{directory}: no checkpoint manifest")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise JournalError(f"{directory}: not a fleet checkpoint")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise JournalError(
                f"{directory}: unsupported checkpoint version "
                f"{manifest.get('version')}"
            )
        for field in ("device_name", "sram_kib", "seed"):
            ours = getattr(self, field)
            theirs = manifest.get(field)
            if theirs != ours:
                raise JournalError(
                    f"{directory}: checkpoint {field}={theirs!r} does not "
                    f"match this host's {field}={ours!r}"
                )
        with self._lock:
            for device_id in manifest["devices"]:
                path = directory / self._device_file(device_id)
                _read_device_file(path)  # raises on a missing or bad file
                self._channels.pop(device_id, None)
                self._clean.pop(device_id, None)
                self._payloads.pop(device_id, None)
                self._cold[device_id] = path
        return manifest

    def state_digest(self) -> str:
        """A stable digest of every device's state, RNG position and payload.

        Two hosts that digest equal will produce bit-identical results
        for any identical future request sequence — the crash-restart
        differential oracle's equality anchor.  Resident devices hash
        their live arrays (deferred relax flushed first — flush order is
        analytically invariant, pinned by the NBTI oracles); cold devices
        hash their device files, which hold the same data.  Both hash the
        silicon by its :func:`repro.io.silicon_digest`, so a device
        digests the same resident or cold.
        """
        with self._lock:
            entries = []
            for device_id, channel in self._channels.items():
                arrays = device_state_arrays(channel.board.device)
                arrays["silicon"] = silicon_digest(arrays["mismatch"])
                arrays["payload"] = self._payloads.get(device_id)
                entries.append((device_id, arrays))
            for device_id, path in self._cold.items():
                entries.append((device_id, _read_device_file(path)))
        h = hashlib.sha256()
        for device_id, arrays in sorted(entries):
            h.update(device_id.encode())
            h.update(arrays["silicon"].encode())
            for key in (*AGING_CLOCKS, "toggle_count", "device_id"):
                h.update(np.ascontiguousarray(arrays[key]).tobytes())
            h.update(str(arrays["rng_state"]).encode())
            if arrays["payload"] is not None:
                h.update(arrays["payload"].astype(np.uint8).tobytes())
        return h.hexdigest()[:32]


def _job_trace(job: Job):
    """Re-enter the job's own trace for lane-side work.

    A worker batch mixes jobs from different requests, so the thread's
    ambient context (copied from the worker task) is never the right
    one — each job's spans must land under its submitting span.
    """
    return trace_ctx.trace_context(
        job.trace_id, job.parent_span_id, inherit=False
    )


def _unique_groups(jobs: "list[Job]") -> "list[list[Job]]":
    """Split receives into runs with unique device ids (kernel batches)."""
    groups: "list[list[Job]]" = []
    current: "list[Job]" = []
    seen: set = set()
    for job in jobs:
        device_id = job.request.device_id
        if device_id in seen:
            groups.append(current)
            current, seen = [], set()
        current.append(job)
        seen.add(device_id)
    if current:
        groups.append(current)
    return groups


#: A lane batch whose largest raw BER exceeds this trips the lane
#: (``raw-ber-slo``); a readmission probe must read at most this.
RAW_BER_LIMIT = 0.2
#: A lane batch with more extra capture attempts than this trips the
#: lane (``retry-slo``).
RETRY_BUDGET = 25


class Shard:
    """One compute lane: executes job batches and judges each one.

    ``execute_batch`` is synchronous numpy-heavy work — the service runs
    every lane's batches on its one lane thread, so no two batches (of
    this lane or any other) ever execute concurrently.  A batch that
    violates an SLO trips the lane in the admission controller; the
    registry keeps just the last batch's max raw BER and the running
    retry total.
    """

    def __init__(
        self,
        name: str,
        host: FleetHost,
        *,
        fault_plan: "FaultPlan | None" = None,
        fault_salt: int = 0,
    ):
        if not name:
            raise ConfigurationError("shard needs a name")
        self.name = name
        self.host = host
        self.injector = (
            FaultInjector(fault_plan, salt=fault_salt) if fault_plan else None
        )
        self.registry = metrics.MetricsRegistry()
        self.registry.enable()
        self._raw_ber = self.registry.gauge(
            "repro_raw_ber",
            "largest truth-referenced raw channel BER in the last batch",
        )
        self._retries = self.registry.counter(
            "repro_retry_attempts_total",
            "extra capture attempts beyond the scheme's count",
        )
        #: SLO rules the last batch violated.
        self.active_alerts: "list[str]" = []
        self.jobs_done = 0
        self.batches = 0

    # -- execution (lane thread) -------------------------------------------------

    def execute_batch(self, jobs: "list[Job]"):
        """Run a batch; returns ``([(job, result-or-exception)], reason)``.

        Runs on the service's lane thread.  Sends run per-device (they
        create/age devices); receives are grouped into unique-device
        runs and measured through the fleet capture kernel in one
        stacked pass each.  Per-job :class:`~repro.errors.ReproError`
        failures become that job's outcome instead of sinking the batch.

        ``reason`` is ``None`` or names each SLO this batch alone violated
        (``raw-ber-slo``: max raw BER; ``retry-slo``: extra attempts).
        """
        outcomes: "dict[int, object]" = {}
        swapped: "list[tuple[ControlBoard, FaultInjector | None]]" = []
        lanes: set = set()
        counters = self.injector.counters if self.injector else {}
        flaky_before = counters.get("flaky_port", 0)

        def lane(channel: InvisibleBits) -> InvisibleBits:
            board = channel.board
            if self.injector is not None and id(board) not in lanes:
                lanes.add(id(board))
                swapped.append((board, board.fault_injector))
                board.fault_injector = self.injector
            return channel

        # Pin the batch's devices: staging a later device must not make
        # the host LRU archive an earlier one this batch still holds.
        with self.host.pinned({job.request.device_id for job in jobs}):
            try:
                for job in jobs:
                    if job.kind == "send":
                        self._execute_send(job, outcomes, lane)
                receives = [j for j in jobs if j.kind == "receive"]
                tallies = [
                    self._execute_receive_group(group, outcomes, lane)
                    for group in _unique_groups(receives)
                ]
            finally:
                for board, previous in swapped:
                    board.fault_injector = previous
        # Retried debug-port reads happen inside the per-read retry
        # policy and never reach FleetCapture.attempts.
        flaky = counters.get("flaky_port", 0) - flaky_before
        extra = sum(e for e, _ in tallies) + flaky
        worst_ber = max((ber for _, ber in tallies), default=0.0)
        self.jobs_done += len(jobs)
        self.batches += 1
        self._raw_ber.set(worst_ber)
        self._retries.inc(extra)
        slos = {
            "raw-ber-slo": ("max raw BER", worst_ber, RAW_BER_LIMIT),
            "retry-slo": ("extra attempts", extra, RETRY_BUDGET),
        }
        violated = {rule: slo for rule, slo in slos.items() if slo[1] > slo[2]}
        self.active_alerts = list(violated)
        reason = "; ".join(
            f"{rule}: {what} {value:g} > {limit:g}"
            for rule, (what, value, limit) in violated.items()
        )
        return [(job, outcomes[id(job)]) for job in jobs], reason or None

    def _execute_send(self, job: Job, outcomes: dict, lane) -> None:
        request = job.request
        t0 = time.perf_counter()
        try:
            with _job_trace(job), telemetry.trace(
                "lane.execute",
                shard=self.name,
                kind="send",
                device_id=request.device_id,
            ):
                channel = lane(self.host.channel(request.device_id))
                encode = channel.send(
                    request.message,
                    stress_hours=request.stress_hours,
                    camouflage=request.camouflage,
                )
        except ReproError as exc:
            outcomes[id(job)] = exc
            return
        finally:
            if job.phases is not None:
                job.phases["encode"] = (
                    job.phases.get("encode", 0.0)
                    + (time.perf_counter() - t0)
                )
        self.host.store_payload(request.device_id, encode.payload_bits)
        outcomes[id(job)] = send_result(
            request.device_id, encode, shard=self.name
        )

    def _execute_receive_group(
        self, group: "list[Job]", outcomes: dict, lane
    ) -> "tuple[int, float]":
        """Returns the group's extra capture attempts and max raw BER."""
        extra, worst_ber = 0, 0.0
        staged = []
        for job in group:
            device_id = job.request.device_id
            try:
                payload = self.host.payload(device_id)
                if payload is None:
                    raise ServiceError(
                        f"device {device_id!r} has no staged message "
                        "on this service"
                    )
                channel = lane(self.host.channel(device_id))
                staged.append((job, channel, payload))
            except ReproError as exc:
                outcomes[id(job)] = exc
        if not staged:
            return extra, worst_ber
        # A singleton group's capture belongs to that request's trace; a
        # stacked group is shared work that cannot belong to any single
        # request, so its span roots a trace of its own.
        group_cm = (
            _job_trace(staged[0][0])
            if len(staged) == 1
            else trace_ctx.trace_context(inherit=False)
        )
        t_capture = time.perf_counter()
        with group_cm, telemetry.trace(
            "lane.capture", shard=self.name, group=len(staged)
        ):
            fleet = capture_fleet(
                [channel.board for _, channel, _ in staged],
                self.host.scheme.n_captures,
                payloads=[payload for _, _, payload in staged],
                resilient=True,
            )
        capture_s = time.perf_counter() - t_capture
        # Decode the group's hard states as one array; each job's
        # decode_state below consumes its row (soft schemes decode per
        # device from the vote margins).
        t_stacked = time.perf_counter()
        decoded = {}
        if self.host.scheme.decision == "hard":
            live = [
                pos
                for pos in range(len(staged))
                if fleet.slot_errors[pos] is None
            ]
            rows = decode_group(
                [staged[pos][1] for pos in live],
                [fleet.states[pos] for pos in live],
                message_lens=[staged[pos][0].request.message_len for pos in live],
                raw_errors=[fleet.errors[pos] for pos in live],
            )
            decoded = dict(zip(live, rows))
        stacked_s = time.perf_counter() - t_stacked
        for pos, (job, channel, payload) in enumerate(staged):
            request = job.request
            extra += fleet.attempts[pos] - 1
            if job.phases is not None:
                # Wall time the request spent waiting on the (possibly
                # shared) capture pass — what the submitter experienced.
                job.phases["capture"] = (
                    job.phases.get("capture", 0.0) + capture_s
                )
            exc = fleet.slot_errors[pos]
            if exc is not None:
                outcomes[id(job)] = (
                    exc
                    if isinstance(exc, ReproError)
                    else ServiceError(f"{type(exc).__name__}: {exc}")
                )
                continue
            worst_ber = max(worst_ber, float(fleet.errors[pos]))
            t_decode = time.perf_counter()
            try:
                with _job_trace(job), telemetry.trace(
                    "lane.execute",
                    shard=self.name,
                    kind="receive",
                    device_id=request.device_id,
                ):
                    try:
                        decode = channel.decode_state(
                            fleet.states[pos],
                            message_len=request.message_len,
                            expected_payload=payload,
                            n_captures=fleet.n_captures,
                            ones=fleet.ones[pos],
                            decoded=decoded.get(pos),
                        )
                    except (CodecError, ExtractionError):
                        # The kernel's vote was undecodable; fall back to
                        # the full adaptive receive (suspect filtering +
                        # escalation) and bill the extra captures against
                        # the retry budget.
                        decode = channel.receive(
                            message_len=request.message_len,
                            expected_payload=payload,
                        )
                        extra += max(
                            decode.total_captures
                            - self.host.scheme.n_captures,
                            0,
                        )
            except ReproError as exc2:
                outcomes[id(job)] = exc2
                continue
            finally:
                if job.phases is not None:
                    # Like capture, the shared stacked decode counts in
                    # full for every job that waited on it.
                    job.phases["decode"] = (
                        job.phases.get("decode", 0.0)
                        + stacked_s
                        + (time.perf_counter() - t_decode)
                    )
            outcomes[id(job)] = receive_result(
                request.device_id, decode, shard=self.name
            )
        return extra, worst_ber

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "name": self.name,
            "jobs_done": self.jobs_done,
            "batches": self.batches,
            "faulted": self.injector is not None,
            "active_alerts": list(self.active_alerts),
            "raw_ber": self._raw_ber.series()[()].value,
            "retry_attempts": int(self._retries.series()[()].value),
        }
