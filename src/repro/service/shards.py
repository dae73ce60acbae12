"""Shards: compute lanes over a shared simulated fleet.

A :class:`Shard` is *not* a partition of the devices — devices live in
the shared :class:`FleetHost`, keyed by ``device_id`` and seeded purely
by ``stable_seed(service_seed, device_id)``.  A shard is a harness lane:
one queue, one fault domain, judged batch by batch on each batch's own
raw BER and retry count.  Lanes are not threads: every lane's batches
run on the service's event loop, one at a time.  Because device
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
#: Version 4: each checkpoint is one manifest naming a generation of
#: every device in a shared store.  Version 3 (a directory of device
#: files per checkpoint), 2 and 1 (``.npz``) are refused.
CHECKPOINT_VERSION = 4
#: Device file format tag.
DEVICE_FILE_FORMAT = "invisible-bits/device-file"
#: Checkpoints a store keeps: the newest, and the one before it (the
#: prune's one release list, for the older of the two, assumes two).
KEEP_CHECKPOINTS = 2

_EVICTED_TOTAL = metrics.counter(
    "repro_service_devices_evicted_total",
    "Devices moved out of memory into the device store by the FleetHost LRU",
)
_REHYDRATED_TOTAL = metrics.counter(
    "repro_service_devices_rehydrated_total",
    "Devices restored from the device store on first touch",
)
_CHECKPOINT_DEVICES_TOTAL = metrics.counter(
    "repro_service_checkpoint_devices_total",
    "Devices named by checkpoints: serialised as a new generation "
    "(written) or named unchanged from an earlier one (reused)",
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


def complete_checkpoints(store_dir) -> "list[pathlib.Path]":
    """Every checkpoint manifest in a store, oldest first (ids embed the
    journal frontier, ``ckpt-<next_seq:08d>``, so name order is creation
    order; a manifest is renamed into place, so each one is complete)."""
    return sorted((pathlib.Path(store_dir) / "checkpoints").glob("*.json"))


def latest_checkpoint(store_dir) -> "pathlib.Path | None":
    """The newest checkpoint manifest in a store, or ``None``."""
    complete = complete_checkpoints(store_dir)
    return complete[-1] if complete else None


def _replace_with(target: pathlib.Path, blob: bytes) -> None:
    """Write ``blob`` to ``target`` atomically, through a temp name
    beside it: a reader sees the whole file or none."""
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, target)


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
    """Serialise a device and its staged payload to ``target``, atomically."""
    _replace_with(target, _encode_device_file(arrays, payload))


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
    """The shared device fleet behind every shard.

    Creates one simulated device + :class:`ControlBoard` +
    :class:`~repro.core.pipeline.InvisibleBits` channel per ``device_id``
    on first use, and remembers the last staged payload bits per device
    (in RAM while it is resident, in its device file while it is cold)
    so receives can feed truth-referenced raw BER into the shard SLOs.
    Thread-safe, though the service touches it only from its event loop.

    With a ``store_dir``, device files live in its ``devices/`` as
    ``dev-<id hash>-<generation>.state``, each written once, and every
    checkpoint is one manifest in ``checkpoints/`` naming a generation
    per device: LRU eviction and checkpoints share the one store.
    """

    def __init__(
        self,
        *,
        device_name: str = "MSP430G2553",
        sram_kib: float = 0.25,
        scheme,
        seed: int = 0,
        max_resident: "int | None" = None,
        store_dir=None,
    ):
        if sram_kib <= 0:
            raise ConfigurationError(f"sram_kib must be > 0, got {sram_kib}")
        if max_resident is not None:
            if max_resident < 1:
                raise ConfigurationError(
                    f"max_resident must be >= 1, got {max_resident}"
                )
            if store_dir is None:
                raise ConfigurationError(
                    "max_resident needs a store_dir to evict into"
                )
        self.device_name = device_name
        self.sram_kib = sram_kib
        self.scheme = scheme
        self.seed = seed
        self.max_resident = max_resident
        self.store_dir = None
        if store_dir is not None:
            self.store_dir = pathlib.Path(store_dir)
            self._devices_dir = self.store_dir / "devices"
            self._devices_dir.mkdir(parents=True, exist_ok=True)
            (self.store_dir / "checkpoints").mkdir(exist_ok=True)
        # Re-entrant: payload() rehydrates a cold device through channel().
        self._lock = threading.RLock()
        #: Resident channels in least-recently-used order (first = coldest).
        self._channels: "OrderedDict[str, InvisibleBits]" = OrderedDict()
        #: Resident device_id -> its staged payload bits.
        self._payloads: "dict[str, np.ndarray]" = {}
        #: Evicted or restored device_id -> the generation holding its
        #: state; rehydrated lazily on next touch.
        self._cold: "dict[str, int]" = {}
        #: Devices of the running batch; pinned devices are never
        #: evicted, so a batch cannot evict its own earlier devices
        #: mid-batch.  Batches never overlap, so a set suffices.
        self._pins: "set[str]" = set()
        #: Resident devices changed since they were last stored (by
        #: :meth:`channel`, the only way to reach a device, or
        #: :meth:`store_payload`); the newest checkpoint names the rest.
        self._dirty: "set[str]" = set()
        #: The next generation number: no name is ever written twice.
        self._next_generation = 0
        #: ``(device_id, generation)`` written since the last checkpoint.
        self._written: "list[tuple[str, int]]" = []
        #: The newest checkpoint's device_id -> generation, and each pair
        #: as its JSON member, so a cut encodes only what changed.
        self._named: "dict[str, int]" = {}
        self._members: "dict[str, str]" = {}
        #: Kept checkpoint ids, oldest first, and the generations the
        #: oldest names and the newest does not: they go with it.
        self._kept: "list[str]" = []
        self._released: "list[tuple[str, int]]" = []
        self.evicted = 0
        self.rehydrated = 0
        #: Devices :meth:`snapshot` serialised vs. named unchanged.
        self.checkpoint_written = 0
        self.checkpoint_reused = 0

    def _device_path(self, device_id: str, generation: int) -> pathlib.Path:
        """Where one generation of a device's state lives in the store."""
        tag = hashlib.blake2b(device_id.encode(), digest_size=12).hexdigest()
        return self._devices_dir / f"dev-{tag}-{generation}.state"

    def _manifest_path(self, checkpoint_id: str) -> pathlib.Path:
        return self.store_dir / "checkpoints" / f"{checkpoint_id}.json"

    def _store(self, action: str) -> pathlib.Path:
        if self.store_dir is None:
            raise ConfigurationError(f"{action} needs a host with a store_dir")
        return self.store_dir

    def _write(self, device_id: str, channel: InvisibleBits) -> int:
        """Serialise a resident device and its staged payload as a new
        generation; returns the generation.  Caller holds the lock."""
        generation = self._next_generation
        self._next_generation += 1
        _write_device_file(
            self._device_path(device_id, generation),
            device_state_arrays(channel.board.device),
            self._payloads.get(device_id),
        )
        self._written.append((device_id, generation))
        return generation

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
        which lane serves the device.  A cold device (evicted, or
        restored lazily from a checkpoint) is rebuilt from the same seed
        and its stored generation applied on top — bit-identical to one
        that never left memory, because device files carry the exact
        aging clocks *and* the RNG stream position.
        """
        with self._lock:
            channel = self._channels.get(device_id)
            if channel is None:
                channel = self._fresh_channel(device_id)
                cold = self._cold.get(device_id)
                if cold is not None:
                    # A bad file raises and leaves the device cold: it
                    # never silently restarts as fresh silicon.
                    path = self._device_path(device_id, cold)
                    payload = _load_device_file(path, channel.board.device)
                    if payload is not None:
                        self._payloads[device_id] = payload
                    del self._cold[device_id]
                    self.rehydrated += 1
                    _REHYDRATED_TOTAL.inc()
                    telemetry.count("service.device_rehydrated")
                self._channels[device_id] = channel
            # The caller may change the device; its stored generation no
            # longer vouches for it.
            self._dirty.add(device_id)
            self._channels.move_to_end(device_id)
            self._maybe_evict(keep=device_id)
            return channel

    @contextmanager
    def pinned(self, device_ids):
        """Hold the named devices resident for the duration of a batch."""
        ids = set(device_ids)
        with self._lock:
            self._pins |= ids
        try:
            yield
        finally:
            with self._lock:
                self._pins -= ids
                # A fully-pinned batch can push residency over the cap;
                # sweep now that these devices are evictable again.
                self._maybe_evict()

    def _maybe_evict(self, *, keep: "str | None" = None) -> None:
        """Evict coldest unpinned devices down to ``max_resident``.

        Caller holds the lock.  A changed device is written to the store
        as a new generation; an unchanged one keeps the generation that
        already holds its state.  Pinned (mid-batch) devices are skipped —
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
            if victim in self._dirty:
                self._cold[victim] = self._write(victim, channel)
                self._dirty.discard(victim)
            else:
                self._cold[victim] = self._named[victim]
            self._payloads.pop(victim, None)
            self.evicted += 1
            _EVICTED_TOTAL.inc()
            telemetry.count("service.device_evicted")

    def store_payload(self, device_id: str, payload_bits: np.ndarray) -> None:
        """Remember a resident device's staged payload (a send calls this
        right after :meth:`channel`, with the device pinned)."""
        with self._lock:
            # The device's stored generation holds its old payload.
            self._dirty.add(device_id)
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
        """Every device this host knows, resident or cold."""
        with self._lock:
            return len(self._channels) + len(self._cold)

    @property
    def n_resident(self) -> int:
        with self._lock:
            return len(self._channels)

    # -- checkpoint / restore -----------------------------------------------------

    def snapshot(
        self, checkpoint_id: str, *, extra: "dict | None" = None
    ) -> dict:
        """Cut checkpoint ``checkpoint_id`` into the store; returns its
        manifest.

        Writes a new generation of each device touched (through
        :meth:`channel` or :meth:`store_payload`) since it was last
        stored, then ``checkpoints/<checkpoint_id>.json``: the fleet
        parameters, every device's generation and any ``extra`` the
        caller carries (the service's completed-sequence frontier).
        Untouched devices keep their generations, so the cost follows
        the devices touched, not the fleet; :meth:`_prune` then retires
        what the manifest supersedes.  The service cuts it between
        batches, on the event loop that runs them.
        """
        self._store("snapshot()")
        with self._lock:
            for device_id in self._dirty:
                self._write(device_id, self._channels[device_id])
            written = len(self._dirty)
            # A device's last write since the previous cut holds its
            # state.  Each generation a write replaces was named by the
            # previous manifest (released) or by none (unnamed).
            devices, members = dict(self._named), dict(self._members)
            released, unnamed = [], []
            for device_id, generation in self._written:
                stale = devices.get(device_id)
                if stale is not None:
                    named = stale == self._named.get(device_id)
                    (released if named else unnamed).append((device_id, stale))
                devices[device_id] = generation
                members[device_id] = f"{json.dumps(device_id)}:{generation}"
            reused = len(devices) - written
            manifest = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "checkpoint": checkpoint_id,
                "device_name": self.device_name,
                "sram_kib": self.sram_kib,
                "seed": self.seed,
                **(extra or {}),
            }
            head = json.dumps(manifest, separators=(",", ":"))
            body = ",".join(members.values())
            _replace_with(
                self._manifest_path(checkpoint_id),
                f'{head[:-1]},"devices":{{{body}}}}}'.encode(),
            )
            manifest["devices"] = devices
            self.checkpoint_written += written
            self.checkpoint_reused += reused
            self._dirty.clear()
            self._named, self._members, self._written = devices, members, []
            self._prune(checkpoint_id, released, unnamed)
        telemetry.count("service.checkpoint_devices", len(devices))
        telemetry.count("service.checkpoint_devices_written", written)
        telemetry.count("service.checkpoint_devices_reused", reused)
        _CHECKPOINT_DEVICES_TOTAL.inc(written, mode="written")
        _CHECKPOINT_DEVICES_TOTAL.inc(reused, mode="reused")
        return manifest

    def _prune(self, checkpoint_id: str, released, unnamed) -> None:
        """Keep the newest :data:`KEEP_CHECKPOINTS` checkpoints and delete
        every generation none of them names and no cold device holds.

        ``released`` (named by the previous newest manifest, not this
        one) go with the older kept manifest; ``unnamed`` (written since
        the last cut, named by none) go now.  A manifest goes before its
        generations, so a prune cut short leaves unnamed files for
        :meth:`restore` to sweep.  No directory is listed.
        """
        doomed = list(unnamed)
        if checkpoint_id in self._kept[-1:]:
            # A re-cut (no admit since the last cut) replaced the newest
            # manifest: what only it named goes now.  Rare, so the older
            # manifest is read rather than kept in memory.
            older = {}
            if len(self._kept) > 1:
                path = self._manifest_path(self._kept[0])
                older = self._read_manifest(path)["devices"]
            doomed += [r for r in released if older.get(r[0]) != r[1]]
            released = [r for r in released if older.get(r[0]) == r[1]]
        else:
            self._kept.append(checkpoint_id)
        if len(self._kept) > KEEP_CHECKPOINTS:
            self._manifest_path(self._kept.pop(0)).unlink(missing_ok=True)
            doomed, self._released = doomed + self._released, []
        self._released.extend(released)
        for device_id, generation in doomed:
            self._device_path(device_id, generation).unlink(missing_ok=True)

    def _read_manifest(self, path: pathlib.Path) -> dict:
        """A checkpoint manifest, checked against this host's fleet."""
        manifest = json.loads(path.read_text())
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise JournalError(f"{path}: not a fleet checkpoint")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise JournalError(
                f"{path}: unsupported checkpoint version "
                f"{manifest.get('version')}"
            )
        for field in ("device_name", "sram_kib", "seed"):
            ours, theirs = getattr(self, field), manifest.get(field)
            if theirs != ours:
                raise JournalError(
                    f"{path}: checkpoint {field}={theirs!r} does not "
                    f"match this host's {field}={ours!r}"
                )
        return manifest

    def restore(self) -> "dict | None":
        """Become the store's newest checkpoint (returned; ``None`` when
        there is none); devices rehydrate lazily.

        Checks the kept manifests against this host's fleet and reads
        every device file the newest names, so a bad one refuses the
        checkpoint at restart, not at some later request.  Then one
        sweep deletes what a crash left: older manifests, temp files and
        every device file no kept manifest names.  A version 3 store (a
        directory of device files per checkpoint) is refused.
        """
        root = self._store("restore()") / "checkpoints"
        if any(path.is_dir() for path in root.iterdir()):
            raise JournalError(
                f"{root}: version 3 checkpoint directories (device files "
                f"per checkpoint); only version {CHECKPOINT_VERSION} "
                "manifests over one device store are read"
            )
        manifests = complete_checkpoints(self.store_dir)
        kept = [self._read_manifest(p) for p in manifests[-KEEP_CHECKPOINTS:]]
        newest = kept[-1]["devices"] if kept else {}
        for device_id, generation in newest.items():
            _read_device_file(self._device_path(device_id, generation))
        named = {
            self._device_path(device_id, generation).name
            for manifest in kept
            for device_id, generation in manifest["devices"].items()
        }
        for path in [
            *manifests[:-KEEP_CHECKPOINTS],
            *root.glob("*.tmp"),
            *(p for p in self._devices_dir.iterdir() if p.name not in named),
        ]:
            path.unlink()
        with self._lock:
            self._channels.clear()
            self._payloads.clear()
            self._dirty.clear()
            self._cold, self._named, self._written = dict(newest), newest, []
            self._members = {
                d: f"{json.dumps(d)}:{g}" for d, g in newest.items()
            }
            self._kept = [manifest["checkpoint"] for manifest in kept]
            self._released = [
                (d, g)
                for d, g in (kept[0]["devices"] if kept else {}).items()
                if newest.get(d) != g
            ]
            self._next_generation = 1 + max(
                (g for m in kept for g in m["devices"].values()), default=-1
            )
        return kept[-1] if kept else None

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
            for device_id, generation in self._cold.items():
                path = self._device_path(device_id, generation)
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
    every lane's batches on its event loop, so no two batches (of this
    lane or any other) ever execute concurrently.  A batch that
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

    # -- execution (on the event loop) --------------------------------------------

    def execute_batch(self, jobs: "list[Job]"):
        """Run a batch; returns ``([(job, result-or-exception)], reason)``.

        Runs on the service's event loop.  Sends run per-device (they
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
        # the host LRU evict an earlier one this batch still holds.
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
