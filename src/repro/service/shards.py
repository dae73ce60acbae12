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
import pathlib
import shutil
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from .. import metrics, telemetry
from ..telemetry import context as trace_ctx
from ..api import receive_result, send_result
from ..core.fleetcapture import capture_fleet
from ..core.pipeline import InvisibleBits
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
from ..io import apply_device_state, device_state_arrays
from .queue import Job

__all__ = ["FleetHost", "Shard", "ShardRouter", "stable_seed"]

#: Fleet checkpoint manifest format tag (docs/service.md).
CHECKPOINT_FORMAT = "invisible-bits/fleet-checkpoint"
CHECKPOINT_VERSION = 1

_EVICTED_TOTAL = metrics.counter(
    "repro_service_devices_evicted_total",
    "Devices archived to disk by the FleetHost LRU",
)
_REHYDRATED_TOTAL = metrics.counter(
    "repro_service_devices_rehydrated_total",
    "Devices restored from archive/checkpoint on first touch",
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
        use_firmware: bool = False,
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
        self.use_firmware = use_firmware
        self.max_resident = max_resident
        self.archive_dir = (
            pathlib.Path(archive_dir) if archive_dir is not None else None
        )
        self._lock = threading.Lock()
        #: Resident channels in least-recently-used order (first = coldest).
        self._channels: "OrderedDict[str, InvisibleBits]" = OrderedDict()
        self._payloads: "dict[str, np.ndarray]" = {}
        #: device_id -> on-disk .npz holding its state (LRU archive or a
        #: restored checkpoint); rehydrated lazily on next touch.
        self._cold: "dict[str, pathlib.Path]" = {}
        #: device_id -> pin count; pinned devices are never evicted (a
        #: shard thread is mutating them mid-batch).
        self._pins: "dict[str, int]" = {}
        self.evicted = 0
        self.rehydrated = 0

    def _device_file(self, device_id: str) -> str:
        """A filesystem-safe, collision-free file name for a device."""
        tag = hashlib.blake2b(device_id.encode(), digest_size=12).hexdigest()
        return f"dev-{tag}.npz"

    def _fresh_channel(self, device_id: str) -> InvisibleBits:
        device = make_varied_device(
            self.device_name,
            rng=stable_seed("device", self.seed, device_id),
            sram_kib=self.sram_kib,
        )
        return InvisibleBits(
            ControlBoard(device),
            scheme=self.scheme,
            use_firmware=self.use_firmware,
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
            channel = self._channels.get(device_id)
            if channel is None:
                channel = self._fresh_channel(device_id)
                cold = self._cold.pop(device_id, None)
                if cold is not None:
                    with np.load(cold) as raw:
                        apply_device_state(
                            channel.board.device, raw, source=str(cold)
                        )
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
            self.archive_dir.mkdir(parents=True, exist_ok=True)
            path = self.archive_dir / self._device_file(victim)
            np.savez_compressed(
                path, **device_state_arrays(channel.board.device)
            )
            self._cold[victim] = path
            self.evicted += 1
            _EVICTED_TOTAL.inc()
            telemetry.count("service.device_evicted")

    def store_payload(self, device_id: str, payload_bits: np.ndarray) -> None:
        with self._lock:
            self._payloads[device_id] = payload_bits

    def payload(self, device_id: str) -> "np.ndarray | None":
        with self._lock:
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
        """Write the whole fleet's state under ``directory``.

        One ``.npz`` per device (the :func:`repro.io.device_state_arrays`
        format, RNG stream included) plus a ``manifest.json`` naming the
        fleet parameters, per-device files, staged payloads, and any
        ``extra`` bookkeeping the caller wants carried (the service puts
        its completed-sequence frontier here).  Archived devices are
        copied from the LRU archive without rehydrating them.  Returns
        the manifest.
        """
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            devices: "dict[str, str]" = {}
            for device_id, channel in self._channels.items():
                name = self._device_file(device_id)
                np.savez_compressed(
                    directory / name,
                    **device_state_arrays(channel.board.device),
                )
                devices[device_id] = name
            for device_id, cold_path in self._cold.items():
                name = self._device_file(device_id)
                target = directory / name
                # A no-new-work restart re-cuts the checkpoint it was
                # restored from under the same id: the cold source *is*
                # the target, and its content is already current.
                if not target.exists() or not cold_path.samefile(target):
                    shutil.copyfile(cold_path, target)
                devices[device_id] = name
            manifest = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "device_name": self.device_name,
                "sram_kib": self.sram_kib,
                "seed": self.seed,
                "use_firmware": self.use_firmware,
                "devices": devices,
                "payloads": {
                    device_id: {
                        "n_bits": int(bits.size),
                        "packed_hex": np.packbits(
                            bits.astype(np.uint8)
                        ).tobytes().hex(),
                    }
                    for device_id, bits in self._payloads.items()
                },
                **(extra or {}),
            }
        tmp = directory / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        tmp.replace(directory / "manifest.json")
        telemetry.count("service.checkpoint_devices", len(devices))
        return manifest

    def restore(self, directory) -> dict:
        """Adopt a :meth:`snapshot` directory; devices rehydrate lazily.

        Validates the manifest against this host's fleet parameters,
        loads the staged-payload map eagerly (it is small and receives
        need it), and records each device's file as a cold source —
        first touch rebuilds the device and applies the snapshot.
        Returns the manifest.
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
        for field in ("device_name", "sram_kib", "seed", "use_firmware"):
            ours = getattr(self, field)
            theirs = manifest.get(field)
            if theirs != ours:
                raise JournalError(
                    f"{directory}: checkpoint {field}={theirs!r} does not "
                    f"match this host's {field}={ours!r}"
                )
        with self._lock:
            for device_id, name in manifest["devices"].items():
                path = directory / name
                if not path.exists():
                    raise JournalError(f"{directory}: missing device file {name}")
                self._channels.pop(device_id, None)
                self._cold[device_id] = path
            self._payloads.update(
                {
                    device_id: np.unpackbits(
                        np.frombuffer(
                            bytes.fromhex(entry["packed_hex"]), dtype=np.uint8
                        )
                    )[: entry["n_bits"]].astype(np.uint8)
                    for device_id, entry in manifest["payloads"].items()
                }
            )
        return manifest

    def state_digest(self) -> str:
        """A stable digest of every device's analog state + RNG position.

        Two hosts that digest equal will produce bit-identical results
        for any identical future request sequence — the crash-restart
        differential oracle's equality anchor.  Resident devices hash
        their live arrays (deferred relax flushed first — flush order is
        analytically invariant, pinned by the NBTI oracles); cold devices
        hash their snapshot files' arrays, which is the same data.
        """
        with self._lock:
            entries = []
            for device_id, channel in self._channels.items():
                entries.append(
                    (device_id, device_state_arrays(channel.board.device))
                )
            for device_id, path in self._cold.items():
                with np.load(path) as raw:
                    entries.append((device_id, dict(raw.items())))
            payloads = {
                device_id: bits.astype(np.uint8).tobytes()
                for device_id, bits in self._payloads.items()
            }
        h = hashlib.sha256()
        for device_id, arrays in sorted(entries):
            h.update(device_id.encode())
            for key in (
                "mismatch", "stress_1", "relax_1", "stress_0", "relax_0",
                "toggle_count", "device_id",
            ):
                h.update(np.ascontiguousarray(arrays[key]).tobytes())
            if "rng_state" in arrays:
                h.update(str(arrays["rng_state"]).encode())
        for device_id in sorted(payloads):
            h.update(device_id.encode())
            h.update(payloads[device_id])
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
        raw_ber_limit: float = 0.2,
        retry_budget: int = 25,
        fault_plan: "FaultPlan | None" = None,
        fault_salt: int = 0,
    ):
        if not name:
            raise ConfigurationError("shard needs a name")
        self.name = name
        self.host = host
        self.raw_ber_limit = raw_ber_limit
        self.retry_budget = retry_budget
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

        # Pin the batch's devices: the host LRU must not archive a device
        # while this thread holds its channel mid-mutation.
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
            "raw-ber-slo": ("max raw BER", worst_ber, self.raw_ber_limit),
            "retry-slo": ("extra attempts", extra, self.retry_budget),
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
            request = job.request
            payload = self.host.payload(request.device_id)
            if payload is None:
                outcomes[id(job)] = ServiceError(
                    f"device {request.device_id!r} has no staged message "
                    "on this service"
                )
                continue
            try:
                staged.append(
                    (job, lane(self.host.channel(request.device_id)), payload)
                )
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
                    job.phases["decode"] = (
                        job.phases.get("decode", 0.0)
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
