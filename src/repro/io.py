"""Host-side persistence: captures, enrollments and key material on disk.

A real deployment separates capture from analysis: the field laptop stores
power-on captures from the debug probe; decoding and steganalysis happen
later, elsewhere.  This module is that interchange layer — a small, stable,
self-describing JSON+hex container (no pickle: capture files cross trust
boundaries).
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from .bitutils import Captures, bits_to_bytes, bytes_to_bits
from .errors import ConfigurationError

FORMAT_VERSION = 1
#: Format tag of a :func:`device_state_arrays` mapping.
DEVICE_STATE_FORMAT = "invisible-bits/device-state"
#: The per-cell NBTI clock arrays of a device-state mapping, in order.
AGING_CLOCKS = ("stress_1", "relax_1", "stress_0", "relax_0")


def _check_path(path) -> pathlib.Path:
    return pathlib.Path(path)


def save_captures(
    path,
    samples: np.ndarray,
    *,
    device_name: str = "",
    device_id: bytes = b"",
    metadata: "dict | None" = None,
) -> None:
    """Persist power-on captures.

    ``samples`` follows the repo-wide :data:`~repro.bitutils.Captures`
    convention — shape ``(n_captures, n_bits)``, dtype ``uint8`` — the
    same layout returned by :meth:`ControlBoard.capture_power_on_states`
    and :meth:`InvisibleBits.capture_samples`, so captures round-trip
    through disk unchanged.
    """
    samples = np.asarray(samples, dtype=np.uint8)
    if samples.ndim != 2 or samples.shape[1] % 8:
        raise ConfigurationError(
            "captures must be (n_captures, n_bits) with whole-byte rows"
        )
    payload = {
        "format": "invisible-bits/captures",
        "version": FORMAT_VERSION,
        "device_name": device_name,
        "device_id": device_id.hex(),
        "n_captures": int(samples.shape[0]),
        "n_bits": int(samples.shape[1]),
        "captures": [bits_to_bytes(row).hex() for row in samples],
        "metadata": metadata or {},
    }
    _check_path(path).write_text(json.dumps(payload, indent=1))


def load_captures(path) -> "tuple[Captures, dict]":
    """Load captures; returns ``(samples, info)`` where ``info`` carries
    the device name/ID and any metadata.

    ``samples`` is :data:`~repro.bitutils.Captures`: shape
    ``(n_captures, n_bits)``, dtype ``uint8`` — exactly what
    :func:`save_captures` was given.
    """
    raw = json.loads(_check_path(path).read_text())
    if raw.get("format") != "invisible-bits/captures":
        raise ConfigurationError(f"{path}: not a captures file")
    if raw.get("version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported version {raw.get('version')}"
        )
    n_bits = int(raw["n_bits"])
    samples = np.stack(
        [bytes_to_bits(bytes.fromhex(row))[:n_bits] for row in raw["captures"]]
    ).astype(np.uint8, copy=False)
    if samples.shape[0] != raw["n_captures"]:
        raise ConfigurationError(f"{path}: capture count mismatch")
    info = {
        "device_name": raw.get("device_name", ""),
        "device_id": bytes.fromhex(raw.get("device_id", "")),
        "metadata": raw.get("metadata", {}),
    }
    return samples, info


def save_enrollment(path, enrollment) -> None:
    """Persist a PUF enrollment (:class:`repro.puf.PufEnrollment`)."""
    payload = {
        "format": "invisible-bits/enrollment",
        "version": FORMAT_VERSION,
        "device_name": enrollment.device_name,
        "n_captures": enrollment.n_captures,
        "n_bits": int(enrollment.reference.size),
        "reference": bits_to_bytes(enrollment.reference).hex(),
    }
    _check_path(path).write_text(json.dumps(payload, indent=1))


def load_enrollment(path):
    """Load a PUF enrollment."""
    from .puf.sram_puf import PufEnrollment

    raw = json.loads(_check_path(path).read_text())
    if raw.get("format") != "invisible-bits/enrollment":
        raise ConfigurationError(f"{path}: not an enrollment file")
    reference = bytes_to_bits(bytes.fromhex(raw["reference"]))[: raw["n_bits"]]
    return PufEnrollment(
        device_name=raw["device_name"],
        reference=reference,
        n_captures=int(raw["n_captures"]),
    )


def silicon_digest(mismatch: np.ndarray) -> str:
    """A short digest naming a device's manufacture-time silicon.

    The static ``mismatch`` array is fixed at manufacture (a pure
    function of the device's seed); only the aging clocks change.  The
    fleet service stores this digest in place of the array.
    """
    return hashlib.blake2b(
        np.ascontiguousarray(mismatch).tobytes(), digest_size=8
    ).hexdigest()


def _aging_clocks(sram) -> dict:
    """The device's live NBTI clock arrays, keyed by :data:`AGING_CLOCKS`."""
    return dict(
        zip(
            AGING_CLOCKS,
            (
                sram.age_when_1.stress_seconds,
                sram.age_when_1.relax_seconds,
                sram.age_when_0.stress_seconds,
                sram.age_when_0.relax_seconds,
            ),
        )
    )


def device_state_arrays(device, *, rng_state: bool = True) -> dict:
    """The self-contained array mapping behind a device-state snapshot.

    Shared by :func:`save_device_state` (which writes it to ``.npz``) and
    the fleet service's device files (which store everything but
    ``mismatch``, named by :func:`silicon_digest` instead, and rebuild
    the rest into this mapping on read).  The device must be powered off.

    ``rng_state=True`` additionally captures the exact position of the
    device's noise RNG stream (as a JSON-encoded bit-generator state), so
    a restored device draws the *same* future capture noise as one that
    was never snapshotted — the property the crash-restart bit-identity
    oracle rests on.  Statistical resume (the original campaign use case)
    does not need it.
    """
    from .errors import PowerError

    if device.powered:
        raise PowerError("power the device down before snapshotting")
    sram = device.sram
    # Fold any deferred shelf-time recovery into the per-cell clocks so the
    # snapshot is self-contained (the format has no pending-relax field).
    sram.age_when_1.flush_relax()
    sram.age_when_0.flush_relax()
    arrays = {
        "format": np.array(DEVICE_STATE_FORMAT),
        "version": np.array(FORMAT_VERSION),
        "device_name": np.array(device.spec.name),
        "device_id": np.frombuffer(device.device_id, dtype=np.uint8),
        "n_bits": np.array(sram.n_bits),
        "mismatch": sram.mismatch,
        **_aging_clocks(sram),
        "toggle_count": np.array(sram.toggle_count),
    }
    if rng_state:
        arrays["rng_state"] = np.array(
            json.dumps(device._rng.bit_generator.state)
        )
    return arrays


def apply_device_state(device, raw, *, source: str = "snapshot") -> None:
    """Restore a :func:`device_state_arrays` mapping into ``device``.

    The target must be the same model and SRAM size.  When the mapping
    carries an ``rng_state`` entry the device's noise RNG is rewound to
    the captured position; otherwise the target keeps its own stream and
    only the analog state is replaced.
    """
    if str(raw["format"]) != DEVICE_STATE_FORMAT:
        raise ConfigurationError(f"{source}: not a device-state file")
    if int(raw["version"]) != FORMAT_VERSION:
        raise ConfigurationError(f"{source}: unsupported version")
    if str(raw["device_name"]) != device.spec.name:
        raise ConfigurationError(
            f"{source}: snapshot is for {raw['device_name']}, "
            f"target is {device.spec.name}"
        )
    if int(raw["n_bits"]) != device.sram.n_bits:
        raise ConfigurationError(f"{source}: SRAM size mismatch")
    sram = device.sram
    sram.mismatch[...] = raw["mismatch"]
    for key, clock in _aging_clocks(sram).items():
        clock[...] = raw[key]
    # The snapshot's clocks are authoritative: discard any deferred relax
    # the target accumulated, and drop its memoised analog state.
    sram.age_when_1.pending_relax = 0.0
    sram.age_when_0.pending_relax = 0.0
    sram.toggle_count = float(raw["toggle_count"])
    sram.invalidate_analog_caches()
    device.device_id = bytes(np.asarray(raw["device_id"]).tobytes())
    if "rng_state" in getattr(raw, "files", raw):
        device._rng.bit_generator.state = json.loads(str(raw["rng_state"]))


def save_device_state(path, device, *, rng_state: bool = True) -> None:
    """Persist a simulated device's full analog state (mismatch + aging).

    Long campaigns (14-week shelf studies, multi-session fleets) can stop
    and resume without recomputing stress history.  Uses numpy's ``.npz``
    container; power must be off (a real device also only travels cold).
    """
    np.savez_compressed(
        _check_path(path), **device_state_arrays(device, rng_state=rng_state)
    )


def load_device_state(path, device) -> None:
    """Restore a snapshot into a compatible (same model, same size) device.

    Snapshots written with ``rng_state`` (the default since the service
    durability layer) also rewind the device's noise RNG; older snapshots
    leave the target's own stream in place.
    """
    raw = np.load(_check_path(path))
    apply_device_state(device, raw, source=str(path))


def save_helper_data(path, helper) -> None:
    """Persist fuzzy-extractor helper data (public by construction)."""
    payload = {
        "format": "invisible-bits/helper",
        "version": FORMAT_VERSION,
        "copies": helper.copies,
        "secret_bits": helper.secret_bits,
        "offset": bits_to_bytes(helper.offset).hex(),
    }
    _check_path(path).write_text(json.dumps(payload, indent=1))


def load_helper_data(path):
    """Load fuzzy-extractor helper data."""
    from .puf.fuzzy import HelperData

    raw = json.loads(_check_path(path).read_text())
    if raw.get("format") != "invisible-bits/helper":
        raise ConfigurationError(f"{path}: not a helper-data file")
    offset = bytes_to_bits(bytes.fromhex(raw["offset"]))
    expected = int(raw["copies"]) * int(raw["secret_bits"])
    return HelperData(
        offset=offset[:expected],
        copies=int(raw["copies"]),
        secret_bits=int(raw["secret_bits"]),
    )
