"""The stable request/result surface shared by library and service.

Every way of pushing a message through the channel — a direct
:class:`~repro.core.pipeline.InvisibleBits` call, a fleet-wide
:func:`~repro.core.batch.encode_fleet`, or a job submitted to the
:mod:`repro.service` frontend — speaks the same four frozen value
objects:

- :class:`SendRequest` / :class:`SendResult` — embed a message on a
  device (Algorithm 1);
- :class:`ReceiveRequest` / :class:`ReceiveResult` — recover a message
  from a device's power-on states (Algorithm 2).

The request types carry only pre-shared or routing information (a
``device_id`` and the message/length), never simulator handles, so they
serialize losslessly — :meth:`SendRequest.to_dict` /
:meth:`SendRequest.from_dict` are the service's HTTP wire contract.
Results carry compact digests of the analog bits involved
(:func:`bits_digest`) so bit-identity can be asserted across runs and
hosts without shipping arrays.

``repro.api.__all__`` is exact: everything public here is in it, and the
facade test suite locks the two together.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ReceiveRequest",
    "ReceiveResult",
    "SendRequest",
    "SendResult",
    "bits_digest",
    "receive_result",
    "send_result",
]


def bits_digest(bits) -> str:
    """A short stable digest of a bit array (payloads, power-on states).

    Hashes the packed bytes *and* the bit length, so ``[1, 0]`` and
    ``[1, 0, 0]`` digest differently.  16 hex chars — enough to assert
    bit-identity across runs without shipping the array.
    """
    arr = np.ascontiguousarray(np.asarray(bits, dtype=np.uint8))
    if arr.ndim != 1:
        raise ConfigurationError(f"bits must be 1-D, got shape {arr.shape}")
    h = hashlib.sha256()
    h.update(str(arr.size).encode())
    h.update(np.packbits(arr).tobytes())
    return h.hexdigest()[:16]


def _require_device_id(device_id) -> None:
    if not isinstance(device_id, str) or not device_id:
        raise ConfigurationError(
            f"device_id must be a non-empty string, got {device_id!r}"
        )


def _require_idempotency_key(key) -> None:
    if key is None:
        return
    if not isinstance(key, str) or not key:
        raise ConfigurationError(
            f"idempotency_key must be a non-empty string or None, got {key!r}"
        )


def _require_trace_id(trace_id) -> None:
    if trace_id is None:
        return
    if not isinstance(trace_id, str) or not trace_id:
        raise ConfigurationError(
            f"trace_id must be a non-empty string or None, got {trace_id!r}"
        )


@dataclass(frozen=True)
class SendRequest:
    """Embed ``message`` on the device addressed by ``device_id``.

    ``device_id`` is an opaque routing key: the library echoes it back on
    the result, the service uses it to shard and to pin the simulated
    device it provisions.  ``stress_hours=None`` takes the device
    recipe's default.

    ``idempotency_key`` makes retries safe against a journaled service:
    a resubmission carrying the key of an already-completed request gets
    the cached result back instead of aging the silicon a second time.
    ``None`` means "no dedup" — the service assigns a fresh internal key.

    ``trace_id`` correlates the request with a distributed trace (see
    :mod:`repro.telemetry.context`); ``None`` means "adopt the ambient
    trace context, or mint a fresh id at admission".
    """

    device_id: str
    message: bytes
    stress_hours: "float | None" = None
    camouflage: bool = True
    idempotency_key: "str | None" = None
    trace_id: "str | None" = None

    def __post_init__(self) -> None:
        _require_device_id(self.device_id)
        _require_idempotency_key(self.idempotency_key)
        _require_trace_id(self.trace_id)
        if not isinstance(self.message, bytes):
            raise ConfigurationError(
                f"message must be bytes, got {type(self.message).__name__}"
            )
        if not self.message:
            raise ConfigurationError("message must not be empty")
        if self.stress_hours is not None and self.stress_hours <= 0:
            raise ConfigurationError(
                f"stress_hours must be positive, got {self.stress_hours}"
            )

    def to_dict(self) -> dict:
        return {
            "device_id": self.device_id,
            "message_hex": self.message.hex(),
            "stress_hours": self.stress_hours,
            "camouflage": self.camouflage,
            "idempotency_key": self.idempotency_key,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SendRequest":
        try:
            message = bytes.fromhex(data["message_hex"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"send request needs a hex 'message_hex' field: {exc}"
            ) from exc
        return cls(
            device_id=data.get("device_id", ""),
            message=message,
            stress_hours=data.get("stress_hours"),
            camouflage=bool(data.get("camouflage", True)),
            idempotency_key=data.get("idempotency_key"),
            trace_id=data.get("trace_id"),
        )


@dataclass(frozen=True)
class SendResult:
    """What the sender learned: the encode provenance, no simulator state.

    ``payload_digest`` is :func:`bits_digest` of the staged payload bits
    — two ends (or two runs) that agree on it staged identical analog
    payloads.  ``shard`` is filled by the service with the shard that
    executed the job (``None`` for direct library calls).
    """

    device_id: str
    message_bytes: int
    coded_bits: int
    stress_hours: float
    encrypted: bool
    payload_digest: str
    shard: "str | None" = None

    def to_dict(self) -> dict:
        # Explicit rather than ``dataclasses.asdict``: no deepcopy walk on
        # every journal record and HTTP response; same keys, same order.
        return {
            "device_id": self.device_id,
            "message_bytes": self.message_bytes,
            "coded_bits": self.coded_bits,
            "stress_hours": self.stress_hours,
            "encrypted": self.encrypted,
            "payload_digest": self.payload_digest,
            "shard": self.shard,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SendResult":
        return cls(**{k: data[k] for k in (
            "device_id", "message_bytes", "coded_bits", "stress_hours",
            "encrypted", "payload_digest", "shard",
        )})


@dataclass(frozen=True)
class ReceiveRequest:
    """Recover a message from the device addressed by ``device_id``.

    ``message_len`` is required for unframed schemes and optional for the
    default self-describing frame (exactly the
    :meth:`~repro.core.pipeline.InvisibleBits.receive` contract).
    """

    device_id: str
    message_len: "int | None" = None
    idempotency_key: "str | None" = None
    trace_id: "str | None" = None

    def __post_init__(self) -> None:
        _require_device_id(self.device_id)
        _require_idempotency_key(self.idempotency_key)
        _require_trace_id(self.trace_id)
        if self.message_len is not None and self.message_len < 1:
            raise ConfigurationError(
                f"message_len must be >= 1, got {self.message_len}"
            )

    def to_dict(self) -> dict:
        return {
            "device_id": self.device_id,
            "message_len": self.message_len,
            "idempotency_key": self.idempotency_key,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReceiveRequest":
        return cls(
            device_id=data.get("device_id", ""),
            message_len=data.get("message_len"),
            idempotency_key=data.get("idempotency_key"),
            trace_id=data.get("trace_id"),
        )


@dataclass(frozen=True)
class ReceiveResult:
    """The recovered message plus the channel diagnostics that travel.

    ``state_digest`` is :func:`bits_digest` of the majority-voted
    power-on state the message was decoded from — the bit-identity
    anchor for differential runs.  ``raw_ber`` is filled only when the
    executing side knew the true payload (the service does, for devices
    it encoded itself); ``degraded``/``escalation_rounds`` carry the
    self-healing provenance of :class:`~repro.core.pipeline.DecodeResult`.
    """

    device_id: str
    message: bytes
    n_captures: int
    total_captures: int
    raw_ber: "float | None"
    ecc_corrections: "int | None"
    escalation_rounds: int
    degraded: bool
    state_digest: str
    shard: "str | None" = None

    def to_dict(self) -> dict:
        # Field order with ``message`` moved last as ``message_hex``.
        return {
            "device_id": self.device_id,
            "n_captures": self.n_captures,
            "total_captures": self.total_captures,
            "raw_ber": self.raw_ber,
            "ecc_corrections": self.ecc_corrections,
            "escalation_rounds": self.escalation_rounds,
            "degraded": self.degraded,
            "state_digest": self.state_digest,
            "shard": self.shard,
            "message_hex": self.message.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReceiveResult":
        try:
            message = bytes.fromhex(data["message_hex"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"receive result needs a hex 'message_hex' field: {exc}"
            ) from exc
        return cls(
            device_id=data["device_id"],
            message=message,
            n_captures=data["n_captures"],
            total_captures=data["total_captures"],
            raw_ber=data.get("raw_ber"),
            ecc_corrections=data.get("ecc_corrections"),
            escalation_rounds=data.get("escalation_rounds", 0),
            degraded=bool(data.get("degraded", False)),
            state_digest=data["state_digest"],
            shard=data.get("shard"),
        )


def send_result(device_id: str, encode, *, shard: "str | None" = None) -> SendResult:
    """Build a :class:`SendResult` from an
    :class:`~repro.core.pipeline.EncodeResult` (duck-typed so fleet
    probes can supply the same fields without the class)."""
    return SendResult(
        device_id=device_id,
        message_bytes=int(encode.message_bytes),
        coded_bits=int(encode.coded_bits),
        stress_hours=float(encode.stress_hours),
        encrypted=bool(encode.encrypted),
        payload_digest=bits_digest(encode.payload_bits),
        shard=shard,
    )


def receive_result(
    device_id: str, decode, *, shard: "str | None" = None
) -> ReceiveResult:
    """Build a :class:`ReceiveResult` from a
    :class:`~repro.core.pipeline.DecodeResult`."""
    return ReceiveResult(
        device_id=device_id,
        message=decode.message,
        n_captures=int(decode.n_captures),
        total_captures=int(decode.total_captures),
        raw_ber=decode.raw_error_vs,
        ecc_corrections=decode.ecc_corrections,
        escalation_rounds=int(decode.escalation_rounds),
        degraded=bool(decode.degraded),
        state_digest=bits_digest(decode.power_on_state),
        shard=shard,
    )
