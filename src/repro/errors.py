"""Exception hierarchy for the Invisible Bits reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError``, ``ValueError`` from numpy,
etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class DeviceError(ReproError):
    """Base class for simulated-hardware failures."""


class PowerError(DeviceError):
    """An operation needed power (or the absence of it) and did not have it."""


class OverstressError(DeviceError):
    """The applied voltage or temperature exceeds the device's absolute
    maximum ratings and would destroy a real part."""


class DebugPortError(DeviceError):
    """The debug port was used in an invalid state (e.g. target unpowered)."""


class FirmwareError(DeviceError):
    """Firmware loading or execution failed."""


class RetryExhaustedError(DeviceError):
    """A retried operation kept failing until its attempt budget ran out.

    Raised by :meth:`repro.faults.retry.RetryPolicy.call` (and by the
    adaptive capture escalation in
    :meth:`repro.core.pipeline.InvisibleBits.receive` when the capture
    ceiling is reached with the payload still undecodable).  The final
    underlying failure is chained as ``__cause__``; :attr:`attempts`
    records how many tries were spent.
    """

    def __init__(self, message: str, *, attempts: int = 0):
        self.attempts = attempts
        super().__init__(message)


class QuarantinedDeviceError(DeviceError):
    """The target slot has been quarantined by a health ledger.

    :class:`repro.harness.rack.EncodingRack` stops dispatching work to a
    slot after it fails ``quarantine_after`` consecutive times; further
    operations on that slot raise this error instead of touching the
    (presumed-bad) hardware.  :attr:`slot` is the rack slot index.
    """

    def __init__(self, message: str, *, slot: "int | None" = None):
        self.slot = slot
        super().__init__(message)


class SlotError(ReproError):
    """A per-slot rack operation failed; the original error is chained.

    ``EncodingRack`` and ``encode_fleet`` wrap a slot's exception in this
    type (via :meth:`wrap`) so a single flaky board identifies itself
    (``slot`` index, device name) instead of killing the whole tray
    anonymously.
    """

    def __init__(self, message: str, *, slot: int):
        self.slot = slot
        super().__init__(message)

    @classmethod
    def wrap(cls, slot: int, device: str, exc: Exception) -> "SlotError":
        """``slot {slot} ({device}): {Type}: {exc}``, with ``exc`` chained
        as ``__cause__``."""
        error = cls(
            f"slot {slot} ({device}): {type(exc).__name__}: {exc}", slot=slot
        )
        error.__cause__ = exc
        return error


class AssemblerError(ReproError):
    """The assembler rejected a source program."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmulatorError(ReproError):
    """The CPU emulator hit an illegal state (bad opcode, bus fault...)."""


class CodecError(ReproError):
    """Base class for ECC encode/decode failures."""


class BlockLengthError(CodecError):
    """Input length is incompatible with the code's block structure."""


class DecodeFailure(CodecError):
    """A codeword was uncorrectable (used by codes that can detect this)."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyLengthError(CryptoError):
    """An AES key had an unsupported length."""


class NonceError(CryptoError):
    """A CTR nonce/counter combination was invalid or would overflow."""


class CapacityError(ReproError):
    """A payload does not fit in the target memory under the chosen coding."""


class ExtractionError(ReproError):
    """Message extraction failed end-to-end (e.g. residual errors after ECC
    corrupted a length header beyond recovery)."""


class ServiceError(ReproError):
    """Base class for :mod:`repro.service` frontend failures."""


class AdmissionError(ServiceError):
    """The service refused (shed) a job at admission time.

    Raised when every shard is tripped/quarantined, or when the target
    shard's queue is full and the submitter asked not to wait.  The job
    never entered a queue — resubmitting later is always safe.
    ``shard`` names the shard that refused, when one was selected.
    """

    def __init__(self, message: str, *, shard: "str | None" = None):
        self.shard = shard
        super().__init__(message)


class ServiceStoppedError(ServiceError):
    """The service is draining or stopped and accepts no new jobs."""


class JournalError(ServiceError):
    """The write-ahead journal or a checkpoint is unusable.

    Raised on CRC corruption *before* the final record (a torn tail is
    tolerated — that is the expected signature of a crash mid-append),
    on a device file that is missing, truncated, corrupt, of a foreign
    format or cut from other silicon, or on a replay whose re-executed
    result diverges from the journaled one.
    """


class ServiceUnavailableError(ServiceError):
    """The service endpoint cannot be reached right now.

    Wraps connection-level failures (refused, reset, timed out) on the
    client side.  Distinct from :class:`ServiceError` proper so soak
    drivers can retry through a server restart window without also
    retrying real application failures.
    """


class CircuitOpenError(ServiceUnavailableError):
    """The client's circuit breaker is open for this endpoint.

    Calls fail fast without touching the socket until the cooldown
    elapses; the first call after the cooldown is the half-open probe.
    """
