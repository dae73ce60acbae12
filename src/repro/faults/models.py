"""The fault taxonomy: seeded, composable models of things that go wrong.

Each model is a frozen value object describing *one* error source from the
bench — a brownout during a capture, a stuck-at cell region, a drifting
thermal-chamber setpoint, an interrupted stress epoch, a flaky debug
port.  Models hold no mutable state: the :class:`~repro.faults.injector.
FaultInjector` owns the RNG streams and asks each model to *act* on an
event, so the same :class:`~repro.faults.plan.FaultPlan` always produces
the same fault schedule (the determinism contract docs/faults.md spells
out).

Models compose: a plan may carry any subset, and every model sees its own
independent seeded stream, so adding a model never perturbs the schedule
of the others.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigurationError, DebugPortError

__all__ = [
    "CaptureBrownout",
    "FaultModel",
    "FlakyDebugPort",
    "InterruptedStress",
    "SetpointDrift",
    "StuckRegion",
    "model_from_dict",
]


@dataclass(frozen=True)
class FaultModel:
    """Base class: a named, serializable fault source.

    Subclasses override the hook(s) they participate in; the injector
    calls every model at every matching event with the model's private
    RNG stream.  Hooks either return a (possibly modified) value or raise
    a :class:`~repro.errors.DeviceError` subclass.
    """

    #: Serialization tag; subclasses set a unique value.
    kind = "base"

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    # -- hooks (no-ops by default) -----------------------------------------

    def on_capture(self, bits: np.ndarray, rng: np.random.Generator,
                   record) -> np.ndarray:
        """Filter one captured power-on state (may corrupt it)."""
        return bits

    def on_debug_read(self, rng: np.random.Generator, record) -> None:
        """Called before every capture read; may raise DebugPortError."""

    def on_setpoint(self, temp_c: float, rng: np.random.Generator,
                    record) -> float:
        """Filter a thermal-chamber setpoint command."""
        return temp_c

    def on_stress(self, hours: float, rng: np.random.Generator,
                  record) -> float:
        """Filter a stress-epoch duration (may cut it short)."""
        return hours


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"fault rate must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class CaptureBrownout(FaultModel):
    """A transient brownout mid-capture: the sampled state is garbage.

    With probability ``rate`` per capture, a ``severity`` fraction of the
    captured bits (chosen uniformly by the model's stream) is re-drawn at
    random — the partially-settled state a real rail droop leaves behind.
    Re-drawn bits flip with probability ~0.5, so a hit capture disagrees
    with the voted state on ~``severity / 2`` of its bits; the default
    keeps that comfortably above
    :data:`~repro.core.pipeline.SUSPECT_FLIP_RATE` (0.2), so the receive
    pipeline's suspect detection spots and replaces every hit
    (docs/faults.md).  Majority voting absorbs whatever slips through.
    """

    rate: float = 0.05
    severity: float = 0.6
    kind = "capture_brownout"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if not 0.0 < self.severity <= 1.0:
            raise ConfigurationError(
                f"brownout severity must be in (0, 1], got {self.severity}"
            )

    def on_capture(self, bits, rng, record):
        if rng.random() >= self.rate:
            return bits
        n_hit = max(1, int(round(self.severity * bits.size)))
        hit = rng.choice(bits.size, size=n_hit, replace=False)
        out = bits.copy()
        out[hit] = rng.integers(0, 2, n_hit, dtype=np.uint8)
        record(self.kind, cells=int(n_hit))
        return out


@dataclass(frozen=True)
class StuckRegion(FaultModel):
    """A contiguous cell region stuck at one value on every capture.

    Deterministic (no probability): real stuck-at defects do not come and
    go.  ``offset``/``length`` are in bits; reads beyond the array are
    clipped.
    """

    offset: int = 0
    length: int = 64
    value: int = 1
    kind = "stuck_region"

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 1:
            raise ConfigurationError("stuck region needs offset >= 0, length >= 1")
        if self.value not in (0, 1):
            raise ConfigurationError(f"stuck value must be 0 or 1, got {self.value}")

    def on_capture(self, bits, rng, record):
        lo = min(self.offset, bits.size)
        hi = min(self.offset + self.length, bits.size)
        if lo == hi:
            return bits
        out = bits.copy()
        out[lo:hi] = self.value
        record(self.kind, cells=int(hi - lo))
        return out


@dataclass(frozen=True)
class FlakyDebugPort(FaultModel):
    """Debug-port I/O that intermittently dies mid-transfer.

    With probability ``rate`` per capture read, raises
    :class:`~repro.errors.DebugPortError`.  The failure is *transient*
    (the retry policy classifies it retryable) and strikes before any
    bits move, so a retried read returns the identical power-on state —
    which is why the CI chaos smoke can run the whole tier-1 suite under
    a flaky-port plan without changing a single analog result.
    """

    rate: float = 0.02
    kind = "flaky_port"

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    def on_debug_read(self, rng, record):
        if rng.random() < self.rate:
            record(self.kind)
            raise DebugPortError("injected fault: debug port dropped mid-read")


@dataclass(frozen=True)
class SetpointDrift(FaultModel):
    """Thermal-chamber setpoint drift: the panel says 100 °C, the tray
    sees 100 °C ± N(0, sigma).  Applied to every ``set_temperature``
    above ambient handoff (cool-downs back to ambient are exact)."""

    sigma_c: float = 1.0
    kind = "setpoint_drift"

    def __post_init__(self) -> None:
        if self.sigma_c < 0:
            raise ConfigurationError(f"sigma_c must be >= 0, got {self.sigma_c}")

    def on_setpoint(self, temp_c, rng, record):
        if self.sigma_c == 0:
            return temp_c
        drift = float(rng.normal(0.0, self.sigma_c))
        record(self.kind, drift_c=round(drift, 4))
        return temp_c + drift


@dataclass(frozen=True)
class InterruptedStress(FaultModel):
    """A stress epoch cut short (operator pulled the tray, mains glitch).

    With probability ``rate`` per epoch, only a uniform fraction in
    ``[min_fraction, 1)`` of the requested hours actually elapses.
    """

    rate: float = 0.1
    min_fraction: float = 0.5
    kind = "interrupted_stress"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if not 0.0 <= self.min_fraction < 1.0:
            raise ConfigurationError(
                f"min_fraction must be in [0, 1), got {self.min_fraction}"
            )

    def on_stress(self, hours, rng, record):
        if rng.random() >= self.rate:
            return hours
        fraction = float(rng.uniform(self.min_fraction, 1.0))
        record(self.kind, fraction=round(fraction, 4))
        return hours * fraction


#: kind tag -> model class, for (de)serialization.
MODEL_KINDS = {
    cls.kind: cls
    for cls in (
        CaptureBrownout,
        StuckRegion,
        FlakyDebugPort,
        SetpointDrift,
        InterruptedStress,
    )
}


def model_from_dict(spec: dict) -> FaultModel:
    """Rebuild a model from its ``to_dict`` form."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    cls = MODEL_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown fault model kind {kind!r}; known: {sorted(MODEL_KINDS)}"
        )
    try:
        return cls(**spec)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for {kind!r}: {exc}") from exc
