"""The pre-shared coding scheme both parties construct independently.

The paper's protocol assumes sender and receiver agree out of band on the
key, ECC stack, frame format and capture count (§4.1 footnote 3).
:class:`CodingScheme` is that agreement as one frozen value object —
construct it once from the shared parameters and hand it to
``InvisibleBits(board, scheme=...)`` on both ends, instead of threading
four loose keyword arguments through every call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from ..crypto.ctr import AesCtr, nonce_from_device_id
from ..ecc.base import Code
from ..errors import ConfigurationError
from .message import FrameFormat

__all__ = ["CodingScheme", "paper_end_to_end_scheme"]


@dataclass(frozen=True)
class CodingScheme:
    """Everything the two ends must pre-share to run the channel.

    Attributes
    ----------
    key:
        AES key (16/24/32 bytes) for the CTR envelope, or ``None`` for a
        plaintext channel (detectable by the §6 steganalysis — see
        Table 5).
    ecc:
        The error-correcting :class:`~repro.ecc.base.Code`, or ``None``
        for no coding.
    frame:
        The :class:`~repro.core.message.FrameFormat`; the default framed
        mode self-describes the message length.
    n_captures:
        Power-on captures per receive (positive odd, §4.3).
    capture_ceiling:
        Hard cap on total captures the receiver may take during adaptive
        escalation (docs/faults.md); ``None`` (default) allows up to
        ``5 * n_captures``.  Set equal to ``n_captures`` to disable
        escalation entirely.  Escalation only fires on trouble (suspect
        captures or an undecodable vote), so fault-free receives are
        bit-identical whatever the ceiling.
    escalation_step:
        Extra captures taken per escalation round when the vote decodes
        to garbage with no identifiable suspect capture.
    suspect_flip_rate:
        A capture disagreeing with the majority-voted state on more than
        this fraction of bits is treated as faulted (brownout, stuck
        region) and replaced.  Natural power-up noise sits well below
        0.1 on every catalog device, so the default never fires on a
        healthy channel.
    decision:
        How the receiver uses the capture stack: ``"hard"`` (default)
        majority-votes each cell to one bit before decoding — bit-identical
        to the pre-soft pipeline; ``"soft"`` keeps the per-cell vote
        margins as log-likelihood ratios and decodes them with the
        soft-combining stack in :mod:`repro.ecc.soft` (LLR convention in
        docs/api.md).  A receiver-side knob: the encoded image is the
        same either way, so the two ends need not agree on it.
    """

    key: "bytes | None" = None
    ecc: "Code | None" = None
    frame: FrameFormat = field(default_factory=FrameFormat)
    n_captures: int = 5
    capture_ceiling: "int | None" = None
    escalation_step: int = 2
    suspect_flip_rate: float = 0.2
    decision: str = "hard"

    def __post_init__(self) -> None:
        if self.key is not None and len(self.key) not in (16, 24, 32):
            raise ConfigurationError(
                f"AES key must be 16/24/32 bytes, got {len(self.key)}"
            )
        if self.n_captures < 1 or self.n_captures % 2 == 0:
            raise ConfigurationError("n_captures must be positive odd (§4.3)")
        if self.capture_ceiling is not None and self.capture_ceiling < self.n_captures:
            raise ConfigurationError(
                f"capture_ceiling ({self.capture_ceiling}) must be >= "
                f"n_captures ({self.n_captures})"
            )
        if self.escalation_step < 1:
            raise ConfigurationError(
                f"escalation_step must be >= 1, got {self.escalation_step}"
            )
        if not 0.0 < self.suspect_flip_rate < 1.0:
            raise ConfigurationError(
                f"suspect_flip_rate must be in (0, 1), got {self.suspect_flip_rate}"
            )
        if self.decision not in ("hard", "soft"):
            raise ConfigurationError(
                f'decision must be "hard" or "soft", got {self.decision!r}'
            )
        if self.frame is None:
            object.__setattr__(self, "frame", FrameFormat())

    @property
    def max_total_captures(self) -> int:
        """The effective escalation ceiling (total captures per receive)."""
        return (
            self.capture_ceiling
            if self.capture_ceiling is not None
            else 5 * self.n_captures
        )

    @property
    def encrypted(self) -> bool:
        return self.key is not None

    def cipher(self, device_id: bytes) -> "AesCtr | None":
        """The AES-CTR envelope bound to ``device_id`` (footnote 4), or
        ``None`` for a plaintext scheme."""
        if self.key is None:
            return None
        return AesCtr(self.key, nonce_from_device_id(device_id))

    def with_captures(self, n_captures: int) -> "CodingScheme":
        """A copy with a different capture count (receiver-side knob)."""
        return replace(self, n_captures=n_captures)

    def with_decision(self, decision: str) -> "CodingScheme":
        """A copy with a different decision mode (receiver-side knob)."""
        return replace(self, decision=decision)

    def describe(self) -> dict:
        """Provenance attributes for telemetry records (a fresh dict).

        Every ``channel.*`` span carries them, so they are worked out once
        per scheme — its fields are frozen — and copied per call.
        """
        return dict(self._description)

    @cached_property
    def _description(self) -> dict:
        return {
            "ecc": self.ecc.name if self.ecc is not None else "identity",
            "ecc_rate": round(self.ecc.rate, 6) if self.ecc is not None else 1.0,
            "framed": self.frame.framed,
            "n_captures": self.n_captures,
            "capture_ceiling": self.max_total_captures,
            "encrypted": self.encrypted,
            "decision": self.decision,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ecc = self.ecc.name if self.ecc is not None else "identity"
        return (
            f"CodingScheme(ecc={ecc}, encrypted={self.encrypted}, "
            f"framed={self.frame.framed}, n_captures={self.n_captures})"
        )


def paper_end_to_end_scheme(
    key: "bytes | None" = None, *, copies: int = 7, n_captures: int = 5
) -> CodingScheme:
    """The paper's §4 end-to-end configuration.

    Hamming(7,4) under ``copies``-fold repetition (§6's construction),
    framed payloads, five majority-voted captures (§4.3), and — when a
    ``key`` is supplied — the AES-CTR envelope with the device ID as
    nonce (§4.1).
    """
    from ..ecc.product import paper_end_to_end_code

    return CodingScheme(
        key=key,
        ecc=paper_end_to_end_code(copies),
        frame=FrameFormat(),
        n_captures=n_captures,
    )
