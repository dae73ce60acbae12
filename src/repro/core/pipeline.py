"""The end-to-end Invisible Bits pipeline (paper §4, Figure 13).

``InvisibleBits`` binds a coding scheme (ECC + optional AES-CTR) to the
control-board automation:

- :meth:`InvisibleBits.send` — Algorithm 1: ECC, encrypt, generate the
  payload-writer firmware, stress at the device's recipe;
- :meth:`InvisibleBits.receive` — Algorithm 2: capture N power-on states,
  majority vote, invert, decrypt, ECC-decode.

Both ends must construct the scheme from the same pre-shared parameters —
exactly the paper's assumption (footnote 3).  The pre-shared bundle is a
:class:`~repro.core.scheme.CodingScheme`.

Every ``receive`` (and ``decode_state``/``decode_captures``) runs inside
a forced telemetry span, so decode provenance — per-capture BER,
vote-margin histogram, ECC correction counts — is collected whether or
not a sink is attached.  Nothing reads a ``send`` span's counters but a
sink, so ``channel.send`` is an ordinary span: with no sink and no
enclosing span it, and everything nested in it, is a null span.  With a
sink (e.g. ``repro --trace out.jsonl``) both are emitted as records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import metrics, telemetry
from ..api import (
    ReceiveRequest,
    ReceiveResult,
    SendRequest,
    SendResult,
    receive_result,
    send_result,
)
from ..bitutils import (
    Captures,
    as_bit_array,
    bit_error_rate,
    invert_bits,
    majority_vote,
    most_marginal_row,
)
from ..crypto.ctr import AesCtr
from ..ecc.base import Code
from ..ecc.soft import estimate_p_flip, votes_to_llrs
from ..errors import (
    CodecError,
    ConfigurationError,
    ExtractionError,
    RetryExhaustedError,
)
from ..harness.controlboard import ControlBoard
from .message import (
    FrameFormat,
    build_payload,
    extract_message,
    extract_message_soft,
    extract_messages,
)
from .scheme import CodingScheme

#: Direct hot-path instrument: one attribute test while metrics stay
#: disabled (same contract as the telemetry null-span, docs/metrics.md).
_MESSAGES_TOTAL = metrics.counter(
    "repro_messages_total",
    "Messages pushed through the channel, by phase and device",
    labelnames=("phase", "device"),
)

#: A capture disagreeing with the voted state on more than this share of
#: bits is treated as faulted (brownout, stuck region) and replaced.
#: Natural power-up noise sits well below 0.1 on every catalog device, so
#: it never fires on a healthy channel.
SUSPECT_FLIP_RATE = 0.2

#: Extra captures per escalation round when the vote decodes to garbage
#: with no identifiable suspect capture.
ESCALATION_STEP = 2


def _vote_stats(
    samples: np.ndarray, vote_idx: "list[int]", state: np.ndarray
) -> "tuple[np.ndarray, tuple[int, ...], tuple[float, ...]]":
    """A vote's channel statistics: per-cell ones over the voting rows,
    the vote-margin histogram ``|2 * ones - n_votes|`` (index = margin),
    and every capture's flip rate against the voted ``state``."""
    n_votes = len(vote_idx)
    ones = samples[vote_idx].sum(axis=0, dtype=np.int64)
    margin_hist = tuple(
        int(v)
        for v in np.bincount(np.abs(2 * ones - n_votes), minlength=n_votes + 1)
    )
    flip_rate = tuple(
        float(np.count_nonzero(row != state)) / state.size for row in samples
    )
    return ones, margin_hist, flip_rate


def _payload_rows(
    ciphers: "list[AesCtr | None]", states: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Invert (§4.3's photographic negative) and decrypt voted states,
    one row per device: returns ``(recovered, payload)``, ``recovered``
    being the hard inverted states the raw-BER diagnostics use."""
    recovered = (1 - states).astype(np.uint8, copy=False)
    if all(cipher is None for cipher in ciphers):
        return recovered, recovered
    payload = recovered.copy()
    for row, cipher in zip(payload, ciphers):
        if cipher is not None:
            row[:] = cipher.process_bits(row)
    return recovered, payload


@dataclass(frozen=True)
class EncodeResult:
    """What the sender knows after encoding."""

    payload_bits: np.ndarray
    message_bytes: int
    coded_bits: int
    stress_hours: float
    encrypted: bool

    @property
    def capacity_used(self) -> float:
        return self.coded_bits / self.payload_bits.size


@dataclass(frozen=True)
class DecodeResult:
    """What the receiver recovers, with channel diagnostics.

    The diagnostic fields are populated on every :meth:`InvisibleBits.receive`
    — no caller-side BER recomputation needed:

    - ``per_capture_flip_rate``: each capture's disagreement with the
      majority-voted state (the noise floor the vote suppresses);
    - ``vote_margin_hist``: histogram of per-bit vote margins
      ``|2 * ones - n_captures|`` (index = margin) for the final vote;
      ``round_margin_hists`` keeps one such histogram per vote round when
      adaptive escalation re-voted (last entry == ``vote_margin_hist``);
    - ``ecc_corrections``: data bits/blocks the decode repaired (Hamming
      blocks corrected + repetition data bits with at least one copy
      outvoted), from telemetry; per-copy overrules are the separate
      ``ecc.repetition.overruled`` counter;
    - ``decision`` / ``p_flip_estimate``: whether the decode consumed
      hard bits or soft vote-margin LLRs, and — in soft mode — the
      channel flip rate the LLR scale was derived from;
    - ``raw_error_vs`` / ``per_capture_error_vs``: channel BER against the
      true payload, filled when ``receive(expected_payload=...)`` knows it.

    The self-healing fields record what adaptive capture escalation did
    (docs/faults.md).  On a healthy channel they are all zeros/empty:

    - ``total_captures``: power-on captures actually taken (>=
      ``n_captures`` when escalation fired);
    - ``suspect_captures``: indices of captures excluded from the final
      vote as faulted (flip rate above the scheme's threshold);
    - ``escalation_rounds``: extra capture rounds taken;
    - ``retry_attempts``: transient capture-read failures that were
      retried away;
    - ``faults_injected``: faults the board's injector fired during this
      receive (0 without an injector);
    - ``degraded``: the ceiling was reached and the result was accepted
      with fewer clean captures than the scheme asked for.
    """

    message: bytes
    power_on_state: np.ndarray
    recovered_payload: np.ndarray
    n_captures: int
    raw_error_vs: "float | None" = None  # filled when the truth is known
    captures: "Captures | None" = None
    per_capture_flip_rate: "tuple[float, ...] | None" = None
    per_capture_error_vs: "tuple[float, ...] | None" = None
    vote_margin_hist: "tuple[int, ...] | None" = None
    round_margin_hists: "tuple[tuple[int, ...], ...]" = ()
    ecc_corrections: "int | None" = None
    decision: str = "hard"
    p_flip_estimate: "float | None" = None
    total_captures: int = 0
    suspect_captures: "tuple[int, ...]" = ()
    escalation_rounds: int = 0
    retry_attempts: int = 0
    faults_injected: int = 0
    degraded: bool = False

    def provenance(self) -> dict:
        """The per-receive provenance record (JSON-ready)."""
        return {
            "n_captures": self.n_captures,
            "message_bytes": len(self.message),
            "raw_error_vs": self.raw_error_vs,
            "per_capture_error_vs": (
                list(self.per_capture_error_vs)
                if self.per_capture_error_vs is not None
                else None
            ),
            "per_capture_flip_rate": (
                list(self.per_capture_flip_rate)
                if self.per_capture_flip_rate is not None
                else None
            ),
            "vote_margin_hist": (
                list(self.vote_margin_hist)
                if self.vote_margin_hist is not None
                else None
            ),
            "round_margin_hists": [list(h) for h in self.round_margin_hists],
            "ecc_corrections": self.ecc_corrections,
            "decision": self.decision,
            "p_flip_estimate": self.p_flip_estimate,
            "escalation": {
                "total_captures": self.total_captures,
                "suspect_captures": list(self.suspect_captures),
                "escalation_rounds": self.escalation_rounds,
                "retry_attempts": self.retry_attempts,
                "faults_injected": self.faults_injected,
                "degraded": self.degraded,
            },
        }


def _corrections(counts) -> int:
    """Data bits/blocks an ECC decode repaired: its ``*.corrections``
    counters summed (a repeated name counts every time it appears)."""
    return int(sum(value for name, value in counts if name.endswith(".corrections")))


def _stacked_decode(
    channels: "list[InvisibleBits]",
    states: "list[np.ndarray]",
    message_lens: "list[int | None]",
) -> "tuple[np.ndarray, list, list]":
    """The stacked hard decode itself: invert, decrypt and extract every
    row at once.  Returns ``(recovered, outcomes, counts)`` — the
    inverted states, each row's message bytes or
    :class:`~repro.errors.ExtractionError`, and each row's
    ``(counter, value)`` sequence (counted nowhere here)."""
    scheme = channels[0].scheme
    if scheme.decision != "hard" or any(c.scheme is not scheme for c in channels):
        raise ConfigurationError(
            "decode_group decodes channels that share one hard-decision scheme"
        )
    recovered, payload = _payload_rows(
        [channel._cipher() for channel in channels], np.array(states)
    )
    outcomes, counts = extract_messages(
        payload, ecc=scheme.ecc, frame=scheme.frame, message_lens=message_lens
    )
    return recovered, outcomes, counts


def decode_group(
    channels: "list[InvisibleBits]",
    states: "list[np.ndarray]",
    *,
    message_lens: "list[int | None]",
    raw_errors: "list[float | None] | None" = None,
) -> "tuple[list[DecodeResult | ExtractionError], list[list[tuple[str, int]]]]":
    """Invert, decrypt and ECC-decode many devices' voted states at once.

    Every channel must share one hard-decision scheme (a service host's
    fleet, the §5.3 rack); only the AES keystream is per device.  The
    states, all of one length, are stacked into one
    ``(n_devices, n_bits)`` array and run through
    :func:`~repro.core.message.extract_messages`.

    Returns ``(results, counts)``.  ``results[i]`` is the
    :class:`DecodeResult` that :meth:`InvisibleBits.decode_state` returns
    for ``channels[i]`` and ``states[i]`` (voted over the scheme's
    ``n_captures``; ``raw_error_vs`` is ``raw_errors[i]``), or
    the :class:`~repro.errors.ExtractionError` it raises.  ``counts[i]``
    is that row's ``(counter, value)`` sequence: nothing is counted on a
    span here — ``decode_state(..., row=(results[i], counts[i]))``
    counts a row on the caller's trace.
    ``repro_messages_total{phase="receive"}`` ticks once per device
    name, with the group's decoded rows.
    """
    if not channels:
        return [], []
    recovered, outcomes, counts = _stacked_decode(channels, states, message_lens)
    votes = channels[0].n_captures
    if raw_errors is None:
        raw_errors = [None] * len(channels)
    results: "list[DecodeResult | ExtractionError]" = []
    received: "dict[str, int]" = {}
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, ExtractionError):
            results.append(outcome)
            continue
        results.append(
            DecodeResult(
                message=outcome,
                power_on_state=states[index],
                recovered_payload=recovered[index],
                n_captures=votes,
                raw_error_vs=raw_errors[index],
                ecc_corrections=_corrections(counts[index]),
                total_captures=votes,
            )
        )
        name = channels[index].board.device.spec.name
        received[name] = received.get(name, 0) + 1
    for name, count in received.items():
        _MESSAGES_TOTAL.inc(count, phase="receive", device=name)
    return results, counts


def _set_result_fields(span, result: DecodeResult) -> None:
    """The decode span's summary of its :class:`DecodeResult`."""
    span.set(
        n_captures=result.n_captures,
        raw_error_vs=result.raw_error_vs,
        ecc_corrections=result.ecc_corrections,
        message_bytes=len(result.message),
        decision=result.decision,
    )
    if result.vote_margin_hist is not None:
        span.set(vote_margin_hist=list(result.vote_margin_hist))


class InvisibleBits:
    """One party's view of the covert channel for a specific device.

    ``InvisibleBits(board, scheme=CodingScheme(...))``: both ends build
    the same scheme from the pre-shared parameters (the default scheme is
    a plaintext, uncoded, framed, five-capture channel).
    """

    def __init__(
        self,
        board: ControlBoard,
        *,
        scheme: "CodingScheme | None" = None,
        use_firmware: bool = True,
    ):
        self.board = board
        self.scheme = scheme if scheme is not None else CodingScheme()
        self.use_firmware = use_firmware

    # -- scheme views (kept for backward compatibility) ---------------------------

    @property
    def key(self) -> "bytes | None":
        return self.scheme.key

    @property
    def ecc(self) -> "Code | None":
        return self.scheme.ecc

    @property
    def frame(self) -> FrameFormat:
        return self.scheme.frame

    @property
    def n_captures(self) -> int:
        return self.scheme.n_captures

    # -- crypto envelope ----------------------------------------------------------

    def _cipher(self) -> "AesCtr | None":
        return self.scheme.cipher(self.board.device.device_id)

    def _span_attrs(self) -> dict:
        device = self.board.device
        return {
            "device": device.spec.name,
            "device_id": device.device_id.hex(),
            "scheme": self.scheme.describe(),
        }

    # -- Algorithm 1 -----------------------------------------------------------------

    def prepare_payload(self, message: bytes) -> np.ndarray:
        """Message pre-processing only (ECC then encryption, §4.1)."""
        with telemetry.trace("channel.prepare", message_bytes=len(message)):
            plain = build_payload(
                message,
                self.board.device.sram.n_bits,
                ecc=self.ecc,
                frame=self.frame,
            )
            cipher = self._cipher()
            return cipher.process_bits(plain) if cipher else plain

    def send(
        self,
        message: bytes,
        *,
        stress_hours: "float | None" = None,
        camouflage: bool = True,
    ) -> EncodeResult:
        """Run the full sender side against the bound device."""
        recipe = self.board.device.spec.recipe
        stress_hours = recipe.stress_hours if stress_hours is None else stress_hours
        with telemetry.trace(
            "channel.send",
            message_bytes=len(message),
            stress_hours=stress_hours,
            recipe={
                "vdd_stress": recipe.vdd_stress,
                "temp_stress_c": recipe.temp_stress_c,
                "stress_hours": recipe.stress_hours,
            },
            **self._span_attrs(),
        ) as span:
            payload = self.prepare_payload(message)
            self.board.encode_message(
                payload,
                stress_hours=stress_hours,
                use_firmware=self.use_firmware,
                camouflage=camouflage,
            )
            coded_bits = self.frame.header_bits + (
                len(message) * 8 if self.ecc is None
                else -(-len(message) * 8 // self.ecc.k) * self.ecc.n
            )
            span.set(coded_bits=coded_bits)
            _MESSAGES_TOTAL.inc(
                phase="send", device=self.board.device.spec.name
            )
            return EncodeResult(
                payload_bits=payload,
                message_bytes=len(message),
                coded_bits=coded_bits,
                stress_hours=stress_hours,
                encrypted=self.scheme.encrypted,
            )

    def handle_send(self, request: SendRequest) -> SendResult:
        """Serve one typed :class:`~repro.api.SendRequest`.

        The request's ``device_id`` is an opaque routing key echoed onto
        the result — this channel is already bound to its board, so no
        lookup happens here.  ``repro.service`` shards do not come
        through here: they call :meth:`send` and, for receives,
        :meth:`decode_state` on states from the fleet capture kernel.
        """
        encode = self.send(
            request.message,
            stress_hours=request.stress_hours,
            camouflage=request.camouflage,
        )
        return send_result(request.device_id, encode)

    def handle_receive(
        self,
        request: ReceiveRequest,
        *,
        expected_payload: "np.ndarray | None" = None,
    ) -> ReceiveResult:
        """Serve one typed :class:`~repro.api.ReceiveRequest`.

        ``expected_payload`` has the same truth-diagnostics role as in
        :meth:`receive`: pass the payload staged earlier for the same
        ``device_id`` so raw-BER diagnostics see real numbers.
        """
        decode = self.receive(
            message_len=request.message_len, expected_payload=expected_payload
        )
        return receive_result(request.device_id, decode)

    # -- Algorithm 2 -----------------------------------------------------------------

    def _vote_rows(
        self, samples: np.ndarray, excluded: "list[int]"
    ) -> "tuple[list[int], np.ndarray]":
        """Majority-vote the non-excluded rows over an odd-sized set.

        With an even number of usable rows, the most marginal one (highest
        disagreement with the provisional vote; ties break to the newest
        capture) sits the vote out — a deterministic rule, so escalated
        receives replay identically.
        """
        good = [i for i in range(samples.shape[0]) if i not in excluded]
        if len(good) % 2 == 0 and len(good) > 1:
            # Shared rule from bitutils (= majority_vote(on_tie="drop")).
            good.pop(most_marginal_row(samples[good]))
        return good, majority_vote(samples[good])

    def _classify_captures(
        self, samples: np.ndarray, suspects: "list[int]"
    ) -> "tuple[list[int], np.ndarray, list[int]]":
        """Peel faulted captures (flip rate above ``SUSPECT_FLIP_RATE``)
        until the vote is stable; never peels the entire set."""
        suspects = list(suspects)
        while True:
            vote_idx, state = self._vote_rows(samples, suspects)
            fresh = [
                i
                for i in vote_idx
                if np.count_nonzero(samples[i] != state) / state.size
                > SUSPECT_FLIP_RATE
            ]
            if not fresh or len(fresh) >= len(vote_idx):
                return vote_idx, state, suspects
            suspects.extend(fresh)

    def _attempt_decode(
        self,
        state: np.ndarray,
        message_len: "int | None",
        *,
        ones: "np.ndarray | None" = None,
        n_votes: int = 0,
        p_flip: "float | None" = None,
    ) -> "tuple[bytes, np.ndarray, int]":
        """Invert, decrypt and ECC-decode one voted state.

        Hard decisions (``ones=None``) decode the voted bits: the one-row
        case of :func:`decode_group`.  Soft decisions decode per-cell LLRs
        derived from the vote counts ``ones`` over ``n_votes`` captures
        instead, and the stages map cleanly into the LLR domain:

        - **invert** (§4.3's photographic negative) negates every LLR;
        - **decrypt**: AES-CTR XORs a keystream bit into each payload bit,
          which in the LLR domain flips the sign wherever the keystream
          bit is 1 — confidences pass through untouched (CTR never mixes
          bits, the same property that makes it error-neutral);
        - **ECC-decode** runs the soft-combining stack
          (:func:`repro.ecc.soft.soft_decode`) over the payload LLRs.

        ``recovered`` is the *hard* inverted state in both modes, so
        raw-BER diagnostics are mode-independent.  The caller's span must
        collect: the ECC corrections are read off ``channel.ecc_decode``.
        """
        soft = ones is not None
        cipher = self._cipher()
        with telemetry.trace("channel.decrypt", encrypted=self.scheme.encrypted):
            if soft:
                recovered = invert_bits(state)
                payload = -votes_to_llrs(ones, n_votes, p_flip)
                if cipher is not None:
                    ks_bits = np.unpackbits(cipher.keystream(payload.size // 8))
                    payload = payload * (1.0 - 2.0 * ks_bits)
            else:
                recovered, payload = _payload_rows(
                    [cipher], as_bit_array(state)[None, :]
                )
                recovered, payload = recovered[0], payload[0]
        with telemetry.trace(
            "channel.ecc_decode",
            code=self.ecc.name if self.ecc is not None else "identity",
            decision="soft" if soft else "hard",
        ) as ecc_span:
            extract = extract_message_soft if soft else extract_message
            message = extract(
                payload, ecc=self.ecc, frame=self.frame, message_len=message_len
            )
            corrections = _corrections(ecc_span.counters.items())
        return message, recovered, corrections

    def _decoded(
        self,
        span,
        expected_payload: "np.ndarray | None",
        **fields,
    ) -> DecodeResult:
        """Finish a decode: the truth-referenced raw BER, the span fields,
        the ``repro_messages_total`` tick and the :class:`DecodeResult`."""
        raw_error = None
        if expected_payload is not None:
            raw_error = bit_error_rate(expected_payload, fields["recovered_payload"])
        result = DecodeResult(raw_error_vs=raw_error, **fields)
        _set_result_fields(span, result)
        _MESSAGES_TOTAL.inc(phase="receive", device=self.board.device.spec.name)
        return result

    def _stacked_row(self, result, counts) -> DecodeResult:
        """:meth:`decode_state` of a :func:`decode_group` row."""
        if telemetry.active():
            with telemetry.trace(
                "channel.decode_state", **self._span_attrs()
            ) as span:
                for name, value in counts:
                    telemetry.count(name, value)
                if isinstance(result, ExtractionError):
                    raise result
                _set_result_fields(span, result)
        elif isinstance(result, ExtractionError):
            raise result
        return result

    def decode_state(
        self,
        state: np.ndarray,
        *,
        message_len: "int | None" = None,
        expected_payload: "np.ndarray | None" = None,
        n_captures: "int | None" = None,
        ones: "np.ndarray | None" = None,
        row: "tuple[DecodeResult | ExtractionError, list] | None" = None,
    ) -> DecodeResult:
        """Decode an already-voted power-on state (no new captures).

        The post-processing half of Algorithm 2 — invert, decrypt,
        ECC-decode — for a majority state measured elsewhere (e.g. one
        slot of :func:`repro.core.fleetcapture.capture_fleet`).
        ``n_captures`` records how many captures produced ``state``
        (defaults to the scheme's count); adaptive escalation never
        fires on this path, so an undecodable state raises
        :class:`~repro.errors.CodecError` /
        :class:`~repro.errors.ExtractionError` for the caller to fall
        back to the full :meth:`receive`.

        A ``decision="soft"`` scheme requires ``ones`` (the per-cell
        count of captures that read 1, as the vote computed it —
        :attr:`FleetCapture.ones`) and decodes from vote-margin LLRs;
        without it a :class:`~repro.errors.ConfigurationError` is raised,
        because a voted state alone carries no margins.  The LLR scale
        is the conservative flip-rate floor (decode decisions are
        scale-invariant).  Hard schemes ignore ``ones``.

        ``row`` is this state's ``(result, counts)`` from a stacked
        :func:`decode_group` pass (a service lane decodes a hard scheme's
        receive group at once): the state is not decoded again.  The
        row's result is returned (its error raised) as it stands, and
        only while something records spans does a ``channel.decode_state``
        span count the row's counters and carry the result's fields.
        """
        if row is not None:
            return self._stacked_row(*row)
        votes = self.n_captures if n_captures is None else int(n_captures)
        soft = self.scheme.decision == "soft"
        if soft and ones is None:
            raise ConfigurationError(
                "a soft-decision scheme decodes vote margins: pass ones= "
                "(per-cell count of captures that read 1) to decode_state"
            )
        p_flip_est = estimate_p_flip(()) if soft else None
        with telemetry.trace(
            "channel.decode_state", force=True, **self._span_attrs()
        ) as span:
            message, recovered, corrections = self._attempt_decode(
                state,
                message_len,
                ones=ones if soft else None,
                n_votes=votes,
                p_flip=p_flip_est,
            )
            return self._decoded(
                span,
                expected_payload,
                message=message,
                power_on_state=state,
                recovered_payload=recovered,
                n_captures=votes,
                ecc_corrections=corrections,
                decision=self.scheme.decision,
                p_flip_estimate=p_flip_est,
                total_captures=votes,
            )

    def decode_captures(
        self,
        samples: Captures,
        *,
        message_len: "int | None" = None,
        expected_payload: "np.ndarray | None" = None,
    ) -> DecodeResult:
        """Vote and decode an existing capture stack (no new captures).

        The offline half of Algorithm 2 for captures obtained elsewhere
        (:func:`repro.io.load_captures`, a fleet burst, a stored
        experiment): majority-votes the stack with the receive path's
        even-count drop rule, then decodes per the scheme's ``decision``
        mode — in soft mode the vote margins become LLRs with the scale
        estimated from the stack's own flip rates.  The same stack can be
        decoded under both modes by swapping
        ``scheme.with_decision(...)``.  No escalation fires (there is no
        board to ask for more captures); an undecodable stack raises
        :class:`~repro.errors.CodecError` /
        :class:`~repro.errors.ExtractionError`.
        """
        samples = np.asarray(samples, dtype=np.uint8)
        if samples.ndim != 2 or samples.shape[0] == 0:
            raise ConfigurationError(
                f"expected a (n_captures, n_bits) stack, got shape "
                f"{samples.shape}"
            )
        with telemetry.trace(
            "channel.decode_captures", force=True, **self._span_attrs()
        ) as span:
            vote_idx, state = self._vote_rows(samples, [])
            ones, margin_hist, flip_rate = _vote_stats(samples, vote_idx, state)
            soft = self.scheme.decision == "soft"
            p_flip_est = (
                estimate_p_flip([flip_rate[i] for i in vote_idx])
                if soft
                else None
            )
            message, recovered, corrections = self._attempt_decode(
                state,
                message_len,
                ones=ones if soft else None,
                n_votes=len(vote_idx),
                p_flip=p_flip_est,
            )
            return self._decoded(
                span,
                expected_payload,
                message=message,
                power_on_state=state,
                recovered_payload=recovered,
                n_captures=len(vote_idx),
                captures=samples,
                per_capture_flip_rate=flip_rate,
                vote_margin_hist=margin_hist,
                round_margin_hists=(margin_hist,),
                ecc_corrections=corrections,
                decision=self.scheme.decision,
                p_flip_estimate=p_flip_est,
                total_captures=int(samples.shape[0]),
            )

    def receive(
        self,
        *,
        message_len: "int | None" = None,
        expected_payload: "np.ndarray | None" = None,
    ) -> DecodeResult:
        """Run the full receiver side against the bound device.

        Passing ``expected_payload`` (the sender's ``EncodeResult
        .payload_bits``) additionally fills the truth-referenced channel
        diagnostics: ``raw_error_vs`` and ``per_capture_error_vs``.

        The receive path **self-heals** (docs/faults.md): transient
        capture-read failures are retried under the board's
        :class:`~repro.faults.RetryPolicy`, captures that disagree with
        the majority vote beyond ``SUSPECT_FLIP_RATE`` are treated
        as faulted and replaced with fresh power-on samples, and an
        undecodable vote escalates by ``ESCALATION_STEP`` extra
        captures per round — up to ``scheme.max_total_captures`` total,
        after which :class:`~repro.errors.RetryExhaustedError` is raised.
        On a healthy channel none of this fires and results are
        bit-identical to a plain ``n_captures`` receive; whatever
        happened is recorded in :meth:`DecodeResult.provenance`.
        """
        scheme = self.scheme
        ceiling = scheme.max_total_captures
        with telemetry.trace(
            "channel.receive", force=True, **self._span_attrs()
        ) as span:
            samples = self.board.capture_power_on_states(self.n_captures)
            suspects: "list[int]" = []
            escalation_rounds = 0
            degraded = False
            soft = scheme.decision == "soft"
            p_flip_est: "float | None" = None
            round_hists: "list[tuple[int, ...]]" = []

            while True:
                vote_idx, state, suspects = self._classify_captures(
                    samples, suspects
                )
                with telemetry.trace("channel.vote", n_captures=len(vote_idx)):
                    # Escalation accumulates: every round re-votes (and, in
                    # soft mode, re-counts margins) over *all* clean rows
                    # captured so far, not just the newest batch.
                    ones, margin_hist, flip_rate = _vote_stats(
                        samples, vote_idx, state
                    )
                    round_hists.append(margin_hist)
                if soft:
                    p_flip_est = estimate_p_flip([flip_rate[i] for i in vote_idx])

                decode_error: "Exception | None" = None
                try:
                    message, recovered, corrections = self._attempt_decode(
                        state,
                        message_len,
                        ones=ones if soft else None,
                        n_votes=len(vote_idx),
                        p_flip=p_flip_est,
                    )
                except (CodecError, ExtractionError) as exc:
                    decode_error = exc

                good_count = samples.shape[0] - len(suspects)
                if decode_error is None and good_count >= scheme.n_captures:
                    break  # healthy exit (the only path on a clean channel)

                room = ceiling - samples.shape[0]
                if room <= 0:
                    if decode_error is None:
                        degraded = True  # decodable, just short on clean votes
                        break
                    raise RetryExhaustedError(
                        f"capture ceiling {ceiling} reached with the payload "
                        f"still undecodable: {decode_error}",
                        attempts=int(samples.shape[0]),
                    ) from decode_error

                need = scheme.n_captures - good_count
                extra = min(room, need if need > 0 else ESCALATION_STEP)
                telemetry.count("escalation.captures", extra)
                samples = np.vstack(
                    [samples, self.board.capture_power_on_states(extra)]
                )
                escalation_rounds += 1

            per_capture_error = None
            if expected_payload is not None:
                expected_state = invert_bits(expected_payload)
                per_capture_error = tuple(
                    float(np.count_nonzero(row != expected_state))
                    / expected_state.size
                    for row in samples
                )
            span.set(
                total_captures=int(samples.shape[0]),
                suspect_captures=sorted(suspects),
                escalation_rounds=escalation_rounds,
                degraded=degraded,
                vote_margin_rounds=[list(h) for h in round_hists],
                p_flip_estimate=p_flip_est,
                per_capture_flip_rate=list(flip_rate),
                per_capture_ber=(
                    list(per_capture_error) if per_capture_error else None
                ),
            )
            return self._decoded(
                span,
                expected_payload,
                message=message,
                power_on_state=state,
                recovered_payload=recovered,
                n_captures=len(vote_idx),
                captures=samples,
                per_capture_flip_rate=flip_rate,
                per_capture_error_vs=per_capture_error,
                vote_margin_hist=margin_hist,
                round_margin_hists=tuple(round_hists),
                ecc_corrections=corrections,
                decision=scheme.decision,
                p_flip_estimate=p_flip_est,
                total_captures=int(samples.shape[0]),
                suspect_captures=tuple(sorted(suspects)),
                escalation_rounds=escalation_rounds,
                retry_attempts=int(span.counters.get("retry.attempts", 0)),
                faults_injected=int(span.counters.get("faults.injected", 0)),
                degraded=degraded,
            )

    # -- diagnostics --------------------------------------------------------------------

    def capture_samples(self, n: "int | None" = None) -> Captures:
        """Raw power-on captures for steganalysis or channel measurement.

        Returns :data:`~repro.bitutils.Captures` — shape
        ``(n_captures, n_bits)``, dtype ``uint8`` — the same convention as
        :meth:`ControlBoard.capture_power_on_states` and
        :func:`repro.io.load_captures`.
        """
        return self.board.capture_power_on_states(n or self.n_captures)
