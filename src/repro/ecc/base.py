"""The code interface all ECC schemes implement."""

from __future__ import annotations

import abc

import numpy as np

from .. import telemetry
from ..bitutils import as_bit_array
from ..errors import BlockLengthError


class Code(abc.ABC):
    """A block error-correcting code over bit arrays.

    ``encode`` maps each ``k``-bit data block to an ``n``-bit codeword;
    ``decode`` inverts it, correcting what the code can.  Inputs whose
    length is not a multiple of the block size are rejected — padding policy
    belongs to the caller (the pipeline frames messages explicitly).

    ``decode_rows`` decodes a stack of equal-length words at once and
    returns each row's counters instead of counting them; ``decode`` is
    its one-row case.  A subclass overrides one of two methods: codes
    that vectorise over rows override ``_decode_rows`` (the stack already
    validated), the rest override ``decode`` and inherit a row loop.
    Encoding follows the same split: ``_encode_bits`` encodes bits
    already validated (so a composite validates once, at entry), or a
    code overrides ``encode`` itself.
    """

    #: Human-readable name used in experiment tables.
    name: str = "code"

    @property
    @abc.abstractmethod
    def k(self) -> int:
        """Data bits per block."""

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Code bits per block."""

    @property
    def rate(self) -> float:
        """Information rate k/n (the capacity cost the paper trades, §5.3)."""
        return self.k / self.n

    def encoded_length(self, data_bits: int) -> int:
        """Code bits produced for ``data_bits`` input bits."""
        if data_bits < 0:
            raise BlockLengthError(f"{self.name}: negative length {data_bits}")
        if data_bits % self.k:
            raise BlockLengthError(
                f"{self.name}: data length {data_bits} is not a multiple of k={self.k}"
            )
        return data_bits // self.k * self.n

    def encode(self, data) -> np.ndarray:
        """Encode a bit array whose length is a multiple of ``k``."""
        return self._encode_bits(self._check_encode_input(data))

    def _encode_bits(self, bits: np.ndarray) -> np.ndarray:
        """:meth:`encode` on validated bits.  Codes override this or
        :meth:`encode`; this default defers to the latter."""
        if type(self).encode is Code.encode:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither encode nor _encode_bits"
            )
        return self.encode(bits)

    def decode(self, code) -> np.ndarray:
        """Decode a bit array whose length is a multiple of ``n``.

        The one-row case of :meth:`decode_rows`; the row's counters are
        counted on the active telemetry span.
        """
        decoded, counts = self._decode_rows(self._check_decode_input(code)[None, :])
        if counts and telemetry.active():
            for name, values in counts:
                telemetry.count(name, int(values[0]))
        return decoded[0]

    def decode_rows(
        self, rows: np.ndarray
    ) -> "tuple[np.ndarray, list[tuple[str, np.ndarray]]]":
        """Decode every row of a ``(n_rows, m * n)`` bit array.

        Returns the ``(n_rows, m * k)`` decoded rows and the per-row
        counters: ``(name, values)`` pairs in the order one :meth:`decode`
        counts them, ``values[i]`` belonging to row ``i`` (a name repeats
        when two stages count it).
        """
        return self._decode_rows(self._check_decode_rows(rows))

    def _decode_rows(self, bits: np.ndarray):
        """:meth:`decode_rows` on a validated stack.  Codes that vectorise
        over rows override this; the rest override :meth:`decode`, and
        this default loops it over the rows, reporting no counters."""
        if type(self).decode is Code.decode:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither decode nor _decode_rows"
            )
        decoded = np.empty(
            (bits.shape[0], bits.shape[1] // self.n * self.k), dtype=np.uint8
        )
        for row, word in zip(decoded, bits):
            row[:] = self.decode(word)
        return decoded, []

    # -- shared validation helpers ------------------------------------------------

    def _check_encode_input(self, data) -> np.ndarray:
        bits = as_bit_array(data)
        if bits.size == 0 or bits.size % self.k:
            raise BlockLengthError(
                f"{self.name}: encode input of {bits.size} bits is not a "
                f"positive multiple of k={self.k}"
            )
        return bits

    def _check_decode_input(self, code) -> np.ndarray:
        bits = as_bit_array(code)
        if bits.size == 0 or bits.size % self.n:
            raise BlockLengthError(
                f"{self.name}: decode input of {bits.size} bits is not a "
                f"positive multiple of n={self.n}"
            )
        return bits

    def _check_decode_rows(self, rows) -> np.ndarray:
        bits = np.asarray(rows, dtype=np.uint8)
        if bits.ndim != 2:
            raise BlockLengthError(
                f"{self.name}: expected (n_rows, n_bits) words, got shape "
                f"{bits.shape}"
            )
        if bits.shape[1] == 0 or bits.shape[1] % self.n:
            raise BlockLengthError(
                f"{self.name}: decode input of {bits.shape[1]} bits is not a "
                f"positive multiple of n={self.n}"
            )
        if bits.size and bits.max() > 1:
            raise BlockLengthError("bit array contains values other than 0/1")
        return bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name}, rate={self.rate:.3f})"


class IdentityCode(Code):
    """The no-coding baseline (rate 1)."""

    name = "identity"

    @property
    def k(self) -> int:
        return 1

    @property
    def n(self) -> int:
        return 1

    def _encode_bits(self, bits):
        return bits.copy()

    def _decode_rows(self, bits):
        return bits.copy(), []
