"""Hamming codes (paper §5.2, Figure 10).

A general Hamming(2^r - 1, 2^r - 1 - r) implementation with vectorized
syndrome decoding, plus the two instances the paper uses: Hamming(7,4) and
the degenerate Hamming(3,1) it points out is a 3-copy repetition code.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import Code


def _parity_check_matrix(r: int) -> np.ndarray:
    """H (r x n): column j is the binary expansion of j+1.

    With this layout the syndrome of a single-bit error at position j is the
    number j+1, so correction is a direct index.
    """
    n = 2**r - 1
    cols = np.arange(1, n + 1, dtype=np.uint32)
    return ((cols[None, :] >> np.arange(r)[:, None]) & 1).astype(np.uint8)


class HammingCode(Code):
    """A binary Hamming code correcting one error per block.

    Data bits occupy the non-power-of-two codeword positions (the classic
    systematic-ish layout); parity bits sit at positions 1, 2, 4, ... as in
    every textbook construction, so interoperability tests against
    hand-worked examples are straightforward.
    """

    def __init__(self, r: int):
        if r < 2:
            raise ConfigurationError(f"Hamming parameter r must be >= 2, got {r}")
        self.r = r
        self._n = 2**r - 1
        self._k = self._n - r
        self._h = _parity_check_matrix(r)

        positions = np.arange(1, self._n + 1)
        self._parity_positions = np.array(
            [p for p in positions if (p & (p - 1)) == 0]
        )
        self._data_positions = np.array(
            [p for p in positions if (p & (p - 1)) != 0]
        )
        #: Codeword positions 1..n, in a dtype the syndrome XOR fits,
        #: and the data bits' indices and positions.
        self._positions = np.arange(
            1, self._n + 1, dtype=np.min_scalar_type(self._n)
        )
        self._data_index = self._data_positions - 1
        self._data_codes = self._positions[self._data_index]
        self.name = f"hamming({self._n},{self._k})"

    @property
    def k(self) -> int:
        return self._k

    @property
    def n(self) -> int:
        return self._n

    def _encode_bits(self, bits):
        blocks = bits.reshape(-1, self._k)
        n_blocks = blocks.shape[0]
        code = np.zeros((n_blocks, self._n), dtype=np.uint8)
        code[:, self._data_index] = blocks
        # Parity bit at position 2^i covers codeword positions with bit i set.
        syndrome = (code @ self._h.T) % 2  # (n_blocks, r)
        code[:, self._parity_positions - 1] = syndrome
        return code.ravel()

    def _decode_rows(self, bits):
        n_rows, width = bits.shape
        blocks = bits.reshape(n_rows, width // self._n, self._n)
        # Column j of H is the binary expansion of j+1, so the syndrome is
        # the XOR of the set bits' positions: the position of a single
        # flipped bit, 0 when the block is a codeword.
        error_pos = np.bitwise_xor.reduce(blocks * self._positions, axis=2)
        decoded = blocks.take(self._data_index, axis=2) ^ (
            error_pos[..., None] == self._data_codes
        )
        counts = [
            ("ecc.hamming.corrections", (error_pos > 0).sum(axis=1)),
            ("ecc.hamming.blocks", np.full(n_rows, blocks.shape[1])),
        ]
        return decoded.reshape(n_rows, blocks.shape[1] * self._k), counts


def hamming_7_4() -> HammingCode:
    """The paper's workhorse Hamming(7,4) code."""
    return HammingCode(3)


def hamming_3_1() -> HammingCode:
    """Hamming(3,1): exactly a 3-copy repetition code with valid codewords
    000 and 111, as the paper notes in §5.2."""
    return HammingCode(2)
