"""Repetition coding with majority-vote decoding (paper §5.2).

Two physical layouts, identical under the paper's randomly located errors:

- ``block``: the whole payload is replicated ``copies`` times back to back —
  the paper's layout ("the payload is replicated into many copies", §5.2);
- ``bitwise``: each bit is repeated ``copies`` times in place.

The block layout is the default because it is what Figures 8-10 measure.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import Code


class RepetitionCode(Code):
    """An (copies, 1) repetition code with majority-vote decoding."""

    def __init__(self, copies: int, *, layout: str = "block"):
        if copies < 1 or copies % 2 == 0:
            raise ConfigurationError(
                f"copies must be a positive odd number (majority voting must "
                f"not tie), got {copies}"
            )
        if layout not in ("block", "bitwise"):
            raise ConfigurationError(f"unknown layout {layout!r}")
        self.copies = copies
        self.layout = layout
        self.name = f"repetition(x{copies},{layout})"

    @property
    def k(self) -> int:
        return 1

    @property
    def n(self) -> int:
        return self.copies

    def _encode_bits(self, bits):
        if self.layout == "block":
            return np.tile(bits, self.copies)
        return np.repeat(bits, self.copies)

    def _decode_rows(self, bits):
        n_rows, width = bits.shape
        if self.layout == "block":
            copies = bits.reshape(n_rows, self.copies, width // self.copies)
            ones = copies.sum(axis=1)
        else:
            copies = bits.reshape(n_rows, width // self.copies, self.copies)
            ones = copies.sum(axis=2)
        # The majority_vote rule (copies is odd, so no tie can occur).
        voted = (ones > self.copies // 2).view(np.uint8)
        # Two different units, kept apart: ``overruled`` counts every copy
        # the vote outvoted (the paper's per-copy disagreement
        # accounting), ``corrections`` counts data bits that needed repair
        # at all — the unit Hamming's per-block corrections use, so the
        # pipeline's ``*.corrections`` total is coherent.
        overruled = np.minimum(ones, self.copies - ones)
        counts = [
            ("ecc.repetition.overruled", overruled.sum(axis=1)),
            ("ecc.repetition.corrections", (overruled > 0).sum(axis=1)),
            ("ecc.repetition.bits", np.full(n_rows, voted.shape[1])),
        ]
        return voted, counts
