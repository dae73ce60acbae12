"""Code composition.

The paper's end-to-end system layers Hamming(7,4) under a repetition code
(§6: "apply a Hamming(7,4) on a message d and replicate the message and
parity seven times").  :class:`ConcatenatedCode` expresses that layering for
any pair (or longer chain, by nesting) of codes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import Code


class ConcatenatedCode(Code):
    """``inner(outer(data))``: the outer code is applied first.

    Rates multiply; block sizes compose as ``k = outer.k * lcm_factor`` where
    the outer output must tile the inner input.  For the codes used here the
    outer block output (``outer.n``) and inner input (``inner.k``) compose
    through their least common multiple.
    """

    def __init__(self, outer: Code, inner: Code):
        self.outer = outer
        self.inner = inner
        lcm = np.lcm(outer.n, inner.k)
        #: Outer blocks consumed per composite block.
        self._outer_blocks = int(lcm // outer.n)
        #: Inner blocks produced per composite block.
        self._inner_blocks = int(lcm // inner.k)
        self.name = f"{outer.name}+{inner.name}"

    @property
    def k(self) -> int:
        return self.outer.k * self._outer_blocks

    @property
    def n(self) -> int:
        return self.inner.n * self._inner_blocks

    def _encode_bits(self, bits):
        # The outer output tiles the inner input (the lcm above), so
        # neither stage re-validates: the bits were checked at entry.
        return self.inner._encode_bits(self.outer._encode_bits(bits))

    def _decode_rows(self, bits):
        # The inner stage's output tiles the outer input (the lcm above),
        # so neither stage re-validates its stack.
        inner, inner_counts = self.inner._decode_rows(bits)
        outer, outer_counts = self.outer._decode_rows(inner)
        return outer, inner_counts + outer_counts


def paper_end_to_end_code(copies: int = 7) -> ConcatenatedCode:
    """The §6 construction: Hamming(7,4) replicated ``copies`` times,
    which the paper describes as turning the code into a Hamming(7,1)-like
    scheme at 7 copies."""
    from .hamming import hamming_7_4
    from .repetition import RepetitionCode

    if copies < 1 or copies % 2 == 0:
        raise ConfigurationError("copies must be positive and odd")
    return ConcatenatedCode(hamming_7_4(), RepetitionCode(copies))
