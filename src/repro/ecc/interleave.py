"""Block interleaving.

The paper finds its errors essentially randomly located (Table 2), so it
never *needs* an interleaver — but any real deployment wants one as cheap
insurance against locally bursty damage (e.g. the §7.4 adversary), and the
ablation benches quantify exactly that.  The interleaver presents the
:class:`Code` interface at rate 1 so it composes with the other codes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import Code


class BlockInterleaver(Code):
    """A rows-by-columns block interleaver.

    Writes ``depth`` consecutive codeword bits down each column and reads
    rows, spreading any burst of up to ``depth`` adjacent channel errors
    across ``depth`` different codewords.
    """

    def __init__(self, depth: int, span: int):
        if depth < 1 or span < 1:
            raise ConfigurationError("depth and span must be >= 1")
        self.depth = depth
        self.span = span
        self.name = f"interleave({depth}x{span})"

    @property
    def k(self) -> int:
        return self.depth * self.span

    @property
    def n(self) -> int:
        return self.depth * self.span

    def _encode_bits(self, bits):
        blocks = bits.reshape(-1, self.depth, self.span)
        return blocks.transpose(0, 2, 1).reshape(-1).astype(np.uint8)

    def _decode_rows(self, bits):
        n_rows, width = bits.shape
        blocks = bits.reshape(n_rows, width // self.n, self.span, self.depth)
        return blocks.transpose(0, 1, 3, 2).reshape(n_rows, width), []
