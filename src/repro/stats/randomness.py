"""Randomness sanity tests (NIST SP 800-22 style, simplified).

Used by the TRNG subsystem and by steganalysis extensions: the monobit
frequency test, the block-frequency test, and the runs test.  Each returns
a p-value; a healthy random stream passes all three at alpha = 0.01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bitutils import as_bit_array
from ..errors import ConfigurationError


@dataclass(frozen=True)
class RandomnessVerdict:
    """A test's p-value and pass/fail at the conventional alpha."""

    test: str
    p_value: float
    alpha: float = 0.01

    @property
    def passed(self) -> bool:
        return self.p_value >= self.alpha


def monobit_test(bits: np.ndarray) -> RandomnessVerdict:
    """SP 800-22 frequency test: is the 1s/0s balance plausible?"""
    arr = as_bit_array(bits)
    if arr.size < 100:
        raise ConfigurationError("monobit test needs at least 100 bits")
    s = abs(int(arr.sum()) * 2 - arr.size) / math.sqrt(arr.size)
    p = math.erfc(s / math.sqrt(2.0))
    return RandomnessVerdict("monobit", p)


def block_frequency_test(bits: np.ndarray, block_bits: int = 128) -> RandomnessVerdict:
    """SP 800-22 block frequency test over ``block_bits`` blocks."""
    arr = as_bit_array(bits)
    n_blocks = arr.size // block_bits
    if n_blocks < 10:
        raise ConfigurationError("block frequency test needs >= 10 full blocks")
    blocks = arr[: n_blocks * block_bits].reshape(n_blocks, block_bits)
    proportions = blocks.mean(axis=1)
    statistic = 4.0 * block_bits * float(((proportions - 0.5) ** 2).sum())
    from scipy.stats import chi2

    p = float(chi2.sf(statistic, df=n_blocks))
    return RandomnessVerdict("block_frequency", p)


def runs_test(bits: np.ndarray) -> RandomnessVerdict:
    """SP 800-22 runs test: are the oscillations consistent with noise?"""
    arr = as_bit_array(bits)
    if arr.size < 100:
        raise ConfigurationError("runs test needs at least 100 bits")
    pi = float(arr.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(arr.size):
        # Prerequisite monobit failure: runs test is defined to fail.
        return RandomnessVerdict("runs", 0.0)
    runs = 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))
    expected = 2.0 * arr.size * pi * (1.0 - pi)
    p = math.erfc(
        abs(runs - expected)
        / (2.0 * math.sqrt(2.0 * arr.size) * pi * (1.0 - pi))
    )
    return RandomnessVerdict("runs", p)


def run_battery(bits: np.ndarray) -> list[RandomnessVerdict]:
    """All three tests over one stream.

    The block size adapts to short streams (at least 10 blocks of at least
    16 bits, capped at the conventional 128) so the battery stays usable on
    modest TRNG harvests.
    """
    arr = as_bit_array(bits)
    block_bits = int(min(128, max(16, arr.size // 10)))
    return [
        monobit_test(arr),
        block_frequency_test(arr, block_bits=block_bits),
        runs_test(arr),
    ]
