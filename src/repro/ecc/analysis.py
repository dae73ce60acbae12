"""Analytic error models for the coded channel.

Implements the paper's Equation 1 (majority voting over ``n`` copies as
Bernoulli trials) and an exact enumeration of residual error for small block
codes, used to draw the "Theoretical" curve of Figure 10 and to plan
capacity/error trade-offs (Figure 15).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import ConfigurationError
from .base import Code


def repetition_residual_error(p_error: float, copies: int) -> float:
    """Equation 1: residual error after majority voting over ``copies``.

    ``p_error`` is the per-bit channel error rate; a vote is wrong when at
    most ``(copies+1)/2 - 1`` of the copies are correct, i.e. when fewer
    than the majority succeed.  (The paper writes it via the success
    probability ``p``: Error = 1 - sum_{i=(n+1)/2}^{n} C(n,i) p^i (1-p)^(n-i).)
    """
    if not 0.0 <= p_error <= 1.0:
        raise ConfigurationError(f"error rate must be in [0, 1], got {p_error}")
    if copies < 1 or copies % 2 == 0:
        raise ConfigurationError(f"copies must be positive odd, got {copies}")
    from scipy.stats import binom

    p_success = 1.0 - p_error
    majority = (copies + 1) // 2
    return float(1.0 - binom.sf(majority - 1, copies, p_success))


def copies_to_reach(p_error: float, target_error: float, *, max_copies: int = 99) -> int:
    """Smallest odd copy count whose Equation-1 residual is <= target."""
    if not 0.0 < target_error < 1.0:
        raise ConfigurationError("target error must be in (0, 1)")
    for copies in range(1, max_copies + 1, 2):
        if repetition_residual_error(p_error, copies) <= target_error:
            return copies
    raise ConfigurationError(
        f"no odd copy count up to {max_copies} reaches {target_error} "
        f"from channel error {p_error}"
    )


def exact_residual_ber(code: Code, p_error: float, *, max_block_bits: int = 16) -> float:
    """Exact residual data-bit error rate of a block code on a BSC.

    Enumerates all ``2^n`` channel error patterns of one block, decodes
    each, and weights the resulting data-bit error count by the pattern's
    probability.  Exact but exponential — restricted to small blocks
    (Hamming(7,4)'s 128 patterns are instant).
    """
    if not 0.0 <= p_error <= 1.0:
        raise ConfigurationError(f"error rate must be in [0, 1], got {p_error}")
    n = code.n
    if n > max_block_bits:
        raise ConfigurationError(
            f"exact enumeration over 2^{n} patterns refused "
            f"(max_block_bits={max_block_bits})"
        )
    data = np.zeros(code.k, dtype=np.uint8)  # linear codes: WLOG all-zero data
    codeword = code.encode(data)

    # Weight-class probabilities are accumulated in log space: at small
    # ``p_error`` the per-pattern probability ``p^w (1-p)^(n-w)`` underflows
    # to 0.0 long before the class total ``C(n,w) * p^w ...`` does, and the
    # old ``pattern_prob == 0.0`` skip silently dropped that mass — the
    # exact curve the capacity analysis gates on read as optimistically
    # zero.  Only mathematically impossible classes are skipped now.
    total = 0.0
    for weight in range(n + 1):
        if p_error == 0.0 and weight > 0:
            continue
        if p_error == 1.0 and weight < n:
            continue
        wrong_total = 0
        for positions in itertools.combinations(range(n), weight):
            corrupted = codeword.copy()
            for pos in positions:
                corrupted[pos] ^= 1
            decoded = code.decode(corrupted)
            wrong_total += int(np.count_nonzero(decoded != data))
        if wrong_total == 0:
            continue
        if p_error in (0.0, 1.0):
            total += float(wrong_total)  # the surviving class has prob 1
            continue
        log_class = (
            weight * math.log(p_error)
            + (n - weight) * math.log1p(-p_error)
            + math.log(wrong_total)
        )
        total += math.exp(log_class)
    return total / code.k


def concatenated_residual_error(
    p_error: float, copies: int, *, hamming_code: "Code | None" = None
) -> float:
    """Residual error of the paper's repetition+Hamming(7,4) stack.

    The repetition stage sees the raw channel; the Hamming stage then sees
    the voted residual (errors stay independent because the paper's channel
    errors are spatially random, Table 2).
    """
    from .hamming import hamming_7_4

    code = hamming_code or hamming_7_4()
    after_vote = repetition_residual_error(p_error, copies)
    return exact_residual_ber(code, after_vote)


def vote_channel_capacity(
    p_flip: float, n_captures: int, *, decision: str = "soft"
) -> float:
    """Per-cell capacity of the ``n_captures``-vote channel, in bits.

    Models one stego cell as a binary input ``X`` observed through
    ``n_captures`` independent power-on reads, each flipping with
    probability ``p_flip``.  What the receiver keeps decides the capacity:

    - ``decision="soft"``: the receiver keeps the ones count ``K`` (the
      vote margin), a binary-input soft-output channel; capacity is the
      mutual information ``I(X; K)`` with ``K | X=0 ~ Binom(n, p)`` and
      ``K | X=1 ~ Binom(n, 1-p)`` (the quantised-observation construction
      of arXiv:2112.02198).
    - ``decision="hard"``: the receiver keeps only the majority bit;
      capacity is the BSC capacity at the Equation-1 residual error,
      which requires an odd ``n_captures``.

    The soft/hard gap is exactly the information the hard path throws
    away by discarding vote margins.
    """
    if not 0.0 <= p_flip <= 1.0:
        raise ConfigurationError(f"flip rate must be in [0, 1], got {p_flip}")
    if n_captures < 1:
        raise ConfigurationError(f"n_captures must be positive, got {n_captures}")
    if decision == "hard":
        from ..core.channel import bsc_capacity

        return bsc_capacity(repetition_residual_error(p_flip, n_captures))
    if decision != "soft":
        raise ConfigurationError(f"unknown decision {decision!r}")
    from scipy.stats import binom

    k = np.arange(n_captures + 1)
    pmf0 = binom.pmf(k, n_captures, p_flip)  # X=0: captures flip toward 1
    pmf1 = binom.pmf(k, n_captures, 1.0 - p_flip)
    marginal = 0.5 * (pmf0 + pmf1)
    info = 0.0
    for pmf in (pmf0, pmf1):
        mask = pmf > 0.0
        info += 0.5 * float(
            np.sum(pmf[mask] * np.log2(pmf[mask] / marginal[mask]))
        )
    # Clip the ~1e-16 negatives float error can produce at p=0.5.
    return float(min(1.0, max(0.0, info)))


def effective_capacity(sram_bits: int, code: Code) -> int:
    """Message bits a coded SRAM can carry (the §5.3 capacity numbers)."""
    if sram_bits <= 0:
        raise ConfigurationError("sram_bits must be positive")
    blocks = sram_bits // code.n
    return blocks * code.k
