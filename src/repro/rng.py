"""Seeded random-number plumbing.

All stochastic components of the simulator (process variation, power-up
noise, workload generators...) take either an integer seed or an existing
:class:`numpy.random.Generator`.  Centralising the coercion here keeps every
experiment reproducible from a single seed while still allowing callers to
share one generator across components when they want correlated streams.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def make_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a fresh OS-seeded generator; an ``int`` yields a
    deterministic generator; an existing generator is returned unchanged so
    that callers can thread a single stream through many components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Built on :meth:`numpy.random.SeedSequence.spawn`, so the children are
    statistically independent of each other *and* of the parent's future
    output.  The fan-out is a pure function of the parent's seed sequence
    and its spawn history — not of who consumes which child when — so a
    fleet that assigns child ``i`` to device ``i`` up front gets the same
    devices whatever order, or subset, it later runs them in.

    Used whenever one experiment instantiates several devices that must
    have independent—but still reproducible—process variation.
    """
    if count < 0:
        raise ValueError(f"spawn count must be >= 0, got {count}")
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if seed_seq is None:  # a bit generator seeded without a SeedSequence
        seed_seq = np.random.SeedSequence(int(rng.integers(0, 2**63)))
    return [np.random.default_rng(s) for s in seed_seq.spawn(count)]
