"""repro.verify: seeded property-based + differential verification.

The repository accumulates bit-identity contracts — batch capture equals
the power-cycle loop, the stacked fleet kernel equals the per-device
loop, every ECC round-trips, CTR is an involution against a per-block
AES reference, and so on.  This package makes those contracts *executable*: typed seeded generators
(:mod:`~repro.verify.generators`), a deterministic shrinking runner
(:mod:`~repro.verify.runner`), a registry of differential oracles
(:mod:`~repro.verify.oracles`), and a sweep + mutation-smoke harness
(:mod:`~repro.verify.suite`) behind ``repro verify`` on the CLI.

There is deliberately no dependency beyond numpy — no hypothesis, no
pytest import at runtime; scipy is imported only while the
``stats.normal_vs_scipy`` oracle, whose reference it is, runs.  Everything is replayable from two integers:
the sweep seed and the failing example index.
"""

from . import generators
from .oracles import Oracle, all_mutants, all_oracles, get_oracle, mutant, oracle
from .runner import ContractViolation, Failure, PropertyReport, Runner, check_that
from .suite import MutationReport, VerifySummary, run_mutation_smoke, run_verification

__all__ = [
    "ContractViolation",
    "Failure",
    "MutationReport",
    "Oracle",
    "PropertyReport",
    "Runner",
    "VerifySummary",
    "all_mutants",
    "all_oracles",
    "check_that",
    "generators",
    "get_oracle",
    "mutant",
    "oracle",
    "run_mutation_smoke",
    "run_verification",
]
