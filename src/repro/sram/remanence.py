"""SRAM data remanence.

A powered-off SRAM cell holds its charge for a short while; power-cycling
too quickly returns the *previous contents* rather than the true power-on
state.  The paper's harness eliminates this by driving the supply to ground
(§5); the simulator models it so that the harness has something real to
eliminate and so tests can demonstrate why draining matters.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..physics.constants import BOLTZMANN_EV, NOMINAL_TEMP_K


class RemanenceModel:
    """Per-cell exponential charge decay while unpowered.

    The probability that a cell still remembers its pre-power-off value
    after ``t`` unpowered seconds is ``exp(-t / tau(T))``; leakage roughly
    doubles every ~10 C, captured by an Arrhenius factor on ``tau``.
    """

    def __init__(
        self,
        tau_nominal_s: float,
        *,
        temp_nominal_k: float = NOMINAL_TEMP_K,
        leakage_activation_ev: float = 0.6,
    ):
        if tau_nominal_s <= 0:
            raise ConfigurationError(f"tau must be positive, got {tau_nominal_s}")
        if temp_nominal_k <= 0:
            raise ConfigurationError("nominal temperature must be positive")
        if leakage_activation_ev < 0:
            raise ConfigurationError("activation energy must be >= 0")
        self.tau_nominal_s = tau_nominal_s
        self.temp_nominal_k = temp_nominal_k
        self.leakage_activation_ev = leakage_activation_ev

    def tau(self, temp_k: float) -> float:
        """Retention time constant at ``temp_k`` (hotter leaks faster)."""
        if temp_k <= 0:
            raise ConfigurationError("temperature must be positive")
        exponent = (
            self.leakage_activation_ev
            / BOLTZMANN_EV
            * (1.0 / temp_k - 1.0 / self.temp_nominal_k)
        )
        return self.tau_nominal_s * float(np.exp(exponent))

    def retention_probability(
        self, off_seconds: "float | np.ndarray", temp_k: float
    ) -> "float | np.ndarray":
        """Probability a cell retains its value after ``off_seconds``.

        ``off_seconds`` may be a scalar or an array of gap lengths; the
        return type matches.
        """
        off = np.asarray(off_seconds, dtype=np.float64)
        if np.any(off < 0):
            raise ConfigurationError("off time must be >= 0")
        p = np.exp(-off / self.tau(temp_k))
        return float(p) if np.ndim(off_seconds) == 0 else p

    def retained_mask(
        self,
        n_cells: int,
        off_seconds: float,
        temp_k: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Boolean mask of cells that kept their value across the power gap."""
        p = self.retention_probability(off_seconds, temp_k)
        if p <= 0.0:
            return np.zeros(n_cells, dtype=bool)
        if p >= 1.0:
            return np.ones(n_cells, dtype=bool)
        return rng.random(n_cells) < p
