"""Negative Bias Temperature Instability: stress and partial recovery.

NBTI is the mechanism Invisible Bits directs (paper §2.2).  While a PMOS is
under bias it accumulates interface states that raise |Vth|; releasing the
bias lets a *fraction* of the shift relax, logarithmically in time, leaving
the rest permanent.  Two empirical facts from the paper's evaluation anchor
the model:

- the message error rate falls logarithmically with stress time (Figure 6),
  i.e. the digitally observable shift grows as a power law ``k * t^n``;
- natural recovery increases error logarithmically with shelf time, with a
  recovery *rate* that decays exponentially (Figure 7), i.e. the recovered
  fraction grows as ``c * ln(1 + t/tau)`` up to a ceiling.

The model is fully vectorized: an :class:`NBTIState` carries per-transistor
arrays so an entire SRAM bank ages in a handful of numpy operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .constants import NBTI_TIME_EXPONENT


@dataclass
class NBTIState:
    """Aging state for a bank of identical transistors.

    Attributes
    ----------
    stress_seconds:
        Accumulated *equivalent nominal* stress seconds per transistor
        (acceleration factors are applied by the caller before calling
        :meth:`NBTIModel.stress`).
    relax_seconds:
        Seconds since the end of the last stress interval, per transistor.
        Drives the recoverable component's logarithmic relaxation.
    pending_relax:
        Uniform bias-off seconds not yet folded into ``relax_seconds``.
        Shelf time advances *every* transistor's recovery clock by the same
        amount, so it can be deferred as one scalar instead of a full-array
        add — the hot capture loop relies on this.  Always call
        :meth:`flush_relax` (or go through :class:`NBTIModel`, which does)
        before reading ``relax_seconds`` directly.
    flushes:
        Count of :meth:`flush_relax` applications.  Cache layers key on it
        to detect that ``relax_seconds`` changed underneath them.
    """

    stress_seconds: np.ndarray
    relax_seconds: np.ndarray
    pending_relax: float = 0.0
    flushes: int = 0

    @classmethod
    def fresh(cls, n: int) -> "NBTIState":
        """State of ``n`` unaged transistors."""
        if n <= 0:
            raise ConfigurationError(f"transistor count must be positive, got {n}")
        return cls(
            stress_seconds=np.zeros(n, dtype=np.float64),
            relax_seconds=np.zeros(n, dtype=np.float64),
        )

    def flush_relax(self) -> None:
        """Fold any deferred uniform relaxation into ``relax_seconds``."""
        if self.pending_relax:
            self.relax_seconds += self.pending_relax
            self.pending_relax = 0.0
            self.flushes += 1

    def copy(self) -> "NBTIState":
        return NBTIState(
            self.stress_seconds.copy(),
            self.relax_seconds.copy(),
            self.pending_relax,
            self.flushes,
        )


@dataclass(frozen=True)
class NBTIModel:
    """Power-law NBTI stress with logarithmic partial recovery.

    The threshold-voltage shift of a transistor with state ``(s, r)`` is::

        dvth(s, r) = k * s^n * (1 - f_rec(r))
        f_rec(r)   = min(rec_ceiling, rec_log_coeff * ln(1 + r / rec_tau_s))

    ``k`` is in normalized mismatch-sigma units (see
    :mod:`repro.sram.calibration`); ``n`` is the observable time exponent.

    Re-stressing a partially recovered transistor first "re-locks" the
    recovered portion: the state's equivalent stress time is rewound so the
    current (post-recovery) shift is reproduced, then new stress accrues.
    This matches the fast re-passivation seen in measure-stress-measure NBTI
    experiments and keeps interleaved stress/relax sequences well defined.
    """

    k_scale: float
    time_exponent: float = NBTI_TIME_EXPONENT
    rec_ceiling: float = 0.35
    rec_log_coeff: float = 0.055
    rec_tau_s: float = 86400.0  # one day

    def __post_init__(self) -> None:
        if self.k_scale < 0:
            raise ConfigurationError(f"k_scale must be >= 0, got {self.k_scale}")
        if not 0 < self.time_exponent <= 1:
            raise ConfigurationError(
                f"time exponent must be in (0, 1], got {self.time_exponent}"
            )
        if not 0 <= self.rec_ceiling < 1:
            raise ConfigurationError(
                f"recovery ceiling must be in [0, 1), got {self.rec_ceiling}"
            )
        if self.rec_log_coeff < 0:
            raise ConfigurationError(
                f"recovery coefficient must be >= 0, got {self.rec_log_coeff}"
            )
        if self.rec_tau_s <= 0:
            raise ConfigurationError(f"rec_tau_s must be positive, got {self.rec_tau_s}")

    # -- state transitions --------------------------------------------------

    def stress(self, state: NBTIState, equivalent_seconds: "float | np.ndarray") -> None:
        """Apply DC stress (bias on) for ``equivalent_seconds`` nominal seconds.

        ``equivalent_seconds`` may be a scalar or a per-transistor array;
        transistors with zero stress are left entirely untouched (their relax
        clocks keep running), so one call can age just the active side of a
        memory bank.  The positive entries go through :meth:`stress_cells`.
        """
        state.flush_relax()
        eq = np.broadcast_to(
            np.asarray(equivalent_seconds, dtype=np.float64), state.stress_seconds.shape
        )
        if np.any(eq < 0):
            raise ConfigurationError("stress duration must be >= 0")
        cells = (eq > 0).nonzero()[0]
        self.stress_cells(state, cells, eq[cells])

    def stress_cells(
        self,
        state: NBTIState,
        cells: np.ndarray,
        equivalent_seconds: "float | np.ndarray",
    ) -> None:
        """Apply DC stress to the transistors at indices ``cells`` only.

        ``equivalent_seconds`` is positive: a scalar, or one value per
        index.  Every other transistor is left untouched, so the cost
        follows the stressed cells, not the bank.
        """
        state.flush_relax()
        if not cells.size:
            return
        stressed = state.stress_seconds[cells]
        relax = state.relax_seconds[cells]
        # Rewind equivalent stress time so the current (post-recovery) shift
        # is reproduced, then accrue the new stress on top.  A cell whose
        # clock reads 0 has recovered nothing and rewinds by exactly
        # ``1.0 ** (1/n) == 1.0``, so only running clocks are evaluated.
        running = relax.nonzero()[0]
        if running.size:
            recovered = self._recovered_fraction(relax[running])
            stressed[running] *= (1.0 - recovered) ** (1.0 / self.time_exponent)
        state.stress_seconds[cells] = stressed + equivalent_seconds
        state.relax_seconds[cells] = 0.0

    def stress_ac(self, state: NBTIState, equivalent_seconds: "float | np.ndarray") -> None:
        """Apply high-frequency duty-cycled stress.

        Normal device operation alternates each cell's stored value on
        microsecond scales (§5.1.4); NBTI under such AC stress accumulates
        like duty-scaled DC stress *without* re-locking the recoverable
        component, so the relax clocks are left untouched.  Callers pass the
        duty-scaled equivalent seconds.
        """
        eq = np.broadcast_to(
            np.asarray(equivalent_seconds, dtype=np.float64), state.stress_seconds.shape
        )
        if np.any(eq < 0):
            raise ConfigurationError("stress duration must be >= 0")
        state.stress_seconds += eq

    def relax(self, state: NBTIState, seconds: "float | np.ndarray") -> None:
        """Let the bias-off recovery clock advance by ``seconds``."""
        state.flush_relax()
        sec = np.asarray(seconds, dtype=np.float64)
        if np.any(sec < 0):
            raise ConfigurationError("relax duration must be >= 0")
        state.relax_seconds += sec

    def relax_uniform(self, state: NBTIState, seconds: float) -> None:
        """Advance every transistor's recovery clock by the same ``seconds``.

        O(1): the increment is deferred as :attr:`NBTIState.pending_relax`
        and folded in by the next operation that needs true per-transistor
        clocks.  This is what makes power-cycle bursts cheap — shelf gaps
        between captures cost two scalar adds instead of two array passes.
        """
        if seconds < 0:
            raise ConfigurationError("relax duration must be >= 0")
        state.pending_relax += float(seconds)

    # -- observables ---------------------------------------------------------

    def _recovered_fraction(self, relax_seconds: np.ndarray) -> np.ndarray:
        frac = self.rec_log_coeff * np.log1p(relax_seconds / self.rec_tau_s)
        return np.minimum(frac, self.rec_ceiling)

    def dvth(self, state: NBTIState) -> np.ndarray:
        """Current |Vth| shift per transistor, in normalized sigma units."""
        state.flush_relax()
        full = self.k_scale * np.power(state.stress_seconds, self.time_exponent)
        return full * (1.0 - self._recovered_fraction(state.relax_seconds))

    def dvth_unrecovered(self, state: NBTIState) -> np.ndarray:
        """|Vth| shift ignoring recovery (the locked-in power-law value)."""
        return self.k_scale * np.power(state.stress_seconds, self.time_exponent)

    def shift_after(self, equivalent_seconds: float) -> float:
        """Closed-form shift of a fresh transistor stressed continuously for
        ``equivalent_seconds`` (handy for calibration and planning)."""
        if equivalent_seconds < 0:
            raise ConfigurationError("stress duration must be >= 0")
        return self.k_scale * equivalent_seconds**self.time_exponent
