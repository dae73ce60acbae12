"""Analog-domain NAND/NOR Flash model.

Just enough physics for the two baseline hiding schemes: per-cell charge
levels (threshold voltages), lognormally distributed program times with a
wear-driven drift term, page-granularity programming and block-granularity
erase.  Invisible Bits' advantage claims (Table 3) come from measured runs
against this model.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DeviceError
from ..rng import make_rng

#: Charge level conventions (arbitrary volts): erased cells read as 1.
ERASED_LEVEL = 0.0
PROGRAMMED_LEVEL = 4.0
READ_THRESHOLD = 2.0


class FlashAnalogArray:
    """A bank of Flash cells with analog state.

    Attributes
    ----------
    levels:
        Per-cell charge level (volts).  Reads compare against
        ``READ_THRESHOLD``: level above threshold reads 0 (programmed).
    base_program_time:
        Per-cell intrinsic program time (microseconds), lognormal across the
        die — the long-tailed spectrum Wang et al. exploit.
    cycle_counts:
        Per-cell program/erase wear; each cycle slows programming by
        ``wear_slowdown`` (fractional).
    """

    def __init__(
        self,
        n_cells: int,
        *,
        page_cells: int = 2048 * 8,
        program_time_sigma: float = 0.12,
        wear_slowdown: float = 2.5e-4,
        program_noise: float = 0.02,
        rng: "int | np.random.Generator | None" = None,
    ):
        if n_cells <= 0:
            raise ConfigurationError("n_cells must be positive")
        if page_cells <= 0 or n_cells % page_cells:
            raise ConfigurationError(
                f"n_cells {n_cells} must be a multiple of page_cells {page_cells}"
            )
        self._rng = make_rng(rng)
        self.n_cells = n_cells
        self.page_cells = page_cells
        self.wear_slowdown = wear_slowdown
        self.program_noise = program_noise

        self.levels = np.zeros(n_cells, dtype=np.float64)  # erased
        self.base_program_time = np.exp(
            self._rng.normal(np.log(200.0), program_time_sigma, n_cells)
        )
        self.cycle_counts = np.zeros(n_cells, dtype=np.int64)

    @property
    def n_pages(self) -> int:
        return self.n_cells // self.page_cells

    # -- bulk operations --------------------------------------------------------

    def erase(self) -> None:
        """Mass erase: all cells to the erased level; wear increments."""
        self.levels[...] = ERASED_LEVEL
        self.cycle_counts += 1

    def program(self, bits: np.ndarray) -> np.ndarray:
        """Program the whole array with ``bits`` (0 = programmed, Flash
        convention); returns per-cell measured program times.

        Cells keeping 1 stay erased (time ~0); programmed cells take their
        intrinsic time scaled by wear, plus measurement noise.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size != self.n_cells:
            raise ConfigurationError(
                f"need {self.n_cells} bits, got {bits.size}"
            )
        if np.any(self.levels > ERASED_LEVEL):
            raise DeviceError("array must be erased before programming")
        programmed = bits == 0
        self.levels[programmed] = PROGRAMMED_LEVEL

        times = np.zeros(self.n_cells)
        wear = 1.0 + self.wear_slowdown * self.cycle_counts[programmed]
        noise = 1.0 + self.program_noise * self._rng.standard_normal(
            int(programmed.sum())
        )
        times[programmed] = self.base_program_time[programmed] * wear * noise
        return times

    def read(self) -> np.ndarray:
        """Digital read: 1 where the cell is (still) erased."""
        return (self.levels < READ_THRESHOLD).astype(np.uint8)

    # -- analog manipulation (the Zuck scheme's primitive) ---------------------------

    def nudge_levels(self, mask: np.ndarray, delta: float) -> None:
        """Incrementally add charge to selected cells (partial programming).

        Only already-programmed cells can be nudged upward; erased cells
        would change their digital value and blow the cover data.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.size != self.n_cells:
            raise ConfigurationError("mask size mismatch")
        if delta < 0:
            raise ConfigurationError("Flash charge can only be added, not removed")
        if np.any(self.levels[mask] < READ_THRESHOLD):
            raise DeviceError("cannot nudge erased cells without corrupting data")
        self.levels[mask] += delta

    def read_levels(self) -> np.ndarray:
        """Analog read-out of the charge levels (raw threshold sweep)."""
        return self.levels.copy()

    # -- wear injection (the Wang scheme's primitive) -----------------------------------

    def cycle_cells(self, mask: np.ndarray, cycles: int) -> None:
        """Repeatedly program/erase selected cells, accumulating wear."""
        mask = np.asarray(mask, dtype=bool)
        if mask.size != self.n_cells:
            raise ConfigurationError("mask size mismatch")
        if cycles < 0:
            raise ConfigurationError("cycles must be >= 0")
        self.cycle_counts[mask] += cycles
