"""Moran's I spatial autocorrelation on a 2-D cell grid.

The paper uses Moran's I to show that (a) encoding errors are spatially
random (Table 2) and (b) plaintext-encoded payloads betray themselves with
strong positive autocorrelation while encrypted ones do not (Table 5).
Values near ``-1/(N-1)`` indicate spatial randomness; towards +1, clustered
patterns.

Weights are rook adjacency (up/down/left/right neighbours) on the SRAM's
physical layout grid.  Significance comes from the standard normal
approximation under the randomization assumption, with an optional
permutation test for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import make_rng
from .normal import ndtr


@dataclass(frozen=True)
class MoransIResult:
    """Moran's I statistic with its null expectation and significance.

    ``statistic``, ``expected``, ``variance`` and ``z_score`` always come
    from the analytic randomization-assumption formulas (Cliff & Ord); the
    permutation test replaces only ``p_value``.  ``p_value_method`` records
    which branch produced ``p_value`` (``"analytic"`` or ``"permutation"``)
    so the two significance sources cannot be conflated downstream — the
    analytic z next to a permutation p is provenance, not a mismatch.
    """

    statistic: float
    expected: float
    variance: float
    z_score: float  # always analytic, whatever produced p_value
    p_value: float  # two-sided
    n: int
    p_value_method: str = "analytic"

    def is_spatially_random(self, alpha: float = 0.05) -> bool:
        """True when the pattern is indistinguishable from spatial noise."""
        return self.p_value >= alpha


def _rook_cross_products(grid: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(sum of w_ij * z_i * z_j, S0, per-cell degree) for rook adjacency."""
    z = grid - grid.mean()
    horizontal = float((z[:, :-1] * z[:, 1:]).sum())
    vertical = float((z[:-1, :] * z[1:, :]).sum())
    cross = 2.0 * (horizontal + vertical)  # symmetric weights

    rows, cols = grid.shape
    n_links = rows * (cols - 1) + (rows - 1) * cols
    s0 = 2.0 * n_links

    degree = np.full(grid.shape, 4.0)
    degree[0, :] -= 1.0
    degree[-1, :] -= 1.0
    degree[:, 0] -= 1.0
    degree[:, -1] -= 1.0
    return cross, s0, degree


def morans_i(
    values: np.ndarray,
    *,
    grid_shape: "tuple[int, int] | None" = None,
    permutations: int = 0,
    rng: "int | np.random.Generator | None" = None,
) -> MoransIResult:
    """Compute Moran's I of ``values`` laid out on a 2-D grid.

    ``values`` may already be 2-D; a flat array needs ``grid_shape`` (pad
    cells are not supported — pass the exact die layout, e.g.
    :meth:`repro.sram.SRAMArray.grid_shape`).  ``permutations > 0`` replaces
    the analytic p-value with a permutation p-value.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        if grid_shape is None:
            raise ConfigurationError("flat input needs grid_shape")
        rows, cols = grid_shape
        if rows * cols != arr.size:
            raise ConfigurationError(
                f"grid {grid_shape} does not hold {arr.size} values"
            )
        arr = arr.reshape(rows, cols)
    elif arr.ndim != 2:
        raise ConfigurationError(f"expected 1-D or 2-D input, got {arr.ndim}-D")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ConfigurationError("grid must be at least 2x2")

    n = arr.size
    z = arr - arr.mean()
    m2 = float((z * z).sum())
    if m2 == 0.0:
        raise ConfigurationError("Moran's I is undefined for constant input")

    cross, s0, degree = _rook_cross_products(arr)
    statistic = (n / s0) * (cross / m2)
    expected = -1.0 / (n - 1)

    # Randomization-assumption variance (Cliff & Ord).  For symmetric 0/1
    # weights: S1 = 2*S0 and S2 = sum_i (2*deg_i)^2.
    s1 = 2.0 * s0
    s2 = float((4.0 * degree**2).sum())
    b2 = n * float((z**4).sum()) / (m2 * m2)
    num = n * ((n * n - 3 * n + 3) * s1 - n * s2 + 3 * s0 * s0) - b2 * (
        (n * n - n) * s1 - 2 * n * s2 + 6 * s0 * s0
    )
    den = (n - 1) * (n - 2) * (n - 3) * s0 * s0
    variance = num / den - expected * expected
    if variance <= 0:
        raise ConfigurationError("degenerate variance; grid too small")

    z_score = (statistic - expected) / math.sqrt(variance)
    if permutations > 0:
        gen = make_rng(rng)
        flat = arr.ravel()
        exceed = 0
        for _ in range(permutations):
            perm = gen.permutation(flat).reshape(arr.shape)
            cross_p, _, _ = _rook_cross_products(perm)
            stat_p = (n / s0) * (cross_p / m2)
            if abs(stat_p - expected) >= abs(statistic - expected):
                exceed += 1
        p_value = (exceed + 1) / (permutations + 1)
        method = "permutation"
    else:
        p_value = 2.0 * ndtr(-abs(z_score))
        method = "analytic"

    return MoransIResult(
        statistic=float(statistic),
        expected=float(expected),
        variance=float(variance),
        z_score=float(z_score),
        p_value=float(p_value),
        n=n,
        p_value_method=method,
    )
