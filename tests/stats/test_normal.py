"""The Cephes Phi / Phi^-1 ports are bit-identical to scipy's.

``repro.stats.normal`` replaces ``scipy.stats.norm`` on the serving path,
so equality here is ``==`` on the float bits, never approximate: every
calibrated constant downstream depends on it.
"""

import math

import numpy as np
from scipy import special as scipy_special
from scipy.stats import norm

from repro.stats.normal import ndtr, ndtri

EXP_M2 = math.exp(-2.0)  # ndtri: central / tail split
EXP_M32 = math.exp(-32.0)  # ndtri: z = sqrt(-2 log y) crosses 8
MAXLOG = 7.09782712893383996732e2


def _neighbours(points, ulps: int = 64) -> np.ndarray:
    """Each point plus the ``ulps`` floats on either side of it."""
    out = []
    for point in points:
        below = above = float(point)
        out.append(below)
        for _ in range(ulps):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            out.extend((below, above))
    return np.array(out)


def _probabilities() -> np.ndarray:
    rng = np.random.default_rng(20220228)
    tiny = 10.0 ** -rng.uniform(0.0, 300.0, 40_000)
    splits = (EXP_M2, 1.0 - EXP_M2, EXP_M32, 1.0 - EXP_M32, 0.5)
    return np.concatenate(
        [
            rng.uniform(0.0, 1.0, 60_000),  # centre
            tiny,  # lower tail to 1e-300
            1.0 - tiny,  # upper tail, as close to 1 as doubles allow
            rng.uniform(EXP_M2 * 0.9, EXP_M2 * 1.1, 20_000),
            rng.uniform(1.0 - EXP_M2 * 1.1, 1.0 - EXP_M2 * 0.9, 20_000),
            np.exp(-rng.uniform(28.0, 36.0, 20_000)),  # both sides of x = 8
            _neighbours(splits),
            [0.0, 1.0, 5e-324, 1e-300, math.nextafter(1.0, 0.0)],
            [-0.1, 1.5, -math.inf, math.inf, math.nan],  # NaN, as in scipy
        ]
    )


def _shifts() -> np.ndarray:
    rng = np.random.default_rng(20220301)
    underflow = math.sqrt(2.0 * MAXLOG)  # erfc(|x| / sqrt 2) hits exp(-MAXLOG)
    splits = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), underflow, 0.0)
    splits += tuple(-s for s in splits)
    return np.concatenate(
        [
            rng.standard_normal(60_000),  # centre
            rng.uniform(-40.0, 40.0, 60_000),  # both tails past underflow
            rng.uniform(-1.5, 1.5, 40_000),  # erf / erfc hand-over
            rng.uniform(-12.0, -10.5, 20_000),  # erfc's x = 8 split
            rng.uniform(-38.5, -37.0, 20_000),  # last representable tail
            _neighbours(splits),
            [math.inf, -math.inf, -0.0, 1e-300, -1e-300, math.nan],
        ]
    )


def _assert_bits_equal(ours: list, reference: np.ndarray, inputs: np.ndarray):
    ours = np.array(ours, dtype=np.float64)
    both_nan = np.isnan(ours) & np.isnan(reference)
    same = (ours.view(np.uint64) == reference.view(np.uint64)) | both_nan
    bad = np.flatnonzero(~same)
    assert bad.size == 0, [
        (inputs[i].hex(), ours[i].hex(), reference[i].hex()) for i in bad[:5]
    ]


def test_ndtri_is_bit_identical_to_scipy():
    probs = _probabilities()
    assert probs.size >= 200_000
    _assert_bits_equal(
        [ndtri(p) for p in probs.tolist()], scipy_special.ndtri(probs), probs
    )


def test_ndtr_is_bit_identical_to_scipy():
    shifts = _shifts()
    assert shifts.size >= 200_000
    _assert_bits_equal(
        [ndtr(x) for x in shifts.tolist()], scipy_special.ndtr(shifts), shifts
    )


def test_matches_the_norm_calls_it_replaces():
    """``norm.ppf``, ``norm.cdf`` and ``norm.sf`` — the calls calibration
    and Moran's I made before — reduce to the same bits."""
    rng = np.random.default_rng(7)
    probs = np.concatenate(
        [rng.uniform(0.0, 0.5, 2_000), 10.0 ** -rng.uniform(0, 300, 2_000)]
    )
    shifts = rng.uniform(0.0, 40.0, 4_000)
    _assert_bits_equal([ndtri(p) for p in probs.tolist()], norm.ppf(probs), probs)
    _assert_bits_equal([ndtr(-x) for x in shifts.tolist()], norm.cdf(-shifts), shifts)
    _assert_bits_equal([ndtr(-x) for x in shifts.tolist()], norm.sf(shifts), shifts)


def test_accepts_numpy_scalars_and_returns_floats():
    assert type(ndtri(np.float64(0.25))) is float
    assert type(ndtr(np.float32(1.0))) is float
    assert ndtr(np.float64(-1.25)) == float(scipy_special.ndtr(-1.25))
