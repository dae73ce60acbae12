"""Welch's unequal-variance t-test.

The paper's plausible-deniability argument (§6) is a Welch's t-test between
Hamming-weight samples from devices with encrypted hidden messages and
devices with none, with the null hypothesis of identical means; the paper
reports a one-tailed p of 0.071 and therefore cannot reject the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class WelchResult:
    """Welch's t statistic with Welch-Satterthwaite degrees of freedom."""

    t_statistic: float
    degrees_of_freedom: float
    p_value_two_sided: float
    p_value_one_tailed: float
    mean_a: float
    mean_b: float

    def rejects_null(self, alpha: float = 0.05, *, one_tailed: bool = True) -> bool:
        """Whether the adversary can claim the populations differ."""
        p = self.p_value_one_tailed if one_tailed else self.p_value_two_sided
        return p < alpha


def welch_t_test(sample_a: np.ndarray, sample_b: np.ndarray) -> WelchResult:
    """Welch's t-test of mean(sample_a) vs mean(sample_b).

    The one-tailed p is for the alternative "mean_a > mean_b" when the
    observed difference is positive (and symmetric otherwise) — i.e. the
    tail on the observed side, matching the paper's usage.
    """
    a = np.asarray(sample_a, dtype=np.float64).ravel()
    b = np.asarray(sample_b, dtype=np.float64).ravel()
    if a.size < 2 or b.size < 2:
        raise ConfigurationError("each sample needs at least two observations")

    mean_a, mean_b = float(a.mean()), float(b.mean())
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    se_a, se_b = var_a / a.size, var_b / b.size
    se = se_a + se_b
    if se == 0.0:
        raise ConfigurationError("both samples are constant; t is undefined")

    t_stat = (mean_a - mean_b) / math.sqrt(se)
    dof = se**2 / (
        se_a**2 / (a.size - 1) + se_b**2 / (b.size - 1)
    )
    from scipy.stats import t as student_t

    p_one = float(student_t.sf(abs(t_stat), dof))
    return WelchResult(
        t_statistic=float(t_stat),
        degrees_of_freedom=float(dof),
        p_value_two_sided=2.0 * p_one,
        p_value_one_tailed=p_one,
        mean_a=mean_a,
        mean_b=mean_b,
    )
