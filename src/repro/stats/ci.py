"""Student-t confidence intervals over replication means."""

from __future__ import annotations

import functools
import math
from typing import Sequence

from scipy import stats as _scipy_stats


@functools.lru_cache(maxsize=1024)
def _t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value for ``df`` degrees of freedom
    (memoised: stopping-rule checks ask for the same few pairs)."""
    return float(_scipy_stats.t.ppf(0.5 + confidence / 2.0, df))


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Mean and half-width of the ``confidence`` CI of the mean.

    With fewer than two observations the half-width is infinite (no
    variance estimate exists), which correctly forces the replication
    controller to keep running.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    if n == 0:
        raise ValueError("no observations")
    mean = sum(values) / n
    if n < 2:
        return mean, math.inf
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    if var == 0.0:
        return mean, 0.0
    return mean, _t_quantile(confidence, n - 1) * math.sqrt(var / n)


def relative_error(mean: float, half_width: float) -> float:
    """CI half-width relative to the mean (``inf`` for a zero mean)."""
    if half_width == 0.0:
        return 0.0
    if mean == 0.0:
        return math.inf
    return abs(half_width / mean)
