"""Order statistics used by every metric: nearest-rank percentiles.

A percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it — with fewer, the value is one or two outliers, not a
percentile.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a percentile for it to be reported.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent``-th percentile (0 < percent <= 100).

    The smallest sample such that at least ``percent`` % of the samples
    are less than or equal to it; always one of the samples, never an
    interpolation.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(values)
    rank = math.ceil(percent / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """The nearest-rank median (p50)."""
    return nearest_rank(values, 50)


def samples_beyond(count: int, percent: float) -> int:
    """How many of ``count`` samples rank strictly above the percentile."""
    return count - max(math.ceil(percent / 100.0 * count), 1)


def supported(count: int, percent: float) -> bool:
    """Does a sample of ``count`` support reporting this percentile?"""
    return count > 0 and samples_beyond(count, percent) >= MIN_BEYOND
