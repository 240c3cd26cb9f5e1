"""Order statistics for the benchmark's timings.

Percentiles use the nearest-rank definition (Hyndman and Fan type 1,
numpy's ``method="inverted_cdf"`` up to numpy's floating-point rounding
of p/100*n): the p-th percentile of n samples is the sample at rank
``ceil(p/100 * n)`` of the sorted list, so every reported percentile is
a value that was actually measured and the p50 of two samples is the
smaller one.
"""

from __future__ import annotations

import math


def percentile(values, p: float) -> float:
    """The nearest-rank *p*-th percentile (0 <= p <= 100) of *values*."""
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    # p * n first: for integer p the product is exact, so ranks that
    # land on a whole number are not nudged up by float rounding.
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]
