"""Summaries of repeated measurements.

A timing is reported as its median and the highest percentile that has at
least ten samples beyond it, together with the sample count. With fewer
than twenty samples no percentile above the median qualifies.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, in tenths of a percent to keep the arithmetic
# exact.
_LADDER_TENTHS = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10


def tail_percentile(n):
    """Highest percentile of the ladder with at least MIN_BEYOND of `n`
    samples beyond it, or None."""
    best = None
    for tenths in _LADDER_TENTHS:
        if n * (1000 - tenths) >= MIN_BEYOND * 1000:
            best = tenths / 10.0
    return best


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def summarize(values):
    """Median, quartiles, sample count and the qualifying tail percentile."""
    values = list(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) >= 2
                 else values * 3)
    p = tail_percentile(len(values))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "tail_p": p,
            "tail": percentile(values, p) if p is not None else None}
