"""Summary statistics for latency samples and run-to-run spread."""

from __future__ import annotations

import bisect
import statistics

# Percentiles a tail may be reported at: 50 to 99 in steps of 1.  The
# tail is the highest of these with at least TAIL_BEYOND samples strictly
# above it.  The ladder stops at p99 because above it, in a run of some
# 20000 queries, the samples are mostly collector pauses and scheduler
# stalls that hit ops at random, not slow queries: the slowest query takes
# about 4 ms, and the wall-clock p99.9 of one seed read 9.0 ms and 5.3 ms
# in two runs on a shared 2-core guest.
TAIL_LADDER = range(50, 100)
TAIL_BEYOND = 10


def percentile(sorted_samples, q: int) -> float:
    """Nearest-rank q-th percentile of an ascending, non-empty sequence."""
    n = len(sorted_samples)
    rank = max(1, -(-q * n // 100))
    return sorted_samples[rank - 1]


def tail(samples):
    """(percentile, value, beyond) for the highest ladder
    percentile that has at least TAIL_BEYOND samples strictly above its
    value, or None when no ladder percentile has that support."""
    ordered = sorted(samples)
    best = None
    for q in TAIL_LADDER:
        value = percentile(ordered, q)
        beyond = len(ordered) - bisect.bisect_right(ordered, value)
        if beyond >= TAIL_BEYOND:
            best = (q, value, beyond)
    return best


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
