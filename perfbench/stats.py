"""Order statistics behind the reported numbers."""

from __future__ import annotations

import statistics

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def nearest_rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n samples (integer pct)."""
    return -(-pct * n // 100)


def tail_size(n, pct):
    """Samples strictly beyond the nearest-rank pct-th percentile."""
    return n - nearest_rank(n, pct)


def min_samples(pct):
    """Fewest samples for which the pct-th percentile leaves MIN_TAIL beyond it."""
    n = 1
    while tail_size(n, pct) < MIN_TAIL:
        n += 1
    return n


def percentile(values, pct):
    """Nearest-rank pct-th percentile; refuses when the tail is under MIN_TAIL."""
    n = len(values)
    if tail_size(n, pct) < MIN_TAIL:
        raise ValueError(
            f"p{pct} of {n} samples leaves {tail_size(n, pct)} beyond it; need {MIN_TAIL}"
        )
    return sorted(values)[nearest_rank(n, pct) - 1]


def relative_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
