"""Order statistics for the benchmark report."""
from __future__ import annotations

import math

#: Percentiles the tail rule may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        # rounded so that 100 samples do leave 10 beyond p90
        if round(n * (100.0 - p), 6) >= 100 * MIN_BEYOND:
            best = p
    return best


def describe(values) -> str:
    """Median, the tail percentile and the sample count, for a report line."""
    p = tail_percentile(len(values))
    text = f"p50={percentile(values, 50):.6f}"
    if p is not None and p > 50.0:
        text += f" p{p:g}={percentile(values, p):.6f}"
    return text + f" n={len(values)}"
