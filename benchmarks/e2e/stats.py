"""Statistics the harness reports: block medians, pooled percentiles,
and the run-to-run comparisons the noise rules are built on.

Every function is pure (lists of floats in, floats out) so the
self-tests can drive it with synthetic samples.
"""

from __future__ import annotations

import math
import statistics

#: The guide's rule for tail percentiles: report a percentile only when
#: at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NumPy's default rule),
    without NumPy so the caller can pass plain lists."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return int(math.floor(n * (1.0 - q / 100.0) + 1e-9))


def supported(n: int, q: float) -> bool:
    """Does a sample of ``n`` carry the ``q``-th percentile?"""
    return samples_beyond(n, q) >= MIN_SAMPLES_BEYOND


def highest_supported_percentile(n: int) -> float | None:
    """The highest tail percentile ``n`` samples support, or ``None``
    when even the lowest candidate has fewer than ten samples beyond."""
    best = None
    for q in TAIL_PERCENTILES:
        if supported(n, q):
            best = q
    return best


def block_throughput(blocks: list[tuple[int, float]]) -> float:
    """Median over blocks of (correct results ÷ block wall seconds).

    The median, not the mean: host contention arrives in bursts that
    sink one or two blocks, and those must not set the run's number."""
    if not blocks:
        raise ValueError("no measured blocks")
    return statistics.median(done / wall for done, wall in blocks)


def relative_iqr(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median — the spread
    figure the acceptance check uses (``statistics.quantiles``, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` reading is worse
    (negative when it is better)."""
    if better == "lower":
        return (second - first) / first
    if better == "higher":
        return (first - second) / first
    raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
