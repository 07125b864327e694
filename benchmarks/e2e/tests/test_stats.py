"""Block and percentile statistics on synthetic samples."""

import random
import statistics

import numpy as np
import pytest

from e2e import stats


def test_percentile_matches_numpy():
    rng = random.Random(7)
    for n in (1, 2, 9, 100, 1001):
        samples = [rng.expovariate(1.0) for _ in range(n)]
        for q in (0.0, 50.0, 90.0, 99.0, 100.0):
            assert stats.percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101.0)


@pytest.mark.parametrize("n, top", [
    (50, None),      # 5 beyond p90
    (99, None),      # 9 beyond p90: one short
    (100, 90.0),     # exactly 10 beyond p90
    (199, 90.0),     # 9 beyond p95
    (200, 95.0),
    (999, 95.0),     # 9 beyond p99
    (1000, 99.0),
    (10_000, 99.9),
])
def test_ten_samples_beyond_rule(n, top):
    assert stats.highest_supported_percentile(n) == top
    if top is not None:
        assert stats.samples_beyond(n, top) >= stats.MIN_SAMPLES_BEYOND


def test_block_throughput_is_the_median_block():
    # One block sunk by a burst of host contention must not set the
    # run's number, and neither must one lucky block.
    blocks = [(100, 1.0)] * 6 + [(10, 1.0), (400, 1.0)]
    assert stats.block_throughput(blocks) == 100.0
    assert stats.block_throughput([(30, 1.5), (10, 1.0)]) == 15.0
    with pytest.raises(ValueError):
        stats.block_throughput([])


def test_relative_iqr_is_the_acceptance_spread():
    values = [10.0, 10.2, 9.8, 10.1, 9.9, 10.4, 9.7, 10.0, 10.3, 9.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_iqr(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_worsening_respects_direction():
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        stats.worsening(1.0, 1.0, "sideways")
