"""Matrix structure statistics tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import COOMatrix
from repro.matrices.stats import (
    bandwidth_stats,
    block_fill_ratio,
    compute_stats,
    nnz_per_row_per_cache_block,
    row_length_stats,
    symmetry_fraction,
)
from tests.conftest import random_coo


class TestComputeStats:
    def test_basic_counts(self):
        coo = COOMatrix((4, 4), [0, 0, 2], [1, 3, 2], [1.0, 2.0, 3.0])
        s = compute_stats(coo)
        assert s.nnz == 3
        assert s.nnz_per_row_mean == pytest.approx(0.75)
        assert s.nnz_per_row_max == 2
        assert s.empty_rows == 2
        assert s.density == pytest.approx(3 / 16)

    def test_diagonal_concentration(self):
        diag = COOMatrix((100, 100), np.arange(100), np.arange(100),
                         np.ones(100))
        s = compute_stats(diag)
        assert s.diag_spread == pytest.approx(0.0)
        assert s.diag_concentration == 1.0

    def test_scatter_spread(self):
        coo = random_coo(200, 200, 0.05, seed=1)
        s = compute_stats(coo)
        assert 0.1 < s.diag_spread < 0.5

    def test_block_fill_bounds(self):
        coo = random_coo(64, 64, 0.05, seed=2)
        s = compute_stats(coo)
        for (r, c), fill in s.block_fill.items():
            assert 1.0 <= fill <= r * c

    def test_empty_matrix(self):
        s = compute_stats(COOMatrix.empty((5, 5)))
        assert s.nnz == 0
        assert s.block_fill[(2, 2)] == 1.0
        assert s.best_block() in s.block_fill

    def test_aspect_ratio(self):
        coo = COOMatrix((10, 1000), [0], [5], [1.0])
        assert compute_stats(coo).aspect_ratio == 100.0


class TestCacheBlockDensity:
    def test_dense_rows_stay_dense(self):
        # A banded matrix keeps its per-block inner-loop length.
        n = 1000
        rows = np.repeat(np.arange(n), 5)
        cols = (rows + np.tile(np.arange(5), n)) % n
        coo = COOMatrix((n, n), rows, cols, np.ones(5 * n))
        assert nnz_per_row_per_cache_block(coo, n) == pytest.approx(5.0)

    def test_scatter_degrades(self):
        coo = random_coo(500, 100_000, 0.0002, seed=3)
        wide = nnz_per_row_per_cache_block(coo, 100_000)
        narrow = nnz_per_row_per_cache_block(coo, 1000)
        assert narrow < wide

    def test_empty(self):
        assert nnz_per_row_per_cache_block(COOMatrix.empty((5, 5)), 2) \
            == 0.0


class TestRowLengthStats:
    """Consolidated helpers must survive empty / zero-row / single-row
    matrices without NaN or divide-by-zero."""

    def test_uniform_rows(self):
        coo = COOMatrix((4, 4), [0, 1, 2, 3], [1, 2, 3, 0], np.ones(4))
        s = row_length_stats(coo)
        assert s.mean == 1.0 and s.std == 0.0 and s.cv == 0.0
        assert s.min == 1 and s.max == 1
        assert s.empty_frac == 0.0

    def test_empty_matrix_all_zero(self):
        s = row_length_stats(COOMatrix.empty((0, 0)))
        assert s.mean == 0.0 and s.cv == 0.0 and s.max_rel == 0.0
        assert s.empty_frac == 0.0

    def test_shaped_but_all_rows_empty(self):
        s = row_length_stats(COOMatrix.empty((7, 7)))
        assert s.mean == 0.0
        assert s.empty_frac == 1.0

    def test_single_row(self):
        coo = COOMatrix((1, 8), [0, 0, 0], [0, 3, 6], np.ones(3))
        s = row_length_stats(coo)
        assert s.mean == 3.0 and s.min == 3 and s.max == 3
        assert s.cv == 0.0 and s.empty_frac == 0.0

    def test_skewed_rows(self):
        coo = COOMatrix((3, 10), [0] * 9 + [1], list(range(9)) + [0],
                        np.ones(10))
        s = row_length_stats(coo)
        assert s.max == 9 and s.min == 0
        assert s.empty_frac == pytest.approx(1 / 3)
        assert s.max_rel == pytest.approx(9 / s.mean)
        assert s.cv > 1.0


class TestBandwidthStats:
    def test_pure_diagonal(self):
        n = 50
        coo = COOMatrix((n, n), np.arange(n), np.arange(n), np.ones(n))
        s = bandwidth_stats(coo)
        assert s.mean == 0.0 and s.max == 0.0
        assert s.diag_frac == 1.0

    def test_empty_matrix(self):
        s = bandwidth_stats(COOMatrix.empty((6, 6)))
        assert s.mean == 0.0 and s.p95 == 0.0 and s.max == 0.0
        assert s.diag_frac == 0.0

    def test_single_entry_far_off_diagonal(self):
        coo = COOMatrix((100, 100), [0], [99], [1.0])
        s = bandwidth_stats(coo)
        assert s.max == pytest.approx(0.99)
        assert s.diag_frac == 0.0

    def test_rectangular_uses_scaled_diagonal(self):
        # entry (5, 50) in a 10x100 matrix sits ON the scaled diagonal
        coo = COOMatrix((10, 100), [5], [50], [1.0])
        s = bandwidth_stats(coo)
        assert s.mean == pytest.approx(0.0)
        assert s.diag_frac == 1.0


class TestSymmetryFraction:
    def test_symmetric_pattern(self):
        coo = COOMatrix((4, 4), [0, 1, 1, 2], [1, 0, 2, 1], np.ones(4))
        assert symmetry_fraction(coo) == 1.0

    def test_fully_asymmetric(self):
        coo = COOMatrix((4, 4), [0, 0, 0], [1, 2, 3], np.ones(3))
        # diagonal-free upper-triangle entries with no mirrors
        assert symmetry_fraction(coo) == 0.0

    def test_rectangular_is_zero(self):
        assert symmetry_fraction(
            COOMatrix((2, 5), [0], [4], [1.0])) == 0.0

    def test_empty_square_is_one(self):
        assert symmetry_fraction(COOMatrix.empty((3, 3))) == 1.0


class TestBlockFillRatio:
    def test_perfect_block(self):
        coo = COOMatrix((4, 4), [0, 0, 1, 1], [0, 1, 0, 1], np.ones(4))
        assert block_fill_ratio(coo, 2, 2) == pytest.approx(1.0)

    def test_scattered_pays_full_tile_overhead(self):
        # each nonzero lands in its own 2x2 tile: worst case r*c
        coo = COOMatrix((8, 8), [0, 2, 4, 6], [1, 3, 5, 7], np.ones(4))
        assert block_fill_ratio(coo, 2, 2) == pytest.approx(4.0)

    def test_empty_matrix_is_one(self):
        assert block_fill_ratio(COOMatrix.empty((4, 4)), 2, 2) == 1.0

    def test_invalid_block_shape_rejected(self):
        coo = COOMatrix((4, 4), [0], [0], [1.0])
        with pytest.raises(ValueError):
            block_fill_ratio(coo, 0, 2)
        with pytest.raises(ValueError):
            block_fill_ratio(coo, 2, -1)
