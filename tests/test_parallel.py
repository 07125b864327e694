"""Partitioning, NUMA assignment, segmented scan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.formats import COOMatrix, coo_to_csr
from repro.machines import PlacementPolicy, get_machine
from repro.parallel import (
    assign_numa,
    partition_rows_balanced,
    partition_rows_equal,
    segmented_scan_spmv,
)
from tests.conftest import random_coo


class TestRowPartition:
    def test_covers_all_rows(self, small_coo):
        n = min(4, max(1, small_coo.nrows))
        p = partition_rows_balanced(small_coo, n)
        assert p.bounds[0] == 0
        assert p.bounds[-1] == small_coo.nrows
        assert (np.diff(p.bounds) >= 0).all()

    def test_nnz_conserved(self, small_coo):
        n = min(4, max(1, small_coo.nrows))
        p = partition_rows_balanced(small_coo, n)
        assert p.nnz_per_part.sum() == small_coo.nnz_logical

    def test_balanced_beats_equal_on_skewed(self):
        # Put 90% of nonzeros in the first 10% of rows.
        rng = np.random.default_rng(0)
        heavy = rng.integers(0, 100, size=9000)
        light = rng.integers(100, 1000, size=1000)
        rows = np.concatenate([heavy, light])
        cols = rng.integers(0, 1000, size=10_000)
        coo = COOMatrix((1000, 1000), rows, cols,
                        rng.standard_normal(10_000))
        bal = partition_rows_balanced(coo, 4)
        eq = partition_rows_equal(coo, 4)
        assert bal.imbalance < eq.imbalance
        assert bal.imbalance < 1.3
        assert eq.imbalance > 2.0

    def test_equal_rows_sizes(self):
        coo = random_coo(103, 50, 0.1, seed=1)
        p = partition_rows_equal(coo, 4)
        sizes = np.diff(p.bounds)
        assert sizes.max() - sizes.min() <= 1

    def test_part_of_row(self):
        coo = random_coo(100, 50, 0.1, seed=2)
        p = partition_rows_balanced(coo, 3)
        parts = p.part_of_row(np.arange(100))
        assert parts.min() == 0 and parts.max() == 2
        assert (np.diff(parts) >= 0).all()

    def test_too_many_parts(self):
        coo = random_coo(3, 3, 0.5, seed=3)
        with pytest.raises(PartitionError):
            partition_rows_balanced(coo, 10)
        with pytest.raises(PartitionError):
            partition_rows_equal(coo, 0)

    def test_empty_matrix(self):
        coo = COOMatrix((0, 5), np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=np.int64), np.zeros(0))
        p = partition_rows_balanced(coo, 1)
        assert p.n_parts == 1
        assert p.ranges() == [(0, 0)]
        assert p.nnz_per_part.sum() == 0
        assert p.imbalance == 1.0

    def test_zero_nnz_matrix(self):
        coo = COOMatrix((12, 12), np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=np.int64), np.zeros(0))
        p = partition_rows_balanced(coo, 3)
        assert p.bounds[0] == 0 and p.bounds[-1] == 12
        assert (np.diff(p.bounds) >= 0).all()
        assert p.imbalance == 1.0

    def test_single_dense_row_bounds_balance(self):
        # One row holds every nonzero; a row is never split, so one
        # part gets all the load and imbalance == n_parts exactly.
        n = 4
        coo = COOMatrix((8, 100), [3] * 100, list(range(100)),
                        np.ones(100))
        p = partition_rows_balanced(coo, n)
        assert p.nnz_per_part.max() == 100
        assert p.imbalance == pytest.approx(float(n))

    def test_empty_leading_rows_monotonic_bounds(self):
        # All nonzeros at the bottom: naive cumulative cuts would
        # repeat 0; the monotonicity guard must keep bounds sorted and
        # covering [0, m].
        coo = COOMatrix((10, 10), [8, 8, 9, 9], [0, 1, 0, 1],
                        np.ones(4))
        p = partition_rows_balanced(coo, 4)
        assert (np.diff(p.bounds) >= 0).all()
        assert p.bounds[0] == 0 and p.bounds[-1] == 10
        assert p.nnz_per_part.sum() == 4

    def test_part_of_row_boundary_rows(self):
        coo = random_coo(100, 50, 0.1, seed=9)
        p = partition_rows_balanced(coo, 4)
        for i, (lo, hi) in enumerate(p.ranges()):
            if hi > lo:
                # First and last row of every range belong to part i.
                assert p.part_of_row(np.array([lo]))[0] == i
                assert p.part_of_row(np.array([hi - 1]))[0] == i

class TestNuma:
    def test_spread_uses_both_sockets(self):
        m = get_machine("AMD X2")
        a = assign_numa(m, 2, fill_order="spread")
        assert set(a.socket_of_thread) == {0, 1}

    def test_pack_fills_first_socket(self):
        m = get_machine("AMD X2")
        a = assign_numa(m, 2, fill_order="pack")
        assert set(a.socket_of_thread) == {0}

    def test_numa_aware_data_follows_thread(self):
        m = get_machine("Cell Blade")
        a = assign_numa(m, 16, policy=PlacementPolicy.NUMA_AWARE)
        np.testing.assert_array_equal(a.node_of_thread, a.socket_of_thread)

    def test_interleave_marks_all_nodes(self):
        m = get_machine("Cell Blade")
        a = assign_numa(m, 16, policy=PlacementPolicy.INTERLEAVE)
        assert (a.node_of_thread == -1).all()

    def test_single_node(self):
        m = get_machine("AMD X2")
        a = assign_numa(m, 4, policy=PlacementPolicy.SINGLE_NODE)
        assert (a.node_of_thread == 0).all()

    def test_niagara_cmt_slots(self):
        m = get_machine("Niagara")
        a = assign_numa(m, 32)
        assert a.slot_of_thread.max() == 3
        assert np.bincount(a.core_of_thread).tolist() == [4] * 8

    def test_too_many_threads(self):
        with pytest.raises(PartitionError):
            assign_numa(get_machine("AMD X2"), 5)

    def test_bad_fill_order(self):
        with pytest.raises(PartitionError):
            assign_numa(get_machine("AMD X2"), 2, fill_order="diagonal")


class TestSegmentedScan:
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 7, 16])
    def test_matches_reference(self, small_coo, rng, n_parts):
        csr = coo_to_csr(small_coo)
        x = rng.standard_normal(csr.ncols)
        expected = small_coo.toarray() @ x
        got = segmented_scan_spmv(csr, x, n_parts=n_parts)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_cut_inside_row(self, rng):
        # One dense row of 100 nonzeros, cut into 7 chunks: every cut
        # lands inside the row.
        coo = COOMatrix((3, 100), [1] * 100, list(range(100)),
                        rng.standard_normal(100))
        csr = coo_to_csr(coo)
        x = rng.standard_normal(100)
        got = segmented_scan_spmv(csr, x, n_parts=7)
        np.testing.assert_allclose(got, coo.toarray() @ x, rtol=1e-12)

    def test_accumulates_into_y(self, rng):
        coo = random_coo(20, 20, 0.2, seed=5)
        csr = coo_to_csr(coo)
        x = rng.standard_normal(20)
        y0 = rng.standard_normal(20)
        got = segmented_scan_spmv(csr, x, y0.copy(), n_parts=3)
        np.testing.assert_allclose(got, y0 + coo.toarray() @ x, rtol=1e-12)

    def test_bad_parts(self, small_coo):
        csr = coo_to_csr(small_coo)
        with pytest.raises(PartitionError):
            segmented_scan_spmv(csr, np.ones(csr.ncols), n_parts=0)
