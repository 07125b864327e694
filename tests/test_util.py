"""Tests for the shared low-level utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import (
    ceil_div,
    check_shape,
    dedupe_coo,
    segment_sums,
    unique_count,
)
from repro.errors import MatrixFormatError


class TestCeilDiv:
    @pytest.mark.parametrize("a,b,out", [(0, 3, 0), (1, 3, 1), (3, 3, 1),
                                         (4, 3, 2), (9, 3, 3), (10, 3, 4)])
    def test_values(self, a, b, out):
        assert ceil_div(a, b) == out

    @settings(max_examples=50, deadline=None)
    @given(a=st.integers(0, 10**9), b=st.integers(1, 10**6))
    def test_property(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a or a == 0
        assert q * b >= a


class TestCheckShape:
    def test_valid(self):
        assert check_shape((3, 4)) == (3, 4)

    def test_negative(self):
        with pytest.raises(MatrixFormatError):
            check_shape((-1, 4))

    def test_not_a_pair(self):
        with pytest.raises(MatrixFormatError):
            check_shape((1, 2, 3))


class TestSegmentSums:
    def test_basic(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        out = segment_sums(v, np.array([0, 2]), 4)
        np.testing.assert_allclose(out, [3.0, 7.0])

    def test_empty_segments(self):
        v = np.array([1.0, 2.0])
        # Segments: [0,0), [0,2), [2,2) → 0, 3, 0.
        out = segment_sums(v, np.array([0, 0, 2]), 2)
        np.testing.assert_allclose(out, [0.0, 3.0, 0.0])

    def test_all_empty(self):
        out = segment_sums(np.zeros(0), np.array([0, 0, 0]), 0)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0])

    def test_2d(self):
        v = np.arange(8, dtype=np.float64).reshape(4, 2)
        out = segment_sums(v, np.array([0, 1, 3]), 4)
        np.testing.assert_allclose(out, [[0, 1], [6, 8], [6, 7]])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(0, 50),
           nseg=st.integers(1, 10))
    def test_matches_loop(self, seed, n, nseg):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        starts = np.sort(rng.integers(0, n + 1, nseg))
        starts[0] = min(starts[0], n)
        out = segment_sums(v, starts, n)
        ends = np.append(starts[1:], n)
        for i, (s, e) in enumerate(zip(starts, ends)):
            np.testing.assert_allclose(out[i], v[s:e].sum(), atol=1e-12)


class TestDedupe:
    def test_sums_duplicates(self):
        r = np.array([1, 0, 1])
        c = np.array([1, 0, 1])
        v = np.array([2.0, 1.0, 3.0])
        rr, cc, vv = dedupe_coo(r, c, v)
        assert list(rr) == [0, 1]
        assert list(vv) == [1.0, 5.0]

    def test_sorts_row_major(self):
        r = np.array([1, 0])
        c = np.array([0, 5])
        v = np.array([1.0, 2.0])
        rr, cc, vv = dedupe_coo(r, c, v)
        assert list(rr) == [0, 1]
        assert list(cc) == [5, 0]

    def test_empty(self):
        z = np.zeros(0, dtype=np.int64)
        rr, cc, vv = dedupe_coo(z, z, np.zeros(0))
        assert len(rr) == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 100))
    def test_dense_equivalence(self, seed, n):
        rng = np.random.default_rng(seed)
        r = rng.integers(0, 10, n)
        c = rng.integers(0, 10, n)
        v = rng.standard_normal(n)
        rr, cc, vv = dedupe_coo(r, c, v)
        dense = np.zeros((10, 10))
        np.add.at(dense, (r, c), v)
        dense2 = np.zeros((10, 10))
        dense2[rr, cc] = vv
        np.testing.assert_allclose(dense, dense2, atol=1e-12)
        # Output is sorted and unique.
        key = rr * 10 + cc
        assert (np.diff(key) > 0).all()


class TestMisc:
    def test_unique_count(self):
        assert unique_count(np.array([1, 1, 2, 3])) == 3
        assert unique_count(np.array([])) == 0

    def test_unique_count_single_and_negative(self):
        assert unique_count(np.array([7])) == 1
        assert unique_count(np.array([-3, 5, -3, 0, -1, 5])) == 4
        assert unique_count(np.full(10, -2)) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_unique_count_matches_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        a = rng.integers(-(10 ** int(rng.integers(1, 12))), 10 ** 6, n)
        assert unique_count(a) == len(np.unique(a))
