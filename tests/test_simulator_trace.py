"""Trace generation and analytic-model validation tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.validation import validate_x_traffic, validation_sweep
from repro.errors import SimulationError
from repro.formats import coo_to_csr
from repro.machines.model import CacheLevel
from repro.simulator.cache import CacheSim
from repro.simulator.trace import (
    csr_spmv_trace,
    default_layout,
)
from tests.conftest import random_coo

CACHE = CacheLevel("test-L2", 64 * 1024, 64, 8, 10.0)
SMALL = CacheLevel("test-L1", 2048, 64, 2, 1.0)


class TestTrace:
    def test_lengths(self):
        coo = random_coo(50, 60, 0.1, seed=1)
        csr = coo_to_csr(coo)
        full = csr_spmv_trace(csr)
        assert len(full) == 3 * csr.nnz_stored + 2 * csr.nrows
        xonly = csr_spmv_trace(csr, include_streams=False)
        assert len(xonly) == csr.nnz_stored

    def test_regions_disjoint(self):
        coo = random_coo(40, 40, 0.1, seed=2)
        csr = coo_to_csr(coo)
        lay = default_layout(csr)
        assert lay.values < lay.indices < lay.pointers < lay.x < lay.y

    def test_x_addresses_match_columns(self):
        coo = random_coo(30, 30, 0.1, seed=3)
        csr = coo_to_csr(coo)
        lay = default_layout(csr)
        xonly = csr_spmv_trace(csr, include_streams=False)
        np.testing.assert_array_equal(
            (xonly - lay.x) // 8, csr.indices.astype(np.int64)
        )

    def test_type_checks(self):
        coo = random_coo(10, 10, 0.2, seed=5)
        with pytest.raises(SimulationError):
            csr_spmv_trace(coo)

    def test_matrix_streams_are_compulsory_only(self):
        """Streaming the value array through a big cache misses once
        per line — the assumption the footprint accounting rests on."""
        coo = random_coo(60, 60, 0.15, seed=6)
        csr = coo_to_csr(coo)
        lay = default_layout(csr)
        vals = lay.values + np.arange(csr.nnz_stored) * 8
        sim = CacheSim(CACHE)
        sim.access_many(vals)
        expected = -(-csr.nnz_stored * 8 // CACHE.line_bytes)
        assert abs(sim.stats.misses - expected) <= 1


class TestValidation:
    def test_model_within_band_when_fitting(self):
        # x fits the cache: both sides should be near compulsory.
        coo = random_coo(500, 512, 0.05, seed=7)
        csr = coo_to_csr(coo)
        pt = validate_x_traffic(csr, CACHE)
        assert 0.5 <= pt.ratio <= 2.0

    def test_model_within_band_when_thrashing(self):
        coo = random_coo(200, 20_000, 0.01, seed=8)
        csr = coo_to_csr(coo)
        pt = validate_x_traffic(csr, SMALL)
        assert 0.3 <= pt.ratio <= 3.0

    def test_sweep(self):
        mats = {
            f"m{i}": coo_to_csr(random_coo(100, 400, 0.05, seed=10 + i))
            for i in range(3)
        }
        pts = validation_sweep(mats, SMALL)
        assert len(pts) == 3
        assert all(p.exact_x_bytes > 0 for p in pts)
