"""Matrix registry: fingerprints, LRU eviction, idempotent register."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeError
from repro.machines import get_machine
from repro.observe.metrics import get_registry
from repro.serve import MatrixRegistry, PlanCache
from tests.conftest import random_coo, register_racing


@pytest.fixture
def machine():
    return get_machine("AMD X2")


class TestFingerprint:
    def test_stable_across_instances(self):
        a = random_coo(50, 50, 0.1, seed=1)
        b = random_coo(50, 50, 0.1, seed=1)
        assert a.content_fingerprint() == b.content_fingerprint()

    def test_sensitive_to_values(self):
        a = random_coo(50, 50, 0.1, seed=1)
        val = a.val.copy()
        val[0] += 1.0
        from repro.formats import COOMatrix

        b = COOMatrix(a.shape, a.row, a.col, val)
        assert a.content_fingerprint() != b.content_fingerprint()

    def test_sensitive_to_shape(self):
        from repro.formats import COOMatrix

        a = COOMatrix((3, 3), [0], [0], [1.0])
        b = COOMatrix((3, 4), [0], [0], [1.0])
        assert a.content_fingerprint() != b.content_fingerprint()


class TestRegister:
    def test_register_and_get(self, machine, rng):
        r = MatrixRegistry(machine, n_threads=2)
        coo = random_coo(120, 120, 0.05, seed=2)
        entry = r.register(coo)
        assert entry.fingerprint in r
        assert r.get(entry.fingerprint) is entry
        x = rng.standard_normal(coo.ncols)
        np.testing.assert_allclose(
            entry.matrix.spmv(x), coo.toarray() @ x, rtol=1e-10
        )

    def test_register_is_idempotent(self, machine):
        r = MatrixRegistry(machine, n_threads=1)
        coo = random_coo(80, 80, 0.05, seed=3)
        reg = get_registry()
        before = reg.counter("serve.registry_rehits")
        e1 = r.register(coo)
        e2 = r.register(coo)
        assert e1 is e2
        assert len(r) == 1
        assert reg.counter("serve.registry_rehits") == before + 1

    def test_concurrent_register_admits_once(self, machine):
        """Regression: racing registrations of one matrix each passed
        the existence check and each admitted, so the byte total (and
        the ``serve.registry_bytes`` gauge) counted the footprint once
        per caller and LRU eviction fired early."""
        r = MatrixRegistry(machine, n_threads=1)
        got = register_racing(r, random_coo(120, 120, 0.05, seed=20))
        assert len(r) == 1
        assert all(e is got[0] for e in got)
        assert r.total_bytes == got[0].footprint_bytes

    def test_concurrent_register_with_plan_cache(self, machine, tmp_path):
        """Regression: every racer stores the plan it tuned, and the
        envelope used to be staged at one fixed ``<fp>.json.tmp`` — the
        second ``os.replace`` found the file gone and ``register()``
        raised ``FileNotFoundError``."""
        r = MatrixRegistry(machine, n_threads=1,
                           plan_cache=PlanCache(tmp_path))
        coo = random_coo(120, 120, 0.05, seed=21)
        got = register_racing(r, coo, n=8)
        assert all(e is got[0] for e in got)   # None if a racer raised
        assert [p.name for p in tmp_path.glob("*/*")] \
            == [f"{got[0].fingerprint}.json"]  # no staging file left
        warm = MatrixRegistry(machine, n_threads=1,
                              plan_cache=PlanCache(tmp_path))
        assert warm.register(coo).from_plan_cache

    def test_unknown_fingerprint(self, machine):
        r = MatrixRegistry(machine)
        with pytest.raises(ServeError, match="unknown matrix"):
            r.get("deadbeef00000000")

    def test_tiny_matrix_clamps_threads(self, machine):
        from repro.formats import COOMatrix

        r = MatrixRegistry(machine, n_threads=machine.n_threads)
        coo = COOMatrix((2, 2), [0, 1], [0, 1], [1.0, 2.0])
        entry = r.register(coo)
        assert entry.plan.n_threads <= 2

    def test_get_tracks_hits(self, machine):
        r = MatrixRegistry(machine, n_threads=1)
        entry = r.register(random_coo(40, 40, 0.1, seed=4))
        assert entry.hits == 0
        r.get(entry.fingerprint)
        r.get(entry.fingerprint)
        assert entry.hits == 2


class TestLRUEviction:
    def test_capacity_evicts_lru(self, machine):
        r0 = MatrixRegistry(machine, n_threads=1)
        mats = [random_coo(150, 150, 0.05, seed=s) for s in (10, 11, 12)]
        sizes = [r0.register(m).footprint_bytes for m in mats]

        # Room for roughly two of the three matrices.
        cap = sizes[1] + sizes[2] + sizes[0] // 2
        r = MatrixRegistry(machine, n_threads=1, capacity_bytes=cap)
        reg = get_registry()
        before = reg.counter("serve.registry_evictions")
        fps = [r.register(m).fingerprint for m in mats]
        assert reg.counter("serve.registry_evictions") > before
        assert fps[0] not in r          # oldest evicted
        assert fps[2] in r              # newest survives
        assert r.total_bytes <= cap

    def test_get_refreshes_lru_position(self, machine):
        mats = [random_coo(150, 150, 0.05, seed=s) for s in (20, 21, 22)]
        r0 = MatrixRegistry(machine, n_threads=1)
        sizes = [r0.register(m).footprint_bytes for m in mats]
        cap = sizes[0] + sizes[1] + sizes[2] // 2
        r = MatrixRegistry(machine, n_threads=1, capacity_bytes=cap)
        fp0 = r.register(mats[0]).fingerprint
        fp1 = r.register(mats[1]).fingerprint
        r.get(fp0)                      # touch: now fp1 is the LRU
        fp2 = r.register(mats[2]).fingerprint
        assert fp1 not in r
        assert fp0 in r and fp2 in r

    def test_describe(self, machine):
        r = MatrixRegistry(machine, n_threads=1, capacity_bytes=10**9)
        r.register(random_coo(60, 60, 0.1, seed=30))
        d = r.describe()
        assert d["machine"] == "AMD X2"
        assert d["matrices"] == 1
        assert d["total_bytes"] == d["entries"][0]["footprint_bytes"]
