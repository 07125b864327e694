"""Serve tier over the sharded execution tier: threshold routing,
scheduler dispatch to shards, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.observe.metrics import get_registry
from repro.serve import ServeClient
from repro.serve.executor import InProcessExecutor, ShardsExecutor
from tests.conftest import random_coo, register_racing


@pytest.fixture
def client():
    c = ServeClient(
        "AMD X2", n_threads=1, n_workers=2,
        shards=2, shard_threshold_bytes=0,
        flush_deadline_s=0.001,
    )
    yield c
    c.close()


class TestThresholdRouting:
    def test_zero_threshold_shards_everything(self, client):
        coo = random_coo(100, 100, 0.05, seed=40)
        entry = client.register(coo)
        assert isinstance(entry.executor, ShardsExecutor)
        assert entry.executor.group is client.shard_group
        assert entry.describe()["sharded"]
        assert get_registry().counter("serve.matrices_sharded") >= 1

    def test_concurrent_register_keeps_shard_record(self, client):
        """The loser of a registration race must not close the shard
        record it shares (by fingerprint) with the admitted entry."""
        coo = random_coo(100, 100, 0.05, seed=39)
        before = get_registry().counter("serve.matrices_sharded")
        got = register_racing(client.registry, coo)
        assert get_registry().counter("serve.matrices_sharded") \
            == before + 1          # the admitted entry, not the losers
        assert len(client.registry) == 1
        assert all(e is got[0] for e in got)
        assert client.registry.total_bytes == got[0].footprint_bytes
        assert client.shard_group.describe()["matrices"] == 1
        x = np.ones(100)
        np.testing.assert_allclose(
            client.spmv(got[0].fingerprint, x), coo.toarray() @ x,
            rtol=1e-10,
        )

    def test_high_threshold_keeps_matrix_local(self):
        with ServeClient("AMD X2", n_threads=1, n_workers=2,
                         shards=2,
                         shard_threshold_bytes=1 << 40) as c:
            coo = random_coo(60, 60, 0.1, seed=41)
            entry = c.register(coo)
            assert isinstance(entry.executor, InProcessExecutor)
            assert not entry.describe()["sharded"]
            x = np.ones(60)
            np.testing.assert_allclose(
                c.spmv(entry.fingerprint, x), coo.toarray() @ x,
                rtol=1e-10,
            )

    def test_no_shards_by_default(self):
        with ServeClient("AMD X2", n_threads=1, n_workers=2) as c:
            assert c.shard_group is None
            assert c.describe()["shards"] is None


class TestShardedExecution:
    def test_spmv_matches_direct(self, client):
        coo = random_coo(150, 120, 0.05, seed=42)
        entry = client.register(coo)
        from repro.formats import coo_to_csr
        csr = coo_to_csr(coo)
        rng = np.random.default_rng(43)
        for _ in range(3):
            x = rng.standard_normal(120)
            # Row-path shards are bit-identical to serial CSR SpMV.
            assert np.array_equal(
                client.spmv(entry.fingerprint, x), csr.spmv(x)
            )
        assert get_registry().counter("serve.sharded_batches") >= 3

    def test_coalesced_batch_routes_through_shards(self, client):
        coo = random_coo(120, 100, 0.06, seed=44)
        entry = client.register(coo)
        reg = get_registry()
        before = reg.counter("dist.spmm_calls")
        rng = np.random.default_rng(45)
        xs = [rng.standard_normal(100) for _ in range(8)]
        futures = [client.submit(entry.fingerprint, x) for x in xs]
        ys = [f.result() for f in futures]
        from repro.formats import coo_to_csr
        csr = coo_to_csr(coo)
        for x, y in zip(xs, ys):
            assert np.array_equal(y, csr.spmv(x))
        # max_batch=8 coalesces the burst into at least one SpMM
        # executed on the shard group.
        assert reg.counter("dist.spmm_calls") >= before + 1

    def test_describe_reports_shards(self, client):
        d = client.describe()
        assert d["shards"] is not None
        assert d["shards"]["n_shards"] == 2

    def test_close_shuts_group_down(self):
        c = ServeClient("AMD X2", n_threads=1, n_workers=2,
                        shards=2, shard_threshold_bytes=0)
        coo = random_coo(50, 50, 0.1, seed=46)
        c.register(coo)
        group = c.shard_group
        c.close()
        assert group._closed
        assert group.describe()["matrices"] == 0


class TestEviction:
    def test_lru_eviction_unregisters_from_group(self):
        with ServeClient("AMD X2", n_threads=1, n_workers=2,
                         shards=2, shard_threshold_bytes=0,
                         capacity_bytes=1) as c:
            # capacity 1 byte: each new matrix evicts the previous one.
            a = random_coo(80, 80, 0.05, seed=47)
            b = random_coo(90, 90, 0.05, seed=48)
            ea = c.register(a)
            assert c.shard_group.describe()["matrices"] == 1
            c.register(b)
            assert ea.fingerprint not in c.registry
            assert c.shard_group.describe()["matrices"] == 1
