"""ShardGroup correctness: bit-identical row slabs, zero-copy
dispatch, lifecycle, solver protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistError, RetryPolicy, ShardGroup
from repro.errors import ShardDeadError
from repro.formats import COOMatrix, coo_to_csr
from repro.observe.metrics import get_registry
from repro.solvers import conjugate_gradient
from tests.conftest import random_coo


@pytest.fixture
def group():
    g = ShardGroup(3, heartbeat_interval_s=0.1, compute_timeout_s=10.0)
    yield g
    g.close()


def _spd_coo(n: int, seed: int = 0) -> COOMatrix:
    """Diagonally dominant symmetric matrix (CG-friendly)."""
    a = random_coo(n, n, 0.05, seed=seed)
    at = a.transpose()
    diag = np.arange(n)
    row = np.concatenate([a.row, at.row, diag])
    col = np.concatenate([a.col, at.col, diag])
    val = np.concatenate([a.val / 2, at.val / 2,
                          np.full(n, float(n))])
    return COOMatrix((n, n), row, col, val)


class TestRowPath:
    def test_spmv_bit_identical_to_serial(self, group):
        coo = random_coo(200, 150, 0.05, seed=3)
        csr = coo_to_csr(coo)
        fp = group.register(coo)
        rng = np.random.default_rng(5)
        # Repeated calls: the slabs are resident, each dispatch must
        # still agree bitwise with one serial sweep.
        for _ in range(4):
            x = rng.standard_normal(150)
            assert np.array_equal(group.spmv(fp, x), csr.spmv(x))

    def test_spmm_bit_identical(self, group):
        coo = random_coo(120, 90, 0.08, seed=4)
        csr = coo_to_csr(coo)
        fp = group.register(coo)
        x_block = np.random.default_rng(6).standard_normal((90, 5))
        y_block = group.spmm(fp, x_block)
        for j in range(5):
            assert np.array_equal(y_block[:, j], csr.spmv(x_block[:, j]))

    def test_spmm_wider_than_k_cap_chunks(self):
        with ShardGroup(2, k_cap=3) as g:
            coo = random_coo(80, 60, 0.1, seed=7)
            csr = coo_to_csr(coo)
            fp = g.register(coo)
            x_block = np.random.default_rng(8).standard_normal((60, 10))
            y_block = g.spmm(fp, x_block)
            for j in range(10):
                assert np.array_equal(y_block[:, j],
                                      csr.spmv(x_block[:, j]))

    def test_no_slab_copies_after_registration(self, group):
        reg = get_registry()
        coo = random_coo(150, 150, 0.05, seed=9)
        fp = group.register(coo)
        copies_after_register = reg.counter("dist.slab_copies")
        ships_after_register = reg.counter("dist.slab_ship_bytes")
        x = np.ones(150)
        for _ in range(6):
            group.spmv(fp, x)
        group.spmm(fp, np.ones((150, 4)))
        # The request path moves only x/y vectors; slabs never recopy.
        assert reg.counter("dist.slab_copies") == copies_after_register
        assert reg.counter("dist.slab_ship_bytes") == \
            ships_after_register

    def test_register_idempotent(self, group):
        coo = random_coo(60, 60, 0.1, seed=10)
        fp1 = group.register(coo)
        fp2 = group.register(coo)
        assert fp1 == fp2
        assert group.describe()["matrices"] == 1


class TestSerialFallback:
    def test_single_shard_runs_serial(self):
        with ShardGroup(1) as g:
            assert g.serial
            coo = random_coo(50, 40, 0.1, seed=17)
            fp = g.register(coo)
            x = np.ones(40)
            assert np.array_equal(g.spmv(fp, x),
                                  coo_to_csr(coo).spmv(x))
            assert g.describe()["serial"]

    @pytest.mark.parametrize("shape,nnz", [((0, 5), 0), ((5, 0), 0),
                                           ((6, 6), 0)])
    def test_degenerate_matrices(self, group, shape, nnz):
        coo = COOMatrix(shape, np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=np.int64), np.zeros(0))
        fp = group.register(coo)
        y = group.spmv(fp, np.ones(shape[1]))
        assert y.shape == (shape[0],)
        assert np.array_equal(y, np.zeros(shape[0]))
        got = group.spmm(fp, np.ones((shape[1], 3)))
        assert got.shape == (shape[0], 3)


class TestLifecycle:
    def test_unregister_frees_segments(self, group):
        coo = random_coo(100, 100, 0.05, seed=18)
        fp = group.register(coo)
        assert group.describe()["shm_bytes"] > 0
        group.unregister(fp)
        assert group.describe()["matrices"] == 0
        assert group.describe()["shm_bytes"] == 0
        with pytest.raises(DistError, match="unknown matrix"):
            group.spmv(fp, np.ones(100))
        group.unregister(fp)   # second call is a no-op

    def test_closed_group_rejects_work(self):
        g = ShardGroup(2)
        coo = random_coo(30, 30, 0.1, seed=19)
        fp = g.register(coo)
        g.close()
        with pytest.raises(DistError, match="closed"):
            g.spmv(fp, np.ones(30))
        with pytest.raises(DistError, match="closed"):
            g.register(random_coo(10, 10, 0.2, seed=20))
        g.close()   # idempotent

    def test_constructor_validation(self):
        with pytest.raises(DistError):
            ShardGroup(0)
        with pytest.raises(DistError):
            ShardGroup(2, k_cap=0)

    def test_shape_validation(self, group):
        coo = random_coo(40, 30, 0.1, seed=21)
        fp = group.register(coo)
        with pytest.raises(DistError, match="shape"):
            group.spmv(fp, np.ones(31))
        with pytest.raises(DistError, match="shape"):
            group.spmm(fp, np.ones((29, 2)))
        with pytest.raises(DistError, match="unknown"):
            group.spmv("nope", np.ones(30))

    def test_describe(self, group):
        d = group.describe()
        assert d["n_shards"] == 3
        assert d["alive"] == 3
        assert not d["serial"]
        assert len(group.shard_pids()) == 3


class TestSolverProtocol:
    def test_cg_through_shard_operator(self, group):
        coo = _spd_coo(120, seed=22)
        fp = group.register(coo)
        op = group.operator(fp)
        assert op.shape == (120, 120)
        rng = np.random.default_rng(23)
        x_true = rng.standard_normal(120)
        b = coo_to_csr(coo).spmv(x_true)
        result = conjugate_gradient(op, b, tol=1e-12)
        assert result.converged
        # The row path is bit-identical to serial SpMV, so the sharded
        # CG trajectory matches the serial solve exactly.
        serial = conjugate_gradient(coo_to_csr(coo), b, tol=1e-12)
        np.testing.assert_array_equal(result.x, serial.x)
        assert result.iterations == serial.iterations

    def test_operator_accumulates_into_y(self, group):
        coo = random_coo(50, 50, 0.1, seed=24)
        fp = group.register(coo)
        op = group.operator(fp)
        x = np.ones(50)
        y = np.ones(50)
        out = op.spmv(x, y)
        assert out is y
        np.testing.assert_array_equal(
            y, coo_to_csr(coo).spmv(x) + 1.0
        )


class TestRetryPolicy:
    def test_backoff_doubles(self):
        p = RetryPolicy(max_retries=4, backoff_s=0.1)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.4)

    def test_shard_dead_error_is_dist_error(self):
        assert issubclass(ShardDeadError, DistError)
