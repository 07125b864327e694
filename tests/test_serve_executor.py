"""The execution seam: executor kinds, scheduler dispatch through
``entry.executor``, the identity-checked swap that changes it, and the
threaded SpMV driver.

Numeric contract (the repo's two tolerance classes): row-partitioned
tiers are bit-identical to their serial kernel — ``threaded_spmv`` to
the in-process compiled CSR kernel, shards to ``csr.spmv`` — and
everything else is within 1e-12 of ``spmv_reference``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading

import numpy as np
import pytest

from repro.dist import ShardGroup
from repro.formats import COOMatrix, coo_to_csr, to_bcsr
from repro.kernels.cbackend import c_backend_available
from repro.kernels.reference import spmv_reference
from repro.machines import get_machine
from repro.observe.metrics import get_registry
from repro.parallel import threaded_spmv
from repro.serve import BatchScheduler, MatrixRegistry, WorkerPool
from repro.serve.executor import InProcessExecutor, ShardsExecutor
from repro.serve.registry import RegistryEntry
from tests.conftest import random_coo

needs_cc = pytest.mark.skipif(
    not c_backend_available(),
    reason="C backend unavailable (no compiler or REPRO_DISABLE_CC)",
)
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="shard workers need the fork start method",
)

K = 3


def _coo_with_empty_rows() -> COOMatrix:
    """Big enough (>= 2 x 25k nonzeros) that two threads really run,
    with empty rows at the top, inside a slab and at the very end."""
    rng = np.random.default_rng(5)
    m, n, nnz = 1500, 1400, 70_000
    row = rng.integers(0, m, size=nnz)
    row[(row == 0) | (row == 700) | (row == 701) | (row == m - 1)] = 9
    col = rng.integers(0, n, size=nnz)
    return COOMatrix((m, n), row, col, rng.standard_normal(nnz))


COO = _coo_with_empty_rows()
CSR = coo_to_csr(COO)
X = np.random.default_rng(6).standard_normal(COO.ncols)
X_BLOCK = np.random.default_rng(7).standard_normal((COO.ncols, K))
Y_REF = spmv_reference(COO, X)
Y_BLOCK_REF = np.stack(
    [spmv_reference(COO, X_BLOCK[:, j]) for j in range(K)], axis=1)


def _assert_close(got: np.ndarray, expected: np.ndarray) -> None:
    bound = 1e-12 * np.maximum(np.abs(expected), 1.0)
    assert np.all(np.abs(got - expected) <= bound)


# ----------------------------------------------------------------------
# (a) every executor kind x spmv / spmm
# ----------------------------------------------------------------------
@pytest.fixture(params=[
    "inprocess-numpy",
    pytest.param("inprocess-c", marks=needs_cc),
    pytest.param("inprocess-bcsr-c", marks=needs_cc),
    pytest.param("shards-row", marks=needs_fork),
])
def executor(request):
    """``(executor, bit-identical reference pair or None)``."""
    kind = request.param
    if kind == "shards-row":
        group = ShardGroup(2, k_cap=K)
        fp = group.register(COO)
        exact = (CSR.spmv(X), np.stack(
            [CSR.spmv(X_BLOCK[:, j]) for j in range(K)], axis=1))
        yield ShardsExecutor(group, fp), exact
        group.close()
    elif kind == "inprocess-bcsr-c":
        yield InProcessExecutor(to_bcsr(COO, 2, 2), "c"), None
    else:
        yield InProcessExecutor(CSR, kind.split("-")[1]), None


class TestExecutorKinds:
    def test_spmv(self, executor):
        ex, exact = executor
        y = ex.spmv(X)
        _assert_close(y, Y_REF)
        if exact is not None:
            assert np.array_equal(y, exact[0])

    def test_spmm(self, executor):
        ex, exact = executor
        y_block = ex.spmm(X_BLOCK)
        assert y_block.shape == (COO.nrows, K)
        _assert_close(y_block, Y_BLOCK_REF)
        if exact is not None:
            assert np.array_equal(y_block, exact[1])

    def test_describe_keys(self, executor):
        ex, _ = executor
        d = ex.describe()
        assert set(d) == {"backend", "sharded", "shards",
                          "batch_counters"}
        assert d["sharded"] == isinstance(ex, ShardsExecutor)

    def test_shards_close_frees_the_record(self):
        with ShardGroup(1) as group:        # serial mode: no fork needed
            ex = ShardsExecutor(group, group.register(COO))
            assert group.describe()["matrices"] == 1
            ex.close()
            assert group.describe()["matrices"] == 0


# ----------------------------------------------------------------------
# (b) the scheduler runs whatever executor the entry holds
# ----------------------------------------------------------------------
def _entry(executor, matrix=CSR) -> RegistryEntry:
    return RegistryEntry(
        fingerprint="adhoc", shape=COO.shape, nnz=COO.nnz_logical,
        plan=None, matrix=matrix, footprint_bytes=0,
        from_plan_cache=False, executor=executor,
    )


@pytest.fixture
def scheduler():
    pool = WorkerPool(2)
    sched = BatchScheduler(pool, max_batch=K, flush_deadline_s=0.001)
    yield sched
    sched.close()
    pool.shutdown()


class TestSchedulerDispatch:
    def test_served_batches_bump_the_executor_counters(self, scheduler):
        with ShardGroup(1, k_cap=K) as group:   # serial: no fork needed
            entry = _entry(ShardsExecutor(group, group.register(COO)))
            reg = get_registry()
            before = reg.counter("serve.sharded_batches")
            _assert_close(scheduler.submit(entry, X).result(timeout=10),
                          Y_REF)                   # k = 1: spmv
            futs = [scheduler.submit(entry, X_BLOCK[:, j])
                    for j in range(K)]
            for j, f in enumerate(futs):           # k = 3: one spmm
                _assert_close(f.result(timeout=10), Y_BLOCK_REF[:, j])
            assert reg.counter("serve.sharded_batches") == before + 2

    def test_direct_call_is_not_a_batch(self):
        with ShardGroup(1) as group:
            ex = ShardsExecutor(group, group.register(COO))
            reg = get_registry()
            before = reg.counter("serve.sharded_batches")
            ex.spmv(X)
            assert reg.counter("serve.sharded_batches") == before

    def test_executor_exception_reaches_every_future(self, scheduler):
        class BrokenExecutor:
            def describe(self):
                return {"backend": "numpy", "sharded": False,
                        "batch_counters": ()}

            def spmv(self, x):
                raise RuntimeError("kernel exploded")

            def spmm(self, x_block):
                raise RuntimeError("kernel exploded")

        entry = _entry(BrokenExecutor(), matrix=None)
        lone = scheduler.submit(entry, X)
        with pytest.raises(RuntimeError, match="exploded"):
            lone.result(timeout=10)
        futs = [scheduler.submit(entry, X) for _ in range(K)]
        for f in futs:
            with pytest.raises(RuntimeError, match="exploded"):
                f.result(timeout=10)


# ----------------------------------------------------------------------
# (c) MatrixRegistry.swap is identity-checked
# ----------------------------------------------------------------------
class TestSwap:
    def test_swap_replaces_plan_and_executor(self):
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1)
        entry = registry.register(COO)
        new = InProcessExecutor(entry.matrix, "numpy")
        assert registry.swap(entry, plan=entry.plan, executor=new)
        assert registry.get(entry.fingerprint).executor is new

    def test_swap_after_eviction_changes_nothing(self):
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1)
        entry = registry.register(COO)
        old = entry.executor
        registry.capacity_bytes = entry.footprint_bytes
        registry.register(random_coo(50, 50, 0.1, seed=30))  # evicts
        assert entry.fingerprint not in registry
        new = InProcessExecutor(entry.matrix, "numpy")
        assert not registry.swap(entry, plan=entry.plan, executor=new)
        assert entry.executor is old

    def test_swap_of_a_replaced_entry_changes_nothing(self):
        """Evicted, then registered again: the caller's stale entry is
        not the live one, so its swap must not touch either."""
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1)
        stale = registry.register(COO)
        registry.capacity_bytes = stale.footprint_bytes
        registry.register(random_coo(50, 50, 0.1, seed=30))  # evicts
        live = registry.register(COO)
        assert live is not stale
        live_executor = live.executor
        assert not registry.swap(
            stale, plan=stale.plan,
            executor=InProcessExecutor(stale.matrix, "numpy"))
        assert live.executor is live_executor


# ----------------------------------------------------------------------
# (d) threaded_spmv: bit-identical to the serial kernel, and reentrant
# ----------------------------------------------------------------------
@needs_cc
def test_threaded_spmv_bit_identical_to_serial_c():
    serial = InProcessExecutor(CSR, "c").spmv(X)
    y = threaded_spmv(CSR, X, n_threads=2)
    _assert_close(y, Y_REF)
    assert np.array_equal(y, serial)


@needs_cc
def test_threaded_spmv_really_threads():
    """The fixture matrix must clear threaded_spmv's per-thread
    nonzero floor, or the bit-identity case above compares the serial
    fallback with itself."""
    reg = get_registry()
    before = reg.counter("threaded.calls")
    threaded_spmv(CSR, X, n_threads=2)
    assert reg.counter("threaded.calls") == before + 1


def test_concurrent_threaded_spmv_on_different_matrices(rng):
    """Two callers, two matrices, overlapping calls: neither may see
    the other's matrix, vector or destination."""
    a = random_coo(1500, 1500, 0.05, seed=10)
    b = random_coo(1200, 1300, 0.06, seed=11)
    csr_a, csr_b = coo_to_csr(a), coo_to_csr(b)
    xa = rng.standard_normal(1500)
    xb = rng.standard_normal(1300)
    want = {"a": spmv_reference(a, xa), "b": spmv_reference(b, xb)}
    results: dict[str, list] = {"a": [], "b": []}
    errors: list[BaseException] = []

    def run(key, csr, x, n_iters=4):
        try:
            for _ in range(n_iters):
                results[key].append(
                    threaded_spmv(csr, x, n_threads=2,
                                  min_nnz_per_thread=1))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=("a", csr_a, xa)),
        threading.Thread(target=run, args=("b", csr_b, xb)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for key in ("a", "b"):
        assert len(results[key]) == 4
        for got in results[key]:
            _assert_close(got, want[key])
