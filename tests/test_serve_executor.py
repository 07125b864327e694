"""How a served batch executes: the tuned structure, in this process,
through ``spmv_backend`` / ``spmm_backend`` with the plan's backend;
the counters a served batch bumps; the identity-checked swap that
replaces the structure; and the threaded SpMV driver.

Numeric contract (the repo's two tolerance classes): row-partitioned
tiers are bit-identical to their serial kernel — ``threaded_spmv`` to
the in-process compiled CSR kernel — and everything else is within
1e-12 of ``spmv_reference``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.formats import COOMatrix, coo_to_csr, to_bcsr
from repro.kernels.cbackend import c_backend_available
from repro.kernels.reference import spmv_reference
from repro.kernels.registry import spmm_backend, spmv_backend
from repro.machines import get_machine
from repro.observe.metrics import get_registry
from repro.observe.perf.attribution import format_label
from repro.parallel import threaded_spmv
from repro.serve import BatchScheduler, MatrixRegistry, WorkerPool
from tests.conftest import random_coo

needs_cc = pytest.mark.skipif(
    not c_backend_available(),
    reason="C backend unavailable (no compiler or REPRO_DISABLE_CC)",
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
# (a) every (structure, backend) kind x spmv / spmm
# ----------------------------------------------------------------------
@pytest.fixture(params=[
    "inprocess-numpy",
    pytest.param("inprocess-c", marks=needs_cc),
    pytest.param("inprocess-bcsr-c", marks=needs_cc),
])
def executor(request):
    """``(structure, backend)`` as a served batch runs it."""
    kind = request.param
    if kind == "inprocess-bcsr-c":
        return to_bcsr(COO, 2, 2), "c"
    return CSR, kind.split("-")[1]


class TestExecutorKinds:
    def test_spmv(self, executor):
        matrix, backend = executor
        _assert_close(spmv_backend(matrix, X, backend=backend), Y_REF)

    def test_spmm(self, executor):
        matrix, backend = executor
        y_block = spmm_backend(matrix, X_BLOCK, backend=backend)
        assert y_block.shape == (COO.nrows, K)
        _assert_close(y_block, Y_BLOCK_REF)


# ----------------------------------------------------------------------
# (b) the scheduler runs the entry's structure on the plan's backend
# ----------------------------------------------------------------------
@pytest.fixture
def registry():
    return MatrixRegistry(get_machine("AMD X2"), n_threads=1,
                          backend="auto")


@pytest.fixture
def scheduler():
    pool = WorkerPool(2)
    sched = BatchScheduler(pool, max_batch=K, flush_deadline_s=0.001)
    yield sched
    sched.close()
    pool.shutdown()


class TestSchedulerDispatch:
    def test_served_batches_bump_the_executor_counters(self, registry,
                                                       scheduler):
        entry = registry.register(COO)
        compiled = 1 if entry.plan.backend == "c" else 0
        reg = get_registry()
        batches = reg.counter("serve.batches")
        c_batches = reg.counter("serve.c_backend_batches")
        _assert_close(scheduler.submit(entry, X).result(timeout=10),
                      Y_REF)                       # k = 1: spmv
        futs = [scheduler.submit(entry, X_BLOCK[:, j]) for j in range(K)]
        for j, f in enumerate(futs):               # k = 3: one spmm
            _assert_close(f.result(timeout=10), Y_BLOCK_REF[:, j])
        assert reg.counter("serve.batches") == batches + 2
        assert reg.counter("serve.c_backend_batches") \
            == c_batches + 2 * compiled

    def test_direct_call_is_not_a_batch(self, registry):
        entry = registry.register(COO)
        reg = get_registry()
        before = (reg.counter("serve.batches"),
                  reg.counter("serve.c_backend_batches"))
        spmv_backend(entry.matrix, X, backend=entry.plan.backend)
        assert (reg.counter("serve.batches"),
                reg.counter("serve.c_backend_batches")) == before

    def test_executor_exception_reaches_every_future(self, registry,
                                                     scheduler,
                                                     kernel_seam):
        entry = registry.register(COO)
        kernel_seam.watch(entry.matrix,
                          error=RuntimeError("kernel exploded"))
        lone = scheduler.submit(entry, X)
        with pytest.raises(RuntimeError, match="exploded"):
            lone.result(timeout=10)
        futs = [scheduler.submit(entry, X) for _ in range(K)]
        for f in futs:
            with pytest.raises(RuntimeError, match="exploded"):
                f.result(timeout=10)


# ----------------------------------------------------------------------
# (c) MatrixRegistry.swap is identity-checked, and a running batch
#     finishes on the structure it read
# ----------------------------------------------------------------------
class _KeyRecorder:
    """A perf watchdog that only records the series each batch feeds."""

    def __init__(self):
        self.keys: list[str] = []

    def observe(self, fingerprint, key, gflops, fraction):
        self.keys.append(key)


class TestSwap:
    def test_swap_replaces_plan_and_executor(self):
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1)
        entry = registry.register(COO)
        new = to_bcsr(COO, 2, 2)
        assert registry.swap(entry, plan=entry.plan, matrix=new)
        live = registry.get(entry.fingerprint)
        assert live.matrix is new
        assert live.footprint_bytes == new.footprint_bytes()
        assert registry.total_bytes == new.footprint_bytes()

    def test_swap_after_eviction_changes_nothing(self):
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1)
        entry = registry.register(COO)
        old = entry.matrix
        registry.capacity_bytes = entry.footprint_bytes
        registry.register(random_coo(50, 50, 0.1, seed=30))  # evicts
        assert entry.fingerprint not in registry
        assert not registry.swap(entry, plan=entry.plan,
                                 matrix=to_bcsr(COO, 2, 2))
        assert entry.matrix is old

    def test_swap_of_a_replaced_entry_changes_nothing(self):
        """Evicted, then registered again: the caller's stale entry is
        not the live one, so its swap must not touch either."""
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1)
        stale = registry.register(COO)
        registry.capacity_bytes = stale.footprint_bytes
        registry.register(random_coo(50, 50, 0.1, seed=30))  # evicts
        live = registry.register(COO)
        assert live is not stale
        live_matrix = live.matrix
        assert not registry.swap(stale, plan=stale.plan,
                                 matrix=to_bcsr(COO, 2, 2))
        assert live.matrix is live_matrix

    def test_running_batch_finishes_on_the_structure_it_read(
            self, kernel_seam):
        """The swap lands while a batch is inside the kernel: that
        batch's y and watchdog key both come from the old structure;
        the next batch runs the new one."""
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1)
        entry = registry.register(COO)
        old = entry.matrix
        # Twice the matrix, so an answer from the new structure shows.
        new = to_bcsr(COOMatrix(COO.shape, COO.row, COO.col,
                                2.0 * COO.val), 2, 2)
        assert format_label(new) != format_label(old)
        backend = entry.plan.backend
        watchdog = _KeyRecorder()
        pool = WorkerPool(1)
        sched = BatchScheduler(pool, flush_deadline_s=0.001,
                               watchdog=watchdog)
        try:
            kernel_seam.watch(old, hold=True)
            running = sched.submit(entry, X)
            assert kernel_seam.entered.wait(10.0)
            assert registry.swap(entry, plan=entry.plan, matrix=new)
            kernel_seam.release()
            assert np.array_equal(running.result(timeout=10),
                                  spmv_backend(old, X, backend=backend))
            assert watchdog.keys == [f"{format_label(old)}/{backend}"]
            _assert_close(sched.submit(entry, X).result(timeout=10),
                          2.0 * Y_REF)
            assert watchdog.keys[-1] == f"{format_label(new)}/{backend}"
        finally:
            kernel_seam.release()
            sched.close()
            pool.shutdown()


# ----------------------------------------------------------------------
# (d) threaded_spmv: bit-identical to the serial kernel, and reentrant
# ----------------------------------------------------------------------
@needs_cc
def test_threaded_spmv_bit_identical_to_serial_c():
    serial = spmv_backend(CSR, X, backend="c")
    y = threaded_spmv(CSR, X, n_threads=2)
    _assert_close(y, Y_REF)
    assert np.array_equal(y, serial)


@needs_cc
def test_threaded_spmv_really_threads():
    """The fixture matrix must clear threaded_spmv's per-thread
    nonzero floor, or the bit-identity case above compares the serial
    fallback with itself. Only the team path is attributed with
    ``backend="threaded"``."""
    reg = get_registry()
    before = reg.histogram("perf.gflops", backend="threaded",
                           format="csr").count
    threaded_spmv(CSR, X, n_threads=2)
    assert reg.histogram("perf.gflops", backend="threaded",
                         format="csr").count == before + 1


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
