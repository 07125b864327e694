"""The execution seam: executor kinds, scheduler dispatch through
``entry.executor``, and the online tuner that swaps executors.

Numeric contract (the repo's two tolerance classes): row-partitioned
tiers are bit-identical to their serial kernel — threaded(c) to the
in-process compiled CSR kernel, shards(row) to ``csr.spmv`` — and
everything else is within 1e-12 of ``spmv_reference``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import threading

import numpy as np
import pytest

from repro.serve.tuner import OnlineTuner
from repro.dist import ShardGroup
from repro.errors import ServeError
from repro.formats import COOMatrix, coo_to_csr, to_bcsr
from repro.kernels.cbackend import c_backend_available
from repro.kernels.reference import spmv_reference
from repro.machines import get_machine
from repro.observe.metrics import get_registry
from repro.parallel import threaded_spmv
from repro.serve import BatchScheduler, MatrixRegistry, PlanCache, WorkerPool
from repro.serve.executor import (
    InProcessExecutor,
    ShardsExecutor,
    ThreadedExecutor,
)
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
    pytest.param("threaded", marks=needs_cc),
    pytest.param("shards-row", marks=needs_fork),
    pytest.param("shards-col", marks=needs_fork),
])
def executor(request):
    """``(executor, bit-identical reference pair or None)``."""
    kind = request.param
    if kind.startswith("shards"):
        group = ShardGroup(2, partition=kind.split("-")[1], k_cap=K)
        fp = group.register(COO)
        exact = ((CSR.spmv(X), np.stack(
            [CSR.spmv(X_BLOCK[:, j]) for j in range(K)], axis=1))
            if kind == "shards-row" else None)
        yield ShardsExecutor(group, fp), exact
        group.close()
    elif kind == "threaded":
        serial = InProcessExecutor(CSR, "c")
        yield (ThreadedExecutor(CSR, "c", 2),
               (serial.spmv(X), serial.spmm(X_BLOCK)))
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
        assert set(d) == {"backend", "sharded", "exec_threads",
                          "shards", "batch_counters"}
        assert d["sharded"] == isinstance(ex, ShardsExecutor)

    @needs_cc
    def test_threaded_really_threads(self):
        """The fixture matrix must clear threaded_spmv's per-thread
        nonzero floor, or the bit-identity case above compares the
        serial fallback with itself."""
        reg = get_registry()
        before = reg.counter("threaded.calls")
        ThreadedExecutor(CSR, "c", 2).spmv(X)
        assert reg.counter("threaded.calls") == before + 1

    def test_threaded_needs_full_extent_csr(self):
        with pytest.raises(ServeError, match="full-extent CSR"):
            ThreadedExecutor(to_bcsr(COO, 2, 2), "numpy", 2)

    def test_threaded_unwraps_single_block_plan(self):
        reg = MatrixRegistry(get_machine("AMD X2"), n_threads=1)
        entry = reg.register(COO)
        assert entry.matrix is not CSR      # the plan's own wrapper
        ex = ThreadedExecutor(entry.matrix, "numpy", 2)
        _assert_close(ex.spmv(X), Y_REF)

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
    def test_threaded_executor_counts_threaded_batches(self, scheduler):
        entry = _entry(ThreadedExecutor(CSR, "numpy", 2))
        reg = get_registry()
        before = reg.counter("serve.threaded_batches")
        _assert_close(scheduler.submit(entry, X).result(timeout=10),
                      Y_REF)                       # k = 1: spmv
        futs = [scheduler.submit(entry, X_BLOCK[:, j]) for j in range(K)]
        for j, f in enumerate(futs):               # k = 3: one spmm
            _assert_close(f.result(timeout=10), Y_BLOCK_REF[:, j])
        assert reg.counter("serve.threaded_batches") == before + 2

    def test_timing_a_candidate_is_not_a_batch(self):
        reg = get_registry()
        before = reg.counter("serve.threaded_batches")
        ThreadedExecutor(CSR, "numpy", 2).spmv(X)
        assert reg.counter("serve.threaded_batches") == before

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
# (c) the online tuner builds, times and swaps executors
# ----------------------------------------------------------------------
class _InlineScheduler:
    """``submit_task`` runs the tune on the calling thread."""

    def __init__(self):
        self.tasks = 0

    def submit_task(self, fn):
        self.tasks += 1
        fn()


@pytest.fixture
def tuned(tmp_path, monkeypatch):
    """(registry, entry, tuner) for one hot in-process matrix on a
    pretend four-core host; the tune runs inline on ``note_batch``."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1,
                              plan_cache=PlanCache(tmp_path))
    entry = registry.register(COO)
    tuner = OnlineTuner(registry, _InlineScheduler(),
                        hot_threshold=1, iters=1)
    return registry, entry, tuner


def _envelope(registry, entry) -> dict:
    path = registry.plan_cache.path_for(registry.machine.name,
                                        entry.fingerprint)
    return json.loads(path.read_text())


class TestOnlineTuner:
    def test_promotion_swaps_executor_and_records_online(self, tuned):
        registry, entry, tuner = tuned
        old = entry.executor
        assert isinstance(old, InProcessExecutor)
        # Deterministic verdict: the live executor is slow, every
        # candidate fast (the first one timed wins the strict "<").
        tuner._time = lambda ex, x: 1.0 if ex is old else 0.1
        tuner.note_batch(entry)
        verdict = tuner.history[entry.fingerprint][0]
        assert verdict["promoted"] and verdict["gain"] == pytest.approx(10)
        new = entry.executor
        assert new is not old
        d = new.describe()
        assert verdict["best"] == f"{d['backend']}/t{d['exec_threads']}"
        assert entry.plan.backend == d["backend"]
        assert entry.describe()["exec_threads"] == d["exec_threads"]
        assert _envelope(registry, entry)["autoplan"]["source"] == "online"
        # and the promoted executor is what serves
        _assert_close(new.spmv(X), Y_REF)

    def test_evicted_while_timing_is_not_swapped(self, tuned):
        registry, entry, tuner = tuned
        registry.capacity_bytes = entry.footprint_bytes
        old = entry.executor

        def time_and_evict(ex, x):
            registry.register(random_coo(50, 50, 0.1, seed=30))
            return 1.0 if ex is old else 0.1

        tuner._time = time_and_evict
        tuner.note_batch(entry)
        assert entry.fingerprint not in registry
        assert entry.executor is old
        assert not tuner.history[entry.fingerprint][0]["promoted"]
        assert "autoplan" not in _envelope(registry, entry)

    def test_shards_backed_entry_is_skipped(self):
        with ShardGroup(1) as group:        # serial mode: no fork needed
            registry = MatrixRegistry(get_machine("AMD X2"), n_threads=1,
                                      shard_group=group)
            entry = registry.register(random_coo(60, 60, 0.1, seed=31))
            assert isinstance(entry.executor, ShardsExecutor)
            sched = _InlineScheduler()
            tuner = OnlineTuner(registry, sched, hot_threshold=1)
            tuner.note_batch(entry)
            assert sched.tasks == 0 and tuner.history == {}

    @pytest.mark.parametrize("cores, expect_t2", [(1, False), (4, True)])
    def test_thread_candidates_capped_at_host_cores(
            self, tuned, monkeypatch, cores, expect_t2):
        """Regression: the hill-climb proposed ``threads * 2`` with no
        upper bound, so timing noise could promote past the host."""
        registry, entry, tuner = tuned
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        tuner.min_gain = float("inf")       # verdicts only, no swap
        tuner.note_batch(entry)
        timings = tuner.history[entry.fingerprint][0]["timings"]
        assert any(k.endswith("/t2") for k in timings) == expect_t2
        assert all(k.endswith(("/t1", "/t2")) for k in timings)


# ----------------------------------------------------------------------
# (d) serve worker threads call threaded_spmv concurrently
# ----------------------------------------------------------------------
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
