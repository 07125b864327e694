"""Scheduler: coalescing, deadlines, admission control, worker pool."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.errors import ServeAdmissionError, ServeError
from repro.kernels.cbackend import c_backend_available
from repro.machines import get_machine
from repro.matrices import generate
from repro.observe.metrics import get_registry
from repro.serve import BatchScheduler, MatrixRegistry, ServeClient, WorkerPool
from tests.conftest import random_coo


@pytest.fixture
def entry():
    r = MatrixRegistry(get_machine("AMD X2"), n_threads=2)
    return r.register(random_coo(200, 200, 0.04, seed=1))


def make_scheduler(**kw):
    pool = WorkerPool(2)
    sched = BatchScheduler(pool, **kw)
    return pool, sched


def worker_tasks() -> float:
    counters = get_registry().snapshot()["counters"]
    return sum(v for key, v in counters.items()
               if key.startswith("serve.worker_tasks"))


class TestCoalescing:
    def test_n_requests_one_kernel(self, entry, rng):
        """Acceptance: N concurrent requests for one matrix produce
        fewer than N kernel invocations (exactly one full batch)."""
        n = 4
        pool, sched = make_scheduler(max_batch=n, flush_deadline_s=30.0)
        try:
            reg = get_registry()
            k0 = reg.counter("serve.batches")
            b0 = reg.counter("serve.batched_requests")
            xs = [rng.standard_normal(entry.ncols) for _ in range(n)]
            futs = [sched.submit(entry, x) for x in xs]
            ys = [f.result(timeout=10) for f in futs]
            assert reg.counter("serve.batches") == k0 + 1
            assert reg.counter("serve.batched_requests") == b0 + n
            for x, y in zip(xs, ys):
                np.testing.assert_allclose(y, entry.matrix.spmv(x),
                                           rtol=1e-10, atol=1e-12)
        finally:
            sched.close()
            pool.shutdown()

    def test_batch_size_histogram(self, entry, rng):
        pool, sched = make_scheduler(max_batch=3, flush_deadline_s=30.0)
        try:
            h0 = get_registry().histogram("serve.batch_size").count
            futs = [sched.submit(entry, rng.standard_normal(entry.ncols))
                    for _ in range(3)]
            [f.result(timeout=10) for f in futs]
            h = get_registry().histogram("serve.batch_size")
            assert h.count == h0 + 1
            assert h.max >= 3
        finally:
            sched.close()
            pool.shutdown()

    def test_single_request_is_exact(self, entry, rng):
        """A lone request runs the plain spmv kernel: bit-for-bit."""
        pool, sched = make_scheduler(max_batch=8,
                                     flush_deadline_s=0.001)
        try:
            x = rng.standard_normal(entry.ncols)
            y = sched.submit(entry, x).result(timeout=10)
            np.testing.assert_array_equal(y, entry.matrix.spmv(x))
        finally:
            sched.close()
            pool.shutdown()


@pytest.mark.skipif(not c_backend_available(),
                    reason="C backend unavailable")
def test_full_wave_on_a_blocked_plan_is_one_compiled_spmm(rng):
    """A wave of max_batch requests on a cache-blocked BCSR plan (tile
    grids overhanging their blocks included) runs as one compiled SpMM,
    and every answer carries the bits a lone request gets."""
    client = ServeClient(machine="AMD X2", backend="c", max_batch=8,
                         flush_deadline_s=30.0)
    reg = get_registry()

    def fallbacks():
        return sum(v for key, v in reg.snapshot()["counters"].items()
                   if key.startswith("c_backend.fallbacks"))

    try:
        entry = client.register(generate("FEM-Cant", scale=0.02))
        leaves = {b.matrix.format_name for b in entry.matrix.blocks}
        assert len(entry.matrix.blocks) > 1
        assert leaves <= {"bcsr", "bcoo"}
        xs = [rng.standard_normal(entry.ncols) for _ in range(8)]
        lone = []
        for x in xs:
            fut = client.submit(entry.fingerprint, x)
            client.scheduler.flush()
            lone.append(fut.result(timeout=10))
        batches = reg.counter("serve.c_backend_batches")
        missed = fallbacks()
        futs = [client.submit(entry.fingerprint, x) for x in xs]
        wave = [f.result(timeout=10) for f in futs]
        assert reg.counter("serve.c_backend_batches") == batches + 1
        assert fallbacks() == missed
        for y, y_lone in zip(wave, lone):
            np.testing.assert_array_equal(y, y_lone)
    finally:
        client.close()


class TestDeadlineFlush:
    def test_partial_batch_flushes_on_deadline(self, entry, rng):
        pool, sched = make_scheduler(max_batch=64,
                                     flush_deadline_s=0.005)
        try:
            futs = [sched.submit(entry, rng.standard_normal(entry.ncols))
                    for _ in range(2)]
            ys = [f.result(timeout=10) for f in futs]
            assert all(y.shape == (entry.nrows,) for y in ys)
        finally:
            sched.close()
            pool.shutdown()

    def test_explicit_flush(self, entry, rng):
        pool, sched = make_scheduler(max_batch=64,
                                     flush_deadline_s=30.0)
        try:
            fut = sched.submit(entry, rng.standard_normal(entry.ncols))
            assert sched.queued == 1
            assert sched.flush() == 1
            fut.result(timeout=10)
            sched.drain()
            assert sched.queued == 0
        finally:
            sched.close()
            pool.shutdown()


class TestAdmission:
    def test_full_queue_rejects(self, entry, rng):
        pool, sched = make_scheduler(max_batch=64,
                                     flush_deadline_s=30.0,
                                     max_queue=0)
        try:
            reg = get_registry()
            r0 = reg.counter("serve.rejected")
            with pytest.raises(ServeAdmissionError):
                sched.submit(entry, rng.standard_normal(entry.ncols))
            assert reg.counter("serve.rejected") == r0 + 1
        finally:
            sched.close()
            pool.shutdown()

    def test_wrong_shape_rejected(self, entry):
        pool, sched = make_scheduler()
        try:
            with pytest.raises(ServeError, match="shape"):
                sched.submit(entry, np.ones(entry.ncols + 1))
        finally:
            sched.close()
            pool.shutdown()

    def test_closed_scheduler_rejects(self, entry, rng):
        pool, sched = make_scheduler()
        sched.close()
        with pytest.raises(ServeError, match="closed"):
            sched.submit(entry, rng.standard_normal(entry.ncols))
        pool.shutdown()


class TestSynchronousEntry:
    """``call``: run at once on an idle matrix, else join the group."""

    def test_lone_call_runs_on_the_calling_thread(self, entry, rng):
        # A 30 s deadline: a request that queued would not be done.
        pool, sched = make_scheduler(max_batch=8, flush_deadline_s=30.0)
        try:
            tasks = worker_tasks()
            x = rng.standard_normal(entry.ncols)
            fut = sched.call(entry, x)
            assert fut.done()
            np.testing.assert_array_equal(fut.result(),
                                          entry.matrix.spmv(x))
            pool.drain()
            assert worker_tasks() == tasks
            assert sched.queued == 0
        finally:
            sched.close()
            pool.shutdown()

    def test_solver_operator_takes_the_synchronous_entry(self, rng):
        client = ServeClient(machine="AMD X2", flush_deadline_s=30.0)
        try:
            entry = client.register(random_coo(150, 150, 0.05, seed=3))
            op = client.operator(entry.fingerprint)
            tasks = worker_tasks()
            for _ in range(3):
                x = rng.standard_normal(entry.ncols)
                np.testing.assert_array_equal(op.spmv(x),
                                              entry.matrix.spmv(x))
            client.pool.drain()
            assert worker_tasks() == tasks
        finally:
            client.close()

    def test_call_on_a_busy_matrix_coalesces(self, entry, rng,
                                             kernel_seam):
        gated = kernel_seam.watch(entry.matrix, hold=True)
        pool, sched = make_scheduler(max_batch=8, flush_deadline_s=30.0)
        try:
            xs = [rng.standard_normal(entry.ncols) for _ in range(3)]
            running = sched.submit(entry, xs[0])
            sched.flush()
            assert gated.entered.wait(10.0)
            joined = sched.call(entry, xs[1])
            assert not joined.done() and sched.queued == 1
            other = sched.submit(entry, xs[2])
            assert sched.queued == 2
            gated.release()
            running.result(timeout=10)
            assert sched.flush() == 1
            ys = [joined.result(timeout=10), other.result(timeout=10)]
            assert [k for _, k in gated.calls] == [1, 2]
            for x, y in zip(xs[1:], ys):
                np.testing.assert_allclose(y, entry.matrix.spmv(x),
                                           rtol=1e-10, atol=1e-12)
        finally:
            gated.release()
            sched.close()
            pool.shutdown()

    def test_a_busy_matrix_never_queues_another(self, entry, rng,
                                                kernel_seam):
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=2)
        second = registry.register(random_coo(120, 120, 0.05, seed=2))
        gated = kernel_seam.watch(entry.matrix, hold=True)
        pool, sched = make_scheduler(max_batch=8, flush_deadline_s=30.0)
        try:
            running = sched.submit(entry, rng.standard_normal(entry.ncols))
            sched.flush()
            assert gated.entered.wait(10.0)
            x = rng.standard_normal(second.ncols)
            fut = sched.call(second, x)
            assert fut.done() and sched.queued == 0
            np.testing.assert_array_equal(fut.result(),
                                          second.matrix.spmv(x))
            gated.release()
            running.result(timeout=10)
        finally:
            gated.release()
            sched.close()
            pool.shutdown()

    # TestAdmission checks the same two rejections through submit().
    def test_full_queue_rejects_a_call(self, entry, rng):
        pool, sched = make_scheduler(max_queue=0)
        try:
            r0 = get_registry().counter("serve.rejected")
            with pytest.raises(ServeAdmissionError):
                sched.call(entry, rng.standard_normal(entry.ncols))
            assert get_registry().counter("serve.rejected") == r0 + 1
        finally:
            sched.close()
            pool.shutdown()

    def test_closed_scheduler_rejects_a_call(self, entry, rng):
        pool, sched = make_scheduler()
        sched.close()
        with pytest.raises(ServeError, match="closed"):
            sched.call(entry, rng.standard_normal(entry.ncols))
        pool.shutdown()

    @pytest.mark.parametrize("entry_point", ["submit", "call"])
    def test_executor_error_reaches_both_entries(self, entry, rng,
                                                 entry_point,
                                                 kernel_seam):
        kernel_seam.watch(entry.matrix,
                          error=ArithmeticError("kernel failed"))
        pool, sched = make_scheduler(flush_deadline_s=0.001)
        try:
            fut = getattr(sched, entry_point)(
                entry, rng.standard_normal(entry.ncols))
            with pytest.raises(ArithmeticError, match="kernel failed"):
                fut.result(timeout=10)
            sched.drain(timeout=5)
        finally:
            sched.close()
            pool.shutdown()

    @pytest.mark.parametrize("stop", ["drain", "close"])
    def test_drain_and_close_wait_for_a_running_call(self, entry, rng,
                                                     stop, kernel_seam):
        gated = kernel_seam.watch(entry.matrix, hold=True)
        pool, sched = make_scheduler()
        futs = []
        caller = threading.Thread(target=lambda: futs.append(
            sched.call(entry, rng.standard_normal(entry.ncols))))
        stopper = threading.Thread(target=getattr(sched, stop))
        try:
            caller.start()
            assert gated.entered.wait(10.0)
            stopper.start()
            stopper.join(0.2)
            assert stopper.is_alive(), f"{stop}() did not wait"
            gated.release()
            stopper.join(10.0)
            caller.join(10.0)
            assert not stopper.is_alive() and not caller.is_alive()
            assert futs[0].result().shape == (entry.nrows,)
        finally:
            gated.release()
            caller.join(10.0)
            sched.close()
            pool.shutdown()

    def test_concurrent_callers_leave_no_count_behind(self, entry):
        """Many threads mixing both entries over two matrices: every
        request runs in exactly one batch, and the in-flight counts
        return to zero (a lost update would leave one behind)."""
        registry = MatrixRegistry(get_machine("AMD X2"), n_threads=2)
        entries = [entry,
                   registry.register(random_coo(120, 120, 0.05, seed=2))]
        n_threads, n_each = 8, 20
        pool, sched = make_scheduler(max_batch=4, flush_deadline_s=0.0005)
        reg = get_registry()
        batched = reg.counter("serve.batched_requests")
        errors: list[BaseException] = []

        def client(seed: int) -> None:
            r = np.random.default_rng(seed)
            try:
                for i in range(n_each):
                    e = entries[(seed + i) % 2]
                    enter = sched.submit if (seed + i) % 3 == 0 \
                        else sched.call
                    x = r.standard_normal(e.ncols)
                    np.testing.assert_allclose(
                        enter(e, x).result(timeout=10), e.matrix.spmv(x),
                        rtol=1e-10, atol=1e-12)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(s,))
                   for s in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors[0]
            sched.drain(timeout=5)
            assert sched._busy == {} and sched._n_inflight == 0
            assert reg.counter("serve.batched_requests") \
                == batched + n_threads * n_each
        finally:
            sys.setswitchinterval(interval)
            sched.close()
            pool.shutdown()


class TestFailedHandOff:
    """A pool that refuses work must not kill the flusher or leak the
    in-flight count."""

    def test_refused_batch_fails_its_requests(self, entry, rng):
        pool, sched = make_scheduler(flush_deadline_s=0.001)
        pool.shutdown()
        try:
            for _ in range(2):
                fut = sched.submit(entry, rng.standard_normal(entry.ncols))
                with pytest.raises(ServeError, match="shut down"):
                    fut.result(timeout=10)
                assert sched._flusher.is_alive()
            sched.drain(timeout=2)
        finally:
            sched.close()

    def test_refused_task_is_not_counted(self):
        pool, sched = make_scheduler()
        pool.shutdown()
        try:
            with pytest.raises(ServeError, match="shut down"):
                sched.submit_task(lambda: None)
            sched.drain(timeout=2)
        finally:
            sched.close()


class TestWorkerPool:
    def test_submit_and_metrics(self):
        reg = get_registry()
        before = sum(reg.counter("serve.worker_tasks", worker=w)
                     for w in range(2))
        pool = WorkerPool(2, name="t")
        try:
            results = [pool.submit(lambda i=i: i * i) for i in range(8)]
            assert sorted(f.result(timeout=10) for f in results) \
                == [i * i for i in range(8)]
            pool.drain()
            total = sum(reg.counter("serve.worker_tasks", worker=w)
                        for w in range(2))
            assert total == before + 8
        finally:
            pool.shutdown()

    def test_drain_waits_for_queue(self):
        pool = WorkerPool(1)
        done = threading.Event()

        def slow():
            done.wait(5.0)
            return 1

        try:
            fut = pool.submit(slow)
            done.set()
            pool.drain()
            assert fut.result(timeout=1) == 1
        finally:
            pool.shutdown()

    def test_shutdown_idempotent(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown()
