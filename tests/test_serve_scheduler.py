"""Scheduler: coalescing, deadlines, admission control, worker pool."""

from __future__ import annotations

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
