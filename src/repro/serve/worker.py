"""Thread worker pool executing batched SpMV jobs.

A deliberately small pool: SpMV batches are NumPy-kernel-bound and
release the GIL inside the heavy array ops, so a handful of threads —
sized to the serving machine model's core count by default — keeps the
service concurrent without oversubscription. Each worker reports
through :mod:`repro.observe.metrics`:

* ``serve.worker_busy{worker=i}`` — gauge, 1 while running a task;
* ``serve.worker_tasks{worker=i}`` — tasks completed;
* ``serve.worker_busy_seconds{worker=i}`` — cumulative wall clock.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable

from ..errors import ServeError
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..observe.trace import span as _span


class WorkerPool:
    """Fixed-size thread pool with per-worker wall-clock accounting."""

    def __init__(self, n_workers: int, *, name: str = "serve"):
        if n_workers < 1:
            raise ServeError("worker pool needs >= 1 worker")
        self.n_workers = n_workers
        self._q: "queue.Queue" = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._loop, args=(i,),
                name=f"{name}-worker-{i}", daemon=True,
            )
            for i in range(n_workers)
        ]
        for t in self._threads:
            t.start()

    # ----------------------------------------------------------- submit
    def submit(self, fn: Callable[[], object],
               ctx: "_context.TraceContext | None" = None) -> Future:
        """Queue a nullary callable; returns its Future.

        ``ctx`` re-installs a trace context inside the worker thread —
        pool threads don't inherit the submitter's contextvars, so a
        sampled request's context must ride the queue explicitly.
        """
        with self._lock:
            if self._closed:
                raise ServeError("worker pool is shut down")
            fut: Future = Future()
            self._q.put((fn, fut, ctx))
        return fut

    # ------------------------------------------------------ worker loop
    def _loop(self, worker_id: int) -> None:
        while True:
            item = self._q.get()
            if item is None:
                self._q.task_done()
                return
            fn, fut, ctx = item
            if not fut.set_running_or_notify_cancel():
                self._q.task_done()
                continue
            t0 = time.perf_counter()
            _metrics.gauge("serve.worker_busy", 1, worker=worker_id)
            try:
                with _context.use(ctx):
                    with _span("serve.worker_task", worker=worker_id):
                        result = fn()
            except BaseException as exc:  # noqa: BLE001 - relayed
                fut.set_exception(exc)
            else:
                fut.set_result(result)
            finally:
                dt = time.perf_counter() - t0
                _metrics.gauge("serve.worker_busy", 0, worker=worker_id)
                _metrics.inc("serve.worker_tasks", worker=worker_id)
                _metrics.inc("serve.worker_busy_seconds", dt,
                             worker=worker_id)
                self._q.task_done()

    # --------------------------------------------------------- shutdown
    def drain(self) -> None:
        """Block until every queued task has finished."""
        self._q.join()

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop the pool. With ``drain`` (default) block until queued
        work finishes and the workers exit; without it, return at once
        — workers still run out the queue (sentinels sit behind queued
        tasks) and exit on their own, however long a stuck task takes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self._q.join()
        for _ in self._threads:
            self._q.put(None)
        if drain:
            for t in self._threads:
                t.join(timeout=5.0)
