"""Request scheduler: coalesces concurrent SpMVs into SpMM batches.

The bandwidth argument (paper §2.1, and the multicore roofline of
Schubert et al.): SpMV streams the whole matrix once per right-hand
side, so k concurrent ``y = A·x`` requests against the *same* matrix
executed one by one cost k matrix sweeps — batched through the
multi-vector kernel (:func:`repro.formats.multivector.spmm`) they cost
one sweep, multiplying arithmetic intensity by ~k.

Mechanics: the scheduler counts, per fingerprint, the batches in
flight. A caller that blocks on its own answer (:meth:`call`, behind
``ServeClient.spmv`` and so every solver operator) can never add a
second request to a batch, so when its matrix is idle — no pending
group, nothing in flight — its request runs at once on the caller's own
thread: no deadline, no thread hand-off. Every other request enters a
per-fingerprint pending group: a :meth:`call` whose matrix is busy,
and a :meth:`submit` always — an asynchronous caller may be the first
of a wave, and running it alone would split the wave's batch. A group
is dispatched to the worker pool as one batch when it reaches
``max_batch`` requests (immediately, in the submitting thread) or when
its oldest request has waited ``flush_deadline_s`` (by the background
flusher thread), so requests that arrive while a batch runs still
coalesce. A batch the pool refuses fails its requests, not the
flusher. Admission control, the same for both entries, is a bound on
the total number of queued-but-undispatched requests; past it, they
raise :class:`~repro.errors.ServeAdmissionError` (HTTP 429 upstream).

A batch runs the entry's tuned structure in this process through the
plan's kernel backend (:func:`~repro.kernels.registry.spmv_backend` /
:func:`~repro.kernels.registry.spmm_backend`). Single-request batches
go through the exact ``spmv``, so a solver issuing dependent matvecs
through the service gets bit-for-bit the numbers the direct library
path produces. On the compiled path a coalesced batch keeps that
promise too: the fused CSR, BCSR and BCOO kernels compute each column
in its SpMV's exact order, so on the scalar and prefetch rungs a
request's answer has the same bits whether it ran alone or in a batch
of eight. Where a batch runs the NumPy SpMM or the simd rung's
reassociating reductions, it matches the lone answer to rounding, not
bits.

Counters/histograms: ``serve.requests``, ``serve.batches`` (one per
kernel call), ``serve.batched_requests``, ``serve.batch_size``
(histogram), ``serve.rejected``, ``serve.c_backend_batches`` (batches
served on the compiled backend).

Observability (v2): each request captures the submitter's
:class:`~repro.observe.context.TraceContext` and its enqueue time; the
batch executes under the first sampled request's context (re-installed
in the worker thread; a request run on its caller's thread already has
it), so the ``serve.batch`` span stitches into the request's tree.
When the scheduler holds an :class:`~repro.observe.slo.SloTracker`,
every completed request reports its queue-wait / compute / gather
phase breakdown there.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..errors import ServeAdmissionError, ServeError
from ..kernels.registry import spmm_backend, spmv_backend
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..observe.perf.attribution import (
    format_label,
    sample_kernel as _sample_kernel,
)
from ..observe.slo import SloTracker
from ..observe.trace import span as _span
from .registry import RegistryEntry
from .worker import WorkerPool


@dataclass
class _Request:
    x: np.ndarray
    future: Future
    ctx: "_context.TraceContext | None" = None
    t_submit: float = 0.0      #: perf_counter at enqueue


@dataclass
class _Group:
    entry: RegistryEntry
    t_first: float
    requests: list[_Request] = field(default_factory=list)


class BatchScheduler:
    """Deadline/size-triggered coalescing scheduler over a worker pool."""

    def __init__(
        self,
        pool: WorkerPool,
        *,
        max_batch: int = 8,
        flush_deadline_s: float = 0.002,
        max_queue: int = 1024,
        slo: SloTracker | None = None,
        watchdog=None,
    ):
        if max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if flush_deadline_s < 0:
            raise ServeError("flush_deadline_s must be >= 0")
        if max_queue < 0:
            raise ServeError("max_queue must be >= 0")
        self.pool = pool
        self.max_batch = max_batch
        self.flush_deadline_s = flush_deadline_s
        self.max_queue = max_queue
        self.slo = slo
        self.watchdog = watchdog
        self._cv = threading.Condition()
        self._groups: dict[str, _Group] = {}
        self._n_queued = 0
        self._n_inflight = 0      #: batches and tasks not yet finished
        self._busy: dict[str, int] = {}   #: fingerprint → its batches
        self._closed = False
        self._flusher = threading.Thread(
            target=self._flush_loop, name="serve-flusher", daemon=True
        )
        self._flusher.start()

    # ----------------------------------------------------------- submit
    def submit(self, entry: RegistryEntry, x: np.ndarray) -> Future:
        """Enqueue ``y = A·x`` for the registered matrix; returns a
        Future resolving to the result vector."""
        fut, group, _ = self._admit(entry, x, blocking=False)
        if group is not None:
            self._dispatch(group)
        return fut

    def call(self, entry: RegistryEntry, x: np.ndarray) -> Future:
        """``y = A·x`` for a caller about to block on the answer.

        When the matrix is idle the request runs on this thread and the
        returned Future is already done; otherwise it joins the pending
        group exactly as through :meth:`submit`."""
        fut, group, here = self._admit(entry, x, blocking=True)
        if here:
            self._execute(group)
        elif group is not None:
            self._dispatch(group)
        return fut

    def _admit(self, entry: RegistryEntry, x: np.ndarray, *,
               blocking: bool) -> "tuple[Future, _Group | None, bool]":
        """The admission block both entries share. Returns the
        request's Future, a group ready to run (or None), and whether
        that group was claimed for the calling thread — only for a
        ``blocking`` request on an idle matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (entry.ncols,):
            raise ServeError(
                f"x has shape {x.shape}, expected ({entry.ncols},) for "
                f"matrix {entry.fingerprint}"
            )
        fp = entry.fingerprint
        fut: Future = Future()
        ctx = _context.current()
        with _span("serve.scheduler.enqueue", fingerprint=fp):
            request = _Request(x, fut, ctx, time.perf_counter())
            with self._cv:
                if self._closed:
                    raise ServeError("scheduler is closed")
                if self._n_queued >= self.max_queue:
                    _metrics.inc("serve.rejected")
                    raise ServeAdmissionError(
                        f"request queue full ({self.max_queue} pending)"
                    )
                _metrics.inc("serve.requests")
                if blocking and fp not in self._groups \
                        and fp not in self._busy:
                    self._claim(fp)
                    return fut, _Group(entry, time.monotonic(),
                                       [request]), True
                group = self._groups.get(fp)
                if group is None:
                    group = _Group(entry, time.monotonic())
                    self._groups[fp] = group
                group.requests.append(request)
                self._n_queued += 1
                if len(group.requests) >= self.max_batch:
                    self._n_queued -= len(group.requests)
                    return fut, self._groups.pop(fp), False
                self._cv.notify_all()
        return fut, None, False

    def submit_task(self, fn) -> Future:
        """Run a background task (e.g. an autoplan re-tune) on the
        worker pool, tracked by the in-flight count so :meth:`drain`
        and :meth:`close` wait for it like any batch."""
        with self._cv:
            if self._closed:
                raise ServeError("scheduler is closed")
            self._claim(None)

        def run():
            try:
                fn()
            finally:
                self._release(None)

        _metrics.inc("serve.background_tasks")
        try:
            return self.pool.submit(run)
        except BaseException:
            self._release(None)
            raise

    # ------------------------------------------------------- dispatching
    def _claim(self, fingerprint: str | None) -> None:
        """Count one batch of ``fingerprint`` (None: a background task)
        in flight. Called with ``_cv`` held."""
        self._n_inflight += 1
        if fingerprint is not None:
            self._busy[fingerprint] = self._busy.get(fingerprint, 0) + 1

    def _release(self, fingerprint: str | None) -> None:
        """Undo :meth:`_claim` once the batch or task has finished."""
        with self._cv:
            self._n_inflight -= 1
            if fingerprint is not None:
                left = self._busy.pop(fingerprint) - 1
                if left:
                    self._busy[fingerprint] = left
            self._cv.notify_all()

    def _dispatch(self, group: _Group) -> None:
        fp = group.entry.fingerprint
        with self._cv:
            self._claim(fp)
        # A coalesced batch serves several requests but executes once:
        # it runs under the first *sampled* requester's context, so at
        # least one trace gets the full sub-tree. The batch span itself
        # lists every member trace.
        ctx = next((r.ctx for r in group.requests
                    if r.ctx is not None and r.ctx.sampled), None)
        try:
            self.pool.submit(lambda: self._execute(group), ctx=ctx)
        except Exception as exc:  # e.g. the pool was shut down first
            for req in group.requests:
                req.future.set_exception(exc)
            self._release(fp)

    def _execute(self, group: _Group) -> None:
        entry, requests = group.entry, group.requests
        k = len(requests)
        t_exec = time.perf_counter()
        gather_s = 0.0
        member_traces = sorted({r.ctx.trace_id for r in requests
                                if r.ctx is not None and r.ctx.sampled})
        try:
            # Read once: a re-tune may swap entry.matrix while this
            # batch runs, and the batch must be counted as what ran.
            matrix, backend = entry.matrix, entry.plan.backend
            with _span("serve.batch", fingerprint=entry.fingerprint,
                       batch_size=k, backend=backend,
                       traces=member_traces):
                if k == 1:
                    ys = [spmv_backend(matrix, requests[0].x,
                                       backend=backend)]
                else:
                    x_block = np.stack([r.x for r in requests], axis=1)
                    y_block = spmm_backend(matrix, x_block,
                                           backend=backend)
                    t_g = time.perf_counter()
                    ys = [np.ascontiguousarray(y_block[:, j])
                          for j in range(k)]
                    gather_s = time.perf_counter() - t_g
                if backend == "c":
                    # So /metrics shows how many batches ran compiled.
                    _metrics.inc("serve.c_backend_batches")
            _metrics.inc("serve.batches")
            _metrics.inc("serve.batched_requests", k)
            _metrics.observe("serve.batch_size", k)
            t_done = time.perf_counter()
            compute_s = max(t_done - t_exec - gather_s, 0.0)
            if self.watchdog is not None:
                self._feed_watchdog(entry.fingerprint, matrix, backend,
                                    k, compute_s)
            for req, y in zip(requests, ys):
                req.future.set_result(y)
            if self.slo is not None:
                for req in requests:
                    queue_s = max(t_exec - req.t_submit, 0.0) \
                        if req.t_submit else 0.0
                    self.slo.record(
                        op="spmv", fingerprint=entry.fingerprint,
                        total_s=(t_done - req.t_submit
                                 if req.t_submit else compute_s),
                        phases={"queue": queue_s,
                                "compute": compute_s,
                                "gather": gather_s},
                        trace_id=(req.ctx.trace_id
                                  if req.ctx is not None
                                  and req.ctx.sampled else ""),
                    )
        except BaseException as exc:  # noqa: BLE001 - relayed per request
            for req in requests:
                if not req.future.done():
                    req.future.set_exception(exc)
        finally:
            self._release(entry.fingerprint)

    def _feed_watchdog(self, fingerprint: str, matrix, backend: str,
                       k: int, compute_s: float) -> None:
        """Feed the perf watchdog one attributed batch.

        Attribution here is *pure* (no histograms): spmv/spmm_backend
        already emitted perf.* for this batch; the scheduler only
        tracks the per-matrix baseline against the whole-batch wall
        time, the quantity a regression actually degrades. The
        baseline series is ``<format>/<backend>`` of the structure the
        batch ran.
        """
        if compute_s <= 0:
            return
        try:
            sample = _sample_kernel(matrix, compute_s, k=k,
                                    backend=backend)
            self.watchdog.observe(
                fingerprint, f"{format_label(matrix)}/{backend}",
                sample.gflops, sample.fraction,
            )
        except Exception:  # pragma: no cover - watchdog is best effort
            pass

    def _flush_loop(self) -> None:
        while True:
            due: list[_Group] = []
            with self._cv:
                if self._closed and not self._groups:
                    return
                now = time.monotonic()
                next_deadline: float | None = None
                for fp in list(self._groups):
                    group = self._groups[fp]
                    deadline = group.t_first + self.flush_deadline_s
                    if now >= deadline or self._closed:
                        due.append(self._groups.pop(fp))
                        self._n_queued -= len(due[-1].requests)
                    elif next_deadline is None or deadline < next_deadline:
                        next_deadline = deadline
                if not due:
                    timeout = None if next_deadline is None \
                        else max(next_deadline - now, 0.0)
                    self._cv.wait(timeout=timeout)
                    continue
            for group in due:
                self._dispatch(group)

    # ------------------------------------------------------------ drain
    def flush(self) -> int:
        """Dispatch every pending group immediately; returns the number
        of groups flushed."""
        with self._cv:
            due = list(self._groups.values())
            self._groups.clear()
            for group in due:
                self._n_queued -= len(group.requests)
        for group in due:
            self._dispatch(group)
        return len(due)

    @property
    def queued(self) -> int:
        with self._cv:
            return self._n_queued

    def drain(self, timeout: float | None = 10.0) -> None:
        """Flush pending groups and wait until nothing is in flight."""
        self.flush()
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._cv:
            while self._groups or self._n_queued or self._n_inflight:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ServeError("drain timed out")
                self._cv.wait(timeout=remaining)

    def close(self) -> None:
        """Graceful shutdown: reject new work, drain what's queued."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        self.drain()
