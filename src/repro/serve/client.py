"""In-process serving client: registry + plan cache + scheduler + pool.

:class:`ServeClient` is the one object an application embeds: it owns
the tuned-matrix registry, the on-disk plan cache, the coalescing
scheduler, and the worker pool. The HTTP layer
(:mod:`repro.serve.routes` behind :mod:`repro.serve.transport`) is a
thin shell over the same client.

:meth:`ServeClient.operator` returns a
:class:`~repro.solvers.operator.FingerprintOperator` whose
``spmv(x, y=None)``/``shape``/``__call__`` surface satisfies the
``LinearOperator`` protocol of :mod:`repro.solvers`, so conjugate
gradients and (via its ``operator=`` hook) PageRank run against the
service unchanged::

    client = ServeClient("AMD X2", plan_cache_dir="~/.cache/repro")
    fp = client.register(coo).fingerprint
    result = conjugate_gradient(client.operator(fp), b)
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import Future

import numpy as np

from ..errors import ServeError
from ..formats.coo import COOMatrix
from ..machines.model import Machine
from ..machines.registry import get_machine
from ..observe import context as _context
from ..observe import trace as _trace
from ..observe.hub import install_hub
from ..observe import perf as _perf
from ..observe.perf import MachineCeilings, PerfWatchdog
from ..observe.slo import SloTracker
from ..observe.trace import span as _span
from ..solvers.operator import FingerprintOperator
from .plancache import PlanCache
from .registry import MatrixRegistry, RegistryEntry
from .scheduler import BatchScheduler
from .worker import WorkerPool


class ServeClient:
    """The embedded SpMV service."""

    def __init__(
        self,
        machine: Machine | str = "AMD X2",
        *,
        n_threads: int | None = None,
        plan_cache_dir: str | os.PathLike | None = None,
        capacity_bytes: int | None = None,
        max_batch: int = 8,
        flush_deadline_s: float = 0.002,
        max_queue: int = 1024,
        n_workers: int | None = None,
        backend: str = "numpy",
        trace_sample_rate: float = 0.0,
        slo_ms: float | None = None,
        plan_mode: str = "heuristic",
        perf_watch: "bool | MachineCeilings" = False,
        profile_dir: str | os.PathLike | None = None,
    ):
        if not (0.0 <= trace_sample_rate <= 1.0):
            raise ServeError(
                f"trace_sample_rate must be in [0, 1], "
                f"got {trace_sample_rate}"
            )
        if plan_mode == "auto" and plan_cache_dir is None:
            # The model is trained from, and stored in, the plan-cache
            # directory: without one, "auto" could never predict.
            raise ServeError('plan_mode="auto" needs a plan_cache_dir')
        if isinstance(machine, str):
            machine = get_machine(machine)
        self.machine = machine
        # What close() releases. The sampler, the pool and the scheduler
        # each start threads, and the objects built between them
        # validate their own arguments, so a constructor that raises
        # half-way closes what already started.
        self._closed = False
        self._sampler = None
        self.pool = self.scheduler = None
        try:
            # Roofline observability: resolve measured ceilings and install
            # them process-wide, so every kernel call tags its computes
            # with real fractions. perf_watch=True loads (or measures once
            # and caches) this host's ceilings; passing a MachineCeilings
            # uses it directly (tests, pre-measured fleets).
            self.ceilings = None
            if perf_watch:
                if isinstance(perf_watch, MachineCeilings):
                    self.ceilings = perf_watch
                else:
                    self.ceilings = _perf.get_ceilings()
                _perf.configure(self.ceilings)
            if profile_dir is not None:
                profile_dir = os.path.expanduser(os.fspath(profile_dir))
                os.makedirs(profile_dir, exist_ok=True)
                self._sampler = _perf.start_sampler(
                    os.path.join(profile_dir, "serve-parent.stacks")
                )
            # Learned plan selection: with plan_mode "auto", cold
            # registrations try the model first (trained from the plan
            # cache's tuned envelopes, stored beside them) and confident
            # predictions skip the tuning sweep; a background re-tune then
            # confirms or overrides the predicted plan.
            self.autoplanner = plan_cache = None
            if plan_cache_dir is not None:
                plan_cache_dir = os.path.expanduser(os.fspath(plan_cache_dir))
                plan_cache = PlanCache(plan_cache_dir)
                if plan_mode != "heuristic":
                    from ..autoplan import AutoPlanner

                    self.autoplanner = AutoPlanner(plan_cache_dir)
            self.registry = MatrixRegistry(
                machine, n_threads=n_threads,
                capacity_bytes=capacity_bytes, plan_cache=plan_cache,
                backend=backend,
                plan_mode=plan_mode,
                autoplanner=self.autoplanner,
            )
            # Pool sized to the machine model being served: SpMV batches
            # saturate its modeled core count, more threads just queue.
            self.pool = WorkerPool(
                n_workers if n_workers is not None else machine.n_cores
            )
            # Observability plane: the hub is the process-global sink for
            # sampled spans (idempotent install — clients share it), the
            # SLO tracker accounts every request's phase breakdown and
            # arms force-sampling after outliers.
            self.trace_sample_rate = trace_sample_rate
            self.hub = install_hub()
            self.slo = SloTracker(
                slo_s=slo_ms / 1e3 if slo_ms is not None else None
            )
            # Regression watchdog: only active under perf_watch. It feeds
            # on per-batch compute rates from the scheduler and arms the
            # SLO tracker's force-sampling on a sustained drop.
            self.watchdog = None
            if perf_watch:
                self.watchdog = PerfWatchdog(slo=self.slo)
            self.scheduler = BatchScheduler(
                self.pool, max_batch=max_batch,
                flush_deadline_s=flush_deadline_s, max_queue=max_queue,
                slo=self.slo, watchdog=self.watchdog,
            )
        except BaseException:
            self.close()
            raise

    # ----------------------------------------------------- registration
    def register(self, coo: COOMatrix,
                 *, n_threads: int | None = None) -> RegistryEntry:
        """Tune (plan-cache-aware) and admit a matrix; idempotent.

        When the registry took the predict path, a background re-tune
        is queued: it sweeps the matrix off the request path, records
        whether the prediction was right, and upgrades the live plan on
        an override. A re-registration while it is queued or running
        queues another, which finds the prediction already claimed
        (:meth:`MatrixRegistry.retune`) and returns at once. The
        scheduler's drain discipline waits for it like any batch.
        """
        entry = self.registry.register(coo, n_threads=n_threads)
        if entry.predicted:
            fingerprint = entry.fingerprint
            self.scheduler.submit_task(
                lambda: self.registry.retune(fingerprint, coo)
            )
        return entry

    def operator(self, fingerprint: str) -> FingerprintOperator:
        """Solver-ready handle for a registered matrix.

        Every ``spmv`` is :meth:`spmv`: a lone sequential caller (an
        iterative solver) runs the exact single-vector kernel on its
        own thread, with no deadline and no hand-off, while callers
        that find the matrix busy coalesce into multi-vector batches.
        """
        entry = self.registry.get(fingerprint)
        return FingerprintOperator(self, entry.fingerprint, entry.shape)

    # --------------------------------------------------------- requests
    def _request_context(self, fingerprint: str
                         ) -> "tuple[_context.TraceContext | None, bool]":
        """The trace context this request runs under, and whether this
        client created it (→ it must also emit the root span). An
        inbound context (HTTP header, caller-installed) wins; otherwise
        a fresh sampled root is minted at the configured rate, or when
        a recent outlier armed force-sampling for this matrix."""
        ctx = _context.current()
        if ctx is not None:
            return ctx, False
        if self.slo.should_force_sample(fingerprint) or (
            self.trace_sample_rate > 0.0
            and random.random() < self.trace_sample_rate
        ):
            return _context.new_trace(sampled=True), True
        return None, False

    def submit(self, fingerprint: str, x: np.ndarray) -> Future:
        """Asynchronous ``y = A·x``; coalesces with concurrent calls."""
        return self._request(fingerprint, x, self.scheduler.submit)

    def spmv(self, fingerprint: str, x: np.ndarray) -> np.ndarray:
        """Synchronous ``y = A·x``.

        On an idle matrix the request runs at once on this thread
        (:meth:`BatchScheduler.call`), so a solver's dependent matvecs
        never wait for the flush deadline or a worker; a request that
        finds the matrix busy joins its pending batch."""
        return self._request(fingerprint, x, self.scheduler.call).result()

    def _request(self, fingerprint: str, x: np.ndarray,
                 enqueue) -> Future:
        """One request through ``enqueue`` (the scheduler's ``submit``
        or ``call``) under its trace context."""
        entry = self.registry.get(fingerprint)
        ctx, created = self._request_context(fingerprint)
        if ctx is None or not ctx.sampled:
            # (a minted context is always sampled, so ctx here is the
            # caller's own — no install needed, enqueue sees it too)
            with _span("serve.request", fingerprint=fingerprint):
                return enqueue(entry, x)
        # Sampled request: everything downstream (scheduler enqueue,
        # batch) runs under a context whose span *is* the
        # "serve.request" boundary span, recorded when the future
        # resolves. An inbound context stays the tree's parent: the
        # boundary span links onto it, so a caller that records its own
        # span slots in above.
        root_ctx = ctx if created else ctx.child()
        parent_id = "" if created else ctx.span_id
        t_wall, t0 = time.time(), time.perf_counter()
        with _context.use(root_ctx):
            fut = enqueue(entry, x)

        def _finish(f: Future) -> None:
            _trace.emit(
                "serve.request", root_ctx, t_wall,
                time.perf_counter() - t0, as_child=False,
                parent_id=parent_id, fingerprint=fingerprint,
                error=type(f.exception()).__name__
                if f.exception() is not None else "",
            )

        fut.add_done_callback(_finish)
        return fut

    # ---------------------------------------------------- observability
    def slow_requests(self) -> list[dict]:
        """Recent SLO outliers (oldest first), JSON-shaped."""
        return [s.to_json() for s in self.slo.slow_samples()]

    def perf_report(self) -> dict:
        """Roofline-observability summary (the ``/v1/debug/perf``
        body): measured-ceilings envelope, per-matrix roofline
        fractions, watchdog baselines and regression events."""
        report: dict = {
            "perf_watch": self.watchdog is not None,
            "ceilings": (self.ceilings.to_json()
                         if self.ceilings is not None else None),
            "host": _perf.host_fingerprint(),
        }
        if self.watchdog is not None:
            report.update(self.watchdog.report())
        return report

    # -------------------------------------------------------- lifecycle
    def describe(self) -> dict:
        """Service health summary (the ``/healthz`` body)."""
        d = self.registry.describe()
        d.update(
            status="closed" if self._closed else "ok",
            queued=self.scheduler.queued,
            workers=self.pool.n_workers,
            max_batch=self.scheduler.max_batch,
        )
        return d

    def drain(self) -> None:
        """Flush pending batches and wait for in-flight work."""
        self.scheduler.drain()

    def close(self) -> None:
        """Graceful shutdown: drain the scheduler, stop the pool.

        A drain that times out still releases the pool and the sampler
        (the pool without waiting on the stuck batch) before its
        :class:`ServeError` propagates.
        """
        if self._closed:
            return
        self._closed = True
        drained = False
        try:
            if self.scheduler is not None:
                self.scheduler.close()
            drained = True
        finally:
            if self.pool is not None:
                self.pool.shutdown(drain=drained)
            if self._sampler is not None:
                _perf.stop_sampler()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["ServeClient", "ServeError"]
