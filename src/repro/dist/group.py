"""Persistent shard group: lifecycle, registration, dispatch, gather.

:class:`ShardGroup` is the process-level analogue of the paper's
NUMA-aware pinned-slab design. It forks N long-lived shard workers
once; registering a matrix row-partitions it with
:func:`~repro.parallel.partition.partition_rows_balanced`, ships each
slab exactly once into shared-memory segments, and from then on every
SpMV/SpMM is a broadcast of tiny control messages — no fork, no
pickle, no slab copy on the request path. This is precisely the
re-distribution anti-pattern the paper's OSKI-PETSc baseline loses to,
inverted: distribute once, compute forever.

Each shard owns a contiguous nnz-balanced row slab and writes its rows
of the shared destination buffer directly, so results are
bit-identical to serial ``csr.spmv`` (per-row reductions see the same
operands in the same order regardless of slab boundaries).

Degradation: without the ``fork`` start method (or with fewer than two
shards, or for degenerate matrices) the group runs serially in-process
through the exact same API — documented behaviour, counted by
``dist.serial_fallbacks``.

Fault tolerance: a shard death (crash, SIGKILL, hang past the compute
deadline) raises internally, the group respawns the worker, re-ships
its resident slabs (a re-attach — the parent still owns the segments,
so no data is recopied), and retries the dispatch under the bounded
:class:`~repro.dist.fault.RetryPolicy`. ``dist.respawns``,
``dist.reships`` and ``dist.retries`` count the recoveries.

Observability: one channel per shard. Every reply a shard sends on
its control pipe carries the metrics it recorded since its previous
reply and the spans it completed (see :mod:`repro.dist.shard`);
:meth:`ShardGroup._recv_matching` folds both into this process — the
metrics into the registry, the spans into the span sink — for every
message it reads, stale ones included. So when ``spmv`` returns, the
shards' counters for that call are on ``/metrics`` and, when the
caller's :class:`~repro.observe.context.TraceContext` is sampled
(``compute`` dispatches carry it), their ``shard.compute`` spans are
in the hub. A respawned shard needs no extra plumbing: its pipe is its
channel. Per-dispatch ``dist.phase_seconds`` and the
``dist.compute_imbalance`` gauge attribute where group time goes.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import threading
import time
import weakref

import numpy as np

from ..errors import DistError, ShardDeadError
from ..formats.convert import coo_to_csr
from ..formats.csr import CSRMatrix
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..observe import trace as _trace
from ..observe.trace import span as _span
from ..parallel.partition import RowPartition, partition_rows_balanced
from ..solvers.operator import FingerprintOperator
from .fault import HeartbeatMonitor, RetryPolicy
from .shard import shard_main
from .shm import SegmentArena


class _ShardHandle:
    """Parent-side view of one worker: process + control pipe."""

    def __init__(self, shard_id: int, proc, conn):
        self.id = shard_id
        self.proc = proc
        self.conn = conn
        #: Fingerprints whose slabs this worker has acked.
        self._shipped: set[str] = set()

    def alive(self) -> bool:
        return self.proc.is_alive()


class _ShardedMatrix:
    """One registered matrix: partition, segments, per-shard payloads."""

    def __init__(self, fingerprint: str, shape: tuple[int, int]):
        self.fingerprint = fingerprint
        self.shape = shape
        self.part: RowPartition | None = None
        self.active: list[int] = []
        self.arena = SegmentArena()
        self.x_view: np.ndarray | None = None
        self.y_view: np.ndarray | None = None
        self.payloads: dict[int, dict] = {}
        self.csr: CSRMatrix | None = None          # serial fallback
        self.k_cap = 1

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]


def _absorb(tele: dict) -> None:
    """Fold the telemetry a shard reply carries into this process."""
    metrics = tele.get("metrics")
    if metrics:
        _metrics.get_registry().merge_flat(metrics)
    sink = _trace.get_span_sink()
    if sink is not None:
        for event in tele.get("spans", ()):
            sink(event)


_LIVE_GROUPS: "weakref.WeakSet[ShardGroup]" = weakref.WeakSet()


@atexit.register
def _close_live_groups() -> None:  # pragma: no cover - interpreter exit
    for group in list(_LIVE_GROUPS):
        try:
            group.close()
        except Exception:
            pass


def _cleanup(monitor, shards: list, records: dict, hb_arena) -> None:
    """Last-resort teardown shared by ``close()``, the per-group
    ``weakref.finalize``, and the atexit sweep: stop the monitor, kill
    workers, unlink every owned segment. Must not reference the group.
    """
    if monitor is not None:
        monitor.stop()
    for h in shards:
        try:
            if h.proc.is_alive():
                h.proc.terminate()
                h.proc.join(timeout=1.0)
            if h.proc.is_alive():  # pragma: no cover - stuck worker
                h.proc.kill()
                h.proc.join(timeout=1.0)
            h.conn.close()
        except Exception:
            pass
    for rec in records.values():
        rec.arena.unlink_all()
    records.clear()
    hb_arena.unlink_all()


class ShardGroup:
    """N long-lived shard workers executing registered matrices."""

    def __init__(
        self,
        n_shards: int,
        *,
        k_cap: int = 8,
        heartbeat_interval_s: float = 0.2,
        compute_timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        backend: str = "numpy",
    ):
        from ..kernels.registry import resolve_backend

        if n_shards < 1:
            raise DistError(f"n_shards must be >= 1, got {n_shards}")
        if k_cap < 1:
            raise DistError(f"k_cap must be >= 1, got {k_cap}")
        self.n_shards = n_shards
        self.k_cap = k_cap
        # Resolved in the parent; shipped to workers inside each slab
        # payload. Compiled objects are built/validated per process
        # (the cache on disk makes the children's builds a no-op).
        self.backend = resolve_backend(backend)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.compute_timeout_s = compute_timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.serial = (
            n_shards < 2 or "fork" not in mp.get_all_start_methods()
        )
        self._lock = threading.RLock()
        self._records: dict[str, _ShardedMatrix] = {}
        self._shards: list[_ShardHandle] = []
        self._seq = itertools.count(1)
        self._closed = False
        self._hb_arena = SegmentArena()
        if self.serial:
            _metrics.inc("dist.serial_fallbacks")
            self._hb_view, self._hb_spec = self._hb_arena.create(
                (1,), np.float64
            )
            self._monitor = None
        else:
            self._ctx = mp.get_context("fork")
            self._hb_view, self._hb_spec = self._hb_arena.create(
                (n_shards,), np.float64
            )
            for i in range(n_shards):
                self._shards.append(self._spawn(i))
            self._monitor = HeartbeatMonitor(self, heartbeat_interval_s)
            self._monitor.start()
        self._finalizer = weakref.finalize(
            self, _cleanup, self._monitor, self._shards, self._records,
            self._hb_arena,
        )
        _LIVE_GROUPS.add(self)
        _metrics.inc("dist.groups_started")
        _metrics.gauge("dist.shards_alive", 0 if self.serial
                       else n_shards)

    # -------------------------------------------------------- lifecycle
    def _spawn(self, shard_id: int) -> _ShardHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._hb_view[shard_id] = time.monotonic()
        proc = self._ctx.Process(
            target=shard_main,
            args=(shard_id, child_conn, self._hb_spec,
                  self.heartbeat_interval_s),
            name=f"dist-shard-{shard_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        _metrics.inc("dist.shards_spawned")
        return _ShardHandle(shard_id, proc, parent_conn)

    def close(self) -> None:
        """Graceful shutdown: exit workers, then unlink every segment.

        Also runs (abruptly, via the finalizer/atexit path) when a
        group is garbage-collected or the parent exits without calling
        it — shared memory must never outlive the parent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for h in self._shards:
            try:
                h.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for h in self._shards:
            h.proc.join(timeout=max(deadline - time.monotonic(), 0.1))
        self._finalizer()   # idempotent: terminate stragglers + unlink
        _metrics.gauge("dist.shards_alive", 0)
        _metrics.gauge("dist.registered_matrices", 0)

    def __enter__(self) -> "ShardGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------- registration
    def register(self, matrix, *, fingerprint: str | None = None) -> str:
        """Partition, ship slabs once, return the matrix handle.

        ``matrix`` is any :class:`~repro.formats.base.SparseFormat`;
        slabs are always executed as CSR (the paper's row-decomposition
        substrate). Registration is idempotent per fingerprint.
        """
        coo = matrix.to_coo()
        fp = fingerprint if fingerprint is not None \
            else coo.content_fingerprint()
        with self._lock:
            if self._closed:
                raise DistError("shard group is closed")
            if fp in self._records:
                _metrics.inc("dist.register_rehits")
                return fp
            rec = _ShardedMatrix(fp, coo.shape)
            csr = matrix if isinstance(matrix, CSRMatrix) \
                else coo_to_csr(coo)
            degenerate = (coo.nrows == 0 or coo.ncols == 0
                          or coo.nnz_stored == 0)
            if self.serial or degenerate:
                rec.csr = csr
                if degenerate and not self.serial:
                    _metrics.inc("dist.serial_fallbacks")
                self._records[fp] = rec
            else:
                with _span("dist.register", fingerprint=fp,
                           nnz=coo.nnz_logical, shards=self.n_shards):
                    self._build_record(rec, coo, csr)
                    self._records[fp] = rec
                    attempt = 0
                    while True:
                        try:
                            for sid in rec.active:
                                if fp not in self._shards[sid]._shipped:
                                    self._ship(self._shards[sid], rec)
                            break
                        except ShardDeadError:
                            attempt += 1
                            _metrics.inc("dist.retries")
                            if attempt > self.retry.max_retries:
                                del self._records[fp]
                                rec.arena.unlink_all()
                                raise
                            self._revive_dead_locked()
                            time.sleep(self.retry.delay(attempt))
            _metrics.inc("dist.matrices_registered")
            _metrics.gauge("dist.registered_matrices",
                           len(self._records))
        return fp

    def _build_record(self, rec: _ShardedMatrix, coo,
                      csr: CSRMatrix) -> None:
        """Partition + create segments + one-time slab ship (copies)."""
        rec.k_cap = self.k_cap
        n_active = min(self.n_shards, coo.nrows)
        rec.part = partition_rows_balanced(coo, n_active)
        rec.active = list(range(n_active))
        _metrics.gauge("dist.partition_imbalance", rec.part.imbalance,
                       fingerprint=rec.fingerprint)
        rec.x_view, x_spec = rec.arena.create(
            (coo.ncols, self.k_cap), np.float64
        )
        rec.y_view, y_spec = rec.arena.create(
            (coo.nrows, self.k_cap), np.float64
        )
        for sid, (lo, hi) in enumerate(rec.part.ranges()):
            rec.payloads[sid] = {
                "lo": lo,
                "hi": hi,
                "slab": rec.arena.ship_csr(csr.row_slice(lo, hi)),
                "x": x_spec,
                "y": y_spec,
                "backend": self.backend,
            }
            _metrics.inc("dist.slab_ships")

    def _ship(self, handle: _ShardHandle, rec: _ShardedMatrix,
              *, reship: bool = False) -> None:
        """Send one shard its register message and await the ack."""
        fp = rec.fingerprint
        try:
            handle.conn.send(("register", fp, rec.payloads[handle.id]))
        except (BrokenPipeError, OSError) as exc:
            raise ShardDeadError(
                f"shard {handle.id} died during slab ship"
            ) from exc
        self._recv_matching(
            handle,
            lambda m: m[0] == "ok" and m[1] == "register" and m[2] == fp,
        )
        handle._shipped.add(fp)
        if reship:
            _metrics.inc("dist.reships")

    def unregister(self, fingerprint: str) -> None:
        """Drop a matrix: free its segments, notify live shards."""
        with self._lock:
            rec = self._records.pop(fingerprint, None)
            if rec is None:
                return
            for sid in rec.active:
                h = self._shards[sid]
                try:
                    h.conn.send(("unregister", fingerprint))
                    self._recv_matching(
                        h, lambda m: (m[0] == "ok"
                                      and m[1] == "unregister"
                                      and m[2] == fingerprint),
                        timeout=2.0,
                    )
                    h._shipped.discard(fingerprint)
                except (ShardDeadError, BrokenPipeError, OSError):
                    pass    # a dead shard re-ships only live records
            rec.arena.unlink_all()
            _metrics.gauge("dist.registered_matrices",
                           len(self._records))

    # --------------------------------------------------------- dispatch
    def _recv_matching(self, handle: _ShardHandle, pred,
                       timeout: float | None = None):
        """Next message from ``handle`` satisfying ``pred``; stale
        replies (earlier sequence numbers after a retry) are dropped,
        but the telemetry every message carries is absorbed first."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.compute_timeout_s
        )
        while True:
            if handle.conn.poll(0.02):
                try:
                    msg = handle.conn.recv()
                except (EOFError, OSError) as exc:
                    raise ShardDeadError(
                        f"shard {handle.id} died mid-dispatch"
                    ) from exc
                if len(msg) > 4:
                    _absorb(msg[4])
                if pred(msg):
                    return msg
                continue    # stale reply from a pre-respawn round
            if not handle.alive():
                raise ShardDeadError(f"shard {handle.id} is dead")
            if time.monotonic() > deadline:
                # A hung shard is indistinguishable from a dead one:
                # kill it so the revive path takes over.
                handle.proc.kill()
                handle.proc.join(timeout=1.0)
                raise ShardDeadError(
                    f"shard {handle.id} timed out after "
                    f"{self.compute_timeout_s}s"
                )

    def _compute_once(self, rec: _ShardedMatrix, k: int,
                      seq: int) -> None:
        fp = rec.fingerprint
        handles = [self._shards[sid] for sid in rec.active]
        # Propagate the caller's trace context only when it is sampled:
        # the common unsampled path keeps the dispatch tuple at its
        # 4-element steady-state shape.
        ctx = _context.current()
        tctx = ctx.to_dict() if ctx is not None and ctx.sampled \
            else None
        t0 = time.perf_counter()
        for h in handles:
            try:
                if tctx is not None:
                    h.conn.send(("compute", fp, k, seq, tctx))
                else:
                    h.conn.send(("compute", fp, k, seq))
            except (BrokenPipeError, OSError) as exc:
                raise ShardDeadError(
                    f"shard {h.id} died before dispatch"
                ) from exc
        busy: list[float] = []
        for h in handles:
            msg = self._recv_matching(
                h, lambda m: m[0] in ("done", "err")
                and m[1] == fp and m[2] == seq,
            )
            if msg[0] == "err":
                raise DistError(
                    f"shard {h.id} failed computing {fp}: {msg[3]}"
                )
            busy.append(float(msg[3]))
            _metrics.inc("dist.shard_busy_seconds", float(msg[3]),
                         shard=h.id)
        _metrics.observe("dist.phase_seconds",
                         time.perf_counter() - t0, phase="compute")
        if busy:
            mean = sum(busy) / len(busy)
            _metrics.gauge(
                "dist.compute_imbalance",
                max(busy) / mean if mean > 0 else 1.0,
            )
        _metrics.inc("dist.compute_dispatches")

    def _dispatch_locked(self, rec: _ShardedMatrix, k: int) -> None:
        """Broadcast one compute round, reviving + retrying on death."""
        attempt = 0
        while True:
            seq = next(self._seq)
            try:
                self._compute_once(rec, k, seq)
                return
            except ShardDeadError as exc:
                attempt += 1
                _metrics.inc("dist.retries")
                if attempt > self.retry.max_retries:
                    raise DistError(
                        f"dispatch of {rec.fingerprint} failed after "
                        f"{attempt} attempts: {exc}"
                    ) from exc
                self._revive_dead_locked()
                time.sleep(self.retry.delay(attempt))

    def _revive_dead_locked(self) -> None:
        """Respawn dead shards and re-ship their resident slabs.

        The segments still exist (the parent owns them), so a re-ship
        is a re-attach: register messages only, no slab copy.
        """
        for i, h in enumerate(self._shards):
            if h.alive():
                continue
            try:
                h.conn.close()
            except Exception:
                pass
            nh = self._spawn(i)
            self._shards[i] = nh
            _metrics.inc("dist.respawns")
            for rec in self._records.values():
                if rec.csr is not None or i not in rec.active:
                    continue
                self._ship(nh, rec, reship=True)
        _metrics.gauge(
            "dist.shards_alive",
            sum(1 for h in self._shards if h.alive()),
        )

    # ---------------------------------------------------------- compute
    def spmv(self, fingerprint: str, x: np.ndarray) -> np.ndarray:
        """``y = A·x`` across the shards, bit-identical to serial
        ``csr.spmv``."""
        with self._lock:
            rec = self._require(fingerprint)
            x = np.asarray(x, dtype=np.float64)
            if x.shape != (rec.ncols,):
                raise DistError(
                    f"x has shape {x.shape}, expected ({rec.ncols},)"
                )
            _metrics.inc("dist.spmv_calls")
            if rec.csr is not None:
                from ..kernels.registry import spmv_backend

                return spmv_backend(rec.csr, x, backend=self.backend)
            with _span("dist.spmv", fingerprint=fingerprint,
                       shards=len(rec.active)):
                rec.x_view[:, 0] = x
                self._dispatch_locked(rec, 1)
                return self._gather(rec, 1)[:, 0]

    def spmm(self, fingerprint: str, x_block: np.ndarray) -> np.ndarray:
        """``Y = A·X`` for ``X`` of shape ``(ncols, k)``; batches wider
        than ``k_cap`` stream through in chunks (one matrix sweep per
        chunk per shard)."""
        with self._lock:
            rec = self._require(fingerprint)
            x_block = np.asarray(x_block, dtype=np.float64)
            if x_block.ndim != 2 or x_block.shape[0] != rec.ncols:
                raise DistError(
                    f"X must have shape ({rec.ncols}, k), "
                    f"got {x_block.shape}"
                )
            k = x_block.shape[1]
            _metrics.inc("dist.spmm_calls")
            _metrics.observe("dist.batch_k", k)
            if rec.csr is not None:
                from ..kernels.registry import spmm_backend

                return spmm_backend(rec.csr, x_block,
                                    backend=self.backend)
            out = np.empty((rec.nrows, k), dtype=np.float64)
            with _span("dist.spmm", fingerprint=fingerprint, k=k,
                       shards=len(rec.active)):
                for j0 in range(0, k, rec.k_cap):
                    kk = min(rec.k_cap, k - j0)
                    rec.x_view[:, :kk] = x_block[:, j0:j0 + kk]
                    self._dispatch_locked(rec, kk)
                    out[:, j0:j0 + kk] = self._gather(rec, kk)
            return out

    def _gather(self, rec: _ShardedMatrix, k: int) -> np.ndarray:
        t0 = time.perf_counter()
        out = rec.y_view[:, :k].copy()
        _metrics.observe("dist.phase_seconds",
                         time.perf_counter() - t0, phase="gather")
        return out

    def _require(self, fingerprint: str) -> _ShardedMatrix:
        if self._closed:
            raise DistError("shard group is closed")
        rec = self._records.get(fingerprint)
        if rec is None:
            raise DistError(
                f"unknown matrix fingerprint {fingerprint!r}; "
                f"register it with the shard group first"
            )
        return rec

    # -------------------------------------------------------- operators
    def operator(self, fingerprint: str) -> FingerprintOperator:
        """Solver-protocol handle (``shape``/``spmv``/``__call__``)."""
        rec = self._require(fingerprint)
        return FingerprintOperator(self, fingerprint, rec.shape)

    # ------------------------------------------------------- monitoring
    def _heartbeat_scan(self) -> None:
        """Export liveness gauges; respawn dead shards when idle."""
        if self.serial or self._closed:
            return
        now = time.monotonic()
        dead = 0
        for i, h in enumerate(self._shards):
            alive = h.alive()
            dead += not alive
            _metrics.gauge("dist.heartbeat_age",
                           max(now - float(self._hb_view[i]), 0.0),
                           shard=i)
        _metrics.gauge("dist.shards_alive", self.n_shards - dead)
        if dead and self._lock.acquire(blocking=False):
            # A dispatch in flight will revive synchronously; only
            # repair proactively when nothing else holds the group.
            try:
                if not self._closed:
                    self._revive_dead_locked()
            except Exception:
                _metrics.inc("dist.monitor_revive_errors")
            finally:
                self._lock.release()

    def shard_pids(self) -> list[int]:
        """Live worker PIDs (test/chaos hooks: pick one and kill it)."""
        with self._lock:
            return [h.proc.pid for h in self._shards]

    def describe(self) -> dict:
        with self._lock:
            return {
                "n_shards": self.n_shards,
                "serial": self.serial,
                "k_cap": self.k_cap,
                "backend": self.backend,
                "alive": (0 if self.serial else
                          sum(1 for h in self._shards if h.alive())),
                "matrices": len(self._records),
                "shm_bytes": sum(
                    r.arena.total_bytes for r in self._records.values()
                ),
            }

