"""Shard worker process: hold slabs, compute, heartbeat, reply.

Each shard is a long-lived process the :class:`~repro.dist.group.
ShardGroup` forks once. Its loop is a tiny command interpreter over a
pipe — ``register`` (attach a slab's shared segments), ``compute``
(SpMV/SpMM over the resident row slab into the shared destination
buffer), ``unregister``, ``exit``. The slab itself never travels over
the pipe: after registration a compute request is a ~100-byte tuple,
the process-level analogue of the paper's "pin the slab to the core
that first touched it" discipline.

Protocol (parent → shard / shard → parent)::

    ("register", mid, payload)        -> ("ok", "register", mid, id[, tele])
    ("compute", mid, k, seq[, tctx])  -> ("done", mid, seq, seconds[, tele])
                                       | ("err", mid, seq, message[, tele])
    ("unregister", mid)               -> ("ok", "unregister", mid, id[, tele])
    ("exit",)                         -> (no reply; process exits 0)

``seq`` tags each dispatch round so the parent can discard stale
replies after a respawn-and-retry cycle. ``tctx`` (optional) is a
propagated :class:`~repro.observe.context.TraceContext` dict: when
present and sampled, the shard records a ``shard.compute`` span.

The control pipe is the shard's only channel home, telemetry included.
At start the child empties the registry it inherited from the fork and
makes a plain list its span sink; every reply then carries ``tele`` =
``{"metrics": <registry drained since the last reply>, "spans": [...]}``
(each part omitted when empty, the whole element when both are). A
child records metrics only while it handles a message, and every
message but ``exit`` is answered, so nothing is left behind to flush.
"""

from __future__ import annotations

import signal
import threading
import time

from ..formats.multivector import spmm
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..observe import trace as _trace
from ..observe.perf.attribution import KernelCounts as _KernelCounts
from ..observe.perf.attribution import observe_kernel as _observe_kernel
from .shm import SegmentSpec, attach_array, attach_csr


class _ResidentMatrix:
    """One registered row slab as seen from inside a shard."""

    def __init__(self, payload: dict):
        self.lo = payload["lo"]                  # this shard owns rows
        self.hi = payload["hi"]                  # [lo, hi) of y
        self.backend = payload.get("backend", "numpy")
        self.slab, self._slab_handles = attach_csr(payload["slab"])
        self.x, self._hx = attach_array(payload["x"])    # (ncols, k_cap)
        self.y, self._hy = attach_array(payload["y"])    # (nrows, k_cap)
        # Flop/byte counts of this slab, computed once at registration:
        # the compute hot path attributes each round against them
        # without re-walking the footprint.
        self.counts = _KernelCounts.for_matrix(self.slab)

    def compute(self, k: int) -> None:
        x = self.x[:, :k]
        y = self.y[self.lo:self.hi, :k]
        y[...] = 0.0
        if self.backend == "c":
            # Parent resolved the backend, but this process may still
            # lack the compiler (exec'd children, changed env): resolve
            # "auto" so the slab degrades to NumPy rather than failing
            # the compute round. The raw kernels are called directly —
            # _run_compute attributes the round with the shard label,
            # so the emitting spmm_backend wrapper would double-count.
            from ..kernels.registry import resolve_backend

            if resolve_backend("auto") == "c":
                from ..kernels.cbackend import spmm_c

                spmm_c(self.slab, x, y)
                return
        # spmm's k==1 path is the exact single-vector spmv kernel, so
        # row slabs concatenate bit-identically to serial spmv.
        spmm(self.slab, x, y)

    def close(self) -> None:
        for h in (*self._slab_handles, self._hx, self._hy):
            try:
                h.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


def _beat(spec: SegmentSpec, shard_id: int, interval_s: float,
          stop: threading.Event) -> None:
    """Daemon thread: stamp liveness even while the main loop computes."""
    hb, handle = attach_array(spec)
    try:
        while not stop.is_set():
            hb[shard_id] = time.monotonic()
            stop.wait(interval_s)
    finally:
        handle.close()


def _run_compute(resident: _ResidentMatrix, shard_id: int, mid: str,
                 k: int, tctx: dict | None) -> float:
    """One compute round, with child-side accounting and (when the
    propagated context is sampled) a ``shard.compute`` span."""
    ctx = _context.from_dict(tctx)
    t0 = time.perf_counter()
    if ctx is not None and ctx.sampled:
        with _context.use(ctx):
            with _trace.span("shard.compute", shard=shard_id,
                             fingerprint=mid, k=k):
                resident.compute(k)
    else:
        resident.compute(k)
    dt = time.perf_counter() - t0
    _metrics.inc("dist.child_computes", shard=shard_id)
    _metrics.observe("dist.child_compute_seconds", dt, shard=shard_id)
    # Roofline attribution against the slab this shard actually holds;
    # ceilings were configured in the parent before the fork, so the
    # fraction is computed against the measured host roofline. The
    # perf.* histograms ride the reply to the parent's /metrics.
    _observe_kernel(resident.slab, dt, k=k, backend=resident.backend,
                    shard=shard_id, counts=resident.counts)
    return dt


def _telemetry(spans: list) -> dict:
    """What this child recorded since its previous reply, drained."""
    tele: dict = {}
    metrics = _metrics.get_registry().drain_flat()
    if metrics:
        tele["metrics"] = metrics
    if spans:
        tele["spans"] = spans[:]
        spans.clear()
    return tele


def shard_main(shard_id: int, conn, hb_spec: SegmentSpec,
               hb_interval_s: float) -> None:
    """Entry point of a shard worker process."""
    # Shards share the terminal's foreground process group, so a Ctrl-C
    # aimed at the parent would interrupt conn.recv() with a traceback.
    # Shutdown is always parent-coordinated (an "exit" message, or
    # terminate() from the cleanup path) — ignore SIGINT here.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    # Fork copied the parent's registry and span sink (its TraceHub).
    # Start from nothing, so each reply carries only this child's own
    # growth, and keep spans in a list the next reply empties.
    _metrics.get_registry().reset()
    spans: list = []
    _trace.set_span_sink(spans.append)

    def reply(*msg) -> None:
        tele = _telemetry(spans)
        conn.send((*msg, tele) if tele else msg)

    stop = threading.Event()
    threading.Thread(
        target=_beat, args=(hb_spec, shard_id, hb_interval_s, stop),
        name=f"shard-{shard_id}-heartbeat", daemon=True,
    ).start()
    resident: dict[str, _ResidentMatrix] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone; exit quietly
            op = msg[0]
            if op == "exit":
                break
            if op == "register":
                _, mid, payload = msg
                old = resident.pop(mid, None)
                if old is not None:
                    old.close()
                resident[mid] = _ResidentMatrix(payload)
                reply("ok", "register", mid, shard_id)
            elif op == "unregister":
                _, mid = msg
                old = resident.pop(mid, None)
                if old is not None:
                    old.close()
                reply("ok", "unregister", mid, shard_id)
            elif op == "compute":
                mid, k, seq = msg[1], msg[2], msg[3]
                tctx = msg[4] if len(msg) > 4 else None
                try:
                    dt = _run_compute(resident[mid], shard_id, mid,
                                      int(k), tctx)
                except Exception as exc:
                    reply("err", mid, seq,
                          f"{type(exc).__name__}: {exc}")
                else:
                    reply("done", mid, seq, dt)
            else:
                reply("err", None, None, f"unknown op {op!r}")
    finally:
        stop.set()
        for m in resident.values():
            m.close()
        try:
            conn.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
