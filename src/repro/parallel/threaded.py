"""Thread-pool SpMV over the GIL-free compiled kernels.

NumPy kernels hold the GIL, so threads over them only time-slice (the
process-level answer is the persistent shard tier, :mod:`repro.dist`).
The compiled CSR kernels in :mod:`repro.kernels.cbackend` release it
(``ctypes`` drops the GIL for the duration of every foreign call), so
plain threads become a real parallel path: no fork, no copy-on-write
pages, no result shipping — each thread runs the kernel over a disjoint
``[r0, r1)`` row range of the *same* matrix, writing disjoint slices of
one shared destination.

Row ranges come from the same nonzero-balanced partitioner the rest of
the parallel tier uses (the paper's static load-balancing strategy).
Without a compiler (``REPRO_DISABLE_CC=1``) the call degrades to the
serial NumPy kernel, counted in ``threaded.serial_fallbacks``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import PartitionError
from ..formats.csr import CSRMatrix
from ..kernels.cbackend.build import CBackendUnavailable
from ..kernels.cbackend.dispatch import program_for
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..observe import trace as _trace
from ..observe.perf.attribution import observe_kernel as _observe_kernel
from ..observe.trace import span as _span
from .partition import RowPartition, partition_rows_balanced


class _RowCountsView:
    """Adapter so the COO-based partitioner can read a CSR directly
    (row counts are just ``diff(indptr)`` — no conversion needed)."""

    def __init__(self, csr: CSRMatrix):
        self.nrows = csr.nrows
        self._counts = np.diff(csr.indptr)

    def row_counts(self) -> np.ndarray:
        return self._counts


def _plan_threads(csr: CSRMatrix, n_threads: int | None,
                  min_nnz_per_thread: int) -> int:
    if n_threads is None:
        n_threads = os.cpu_count() or 1
    per_thread_cap = (csr.nnz_stored // min_nnz_per_thread
                      if csr.nnz_stored else 1)
    return max(1, min(n_threads, per_thread_cap, csr.nrows or 1))


def _resolve_partition(csr: CSRMatrix, partition: RowPartition | None,
                       n_threads: int) -> RowPartition:
    if partition is None:
        return partition_rows_balanced(_RowCountsView(csr), n_threads)
    if partition.n_parts != n_threads:
        raise PartitionError(
            f"partition has {partition.n_parts} parts, "
            f"expected {n_threads}"
        )
    return partition


def _run_ranges(ranges, run_one, n_threads: int) -> np.ndarray:
    """Execute ``run_one(r0, r1)`` across a pool; returns per-thread
    wall seconds (for the imbalance gauge).

    Pool threads don't inherit the submitter's contextvars, so the
    trace context is captured here; under a sampled one each worker's
    slab gets its own span (via :func:`~repro.observe.trace.emit` —
    the worker ran outside the context's execution context).
    """
    secs = np.empty(len(ranges), dtype=np.float64)
    ctx = _context.current()
    sampled = ctx is not None and ctx.sampled \
        and _trace.get_span_sink() is not None

    def timed(i: int) -> None:
        wall0 = time.time()
        t0 = time.perf_counter()
        run_one(*ranges[i])
        secs[i] = time.perf_counter() - t0
        if sampled:
            _trace.emit("threaded.worker", ctx, wall0, secs[i],
                        worker=i, rows=list(map(int, ranges[i])))

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        # list() propagates the first worker exception, if any.
        list(pool.map(timed, range(len(ranges))))
    return secs


def _record(secs: np.ndarray, s) -> None:
    _metrics.inc("threaded.calls")
    for elapsed in secs:
        _metrics.observe("threaded.worker_seconds", float(elapsed))
    mean = float(secs.mean())
    imbalance = float(secs.max()) / mean if mean > 0 else 1.0
    # Gauge: the latest call, cheap to eyeball; histogram: the
    # distribution over calls, mergeable across processes.
    _metrics.gauge("threaded.last_imbalance", imbalance)
    _metrics.observe("threaded.imbalance", imbalance)
    s.set(imbalance=round(imbalance, 3))


def threaded_spmv(
    csr: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray | None = None,
    *,
    n_threads: int | None = None,
    partition: RowPartition | None = None,
    min_nnz_per_thread: int = 25_000,
) -> np.ndarray:
    """``y ← y + A·x`` with one thread per nnz-balanced row slab.

    ``n_threads`` defaults to the CPU count, clamped so each thread
    gets at least ``min_nnz_per_thread`` nonzeros; ``partition`` is an
    optional pre-computed row partition with that many parts. Results
    match the serial compiled kernel bitwise — each row is summed by
    exactly one thread in the same order — and match ``csr.spmv`` to
    ~1e-15. With one slab or no compiler it runs the serial NumPy
    kernel instead.
    """
    x, y = csr._check_spmv_args(x, y)
    n = _plan_threads(csr, n_threads, min_nnz_per_thread)
    leaf = None
    if n > 1:
        try:
            leaf = program_for(csr).leaves[0]
        except CBackendUnavailable:
            pass
    if leaf is None:
        _metrics.inc("threaded.serial_fallbacks")
        with _span("threaded.spmv", threads=1, nnz=csr.nnz_stored):
            return csr.spmv(x, y)
    part = _resolve_partition(csr, partition, n)
    xc = np.ascontiguousarray(x)
    yc = y if y.flags.c_contiguous else np.ascontiguousarray(y)
    x_addr, y_addr = xc.ctypes.data, yc.ctypes.data

    def run_one(r0: int, r1: int) -> None:
        leaf.spmv(x_addr, y_addr, r0, r1)

    with _span("threaded.spmv", threads=n, nnz=csr.nnz_stored) as s:
        t0 = time.perf_counter()
        secs = _run_ranges(part.ranges(), run_one, n)
        _observe_kernel(csr, time.perf_counter() - t0, backend="threaded")
        _record(secs, s)
    if yc is not y:
        y[...] = yc
    return y
