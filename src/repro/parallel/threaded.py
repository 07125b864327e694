"""Row-slab SpMV on the compiled backend's thread team.

:func:`threaded_spmv` runs one CSR matrix as ``n`` row slabs from the
same nonzero-balanced partitioner the rest of the parallel tier uses
(the paper's static load-balancing strategy). Each slab is one entry
``[r0, r1)`` of the matrix's compiled CSR leaf in a row panel of its
own, so all of them run in one call on the persistent thread team of
:mod:`repro.kernels.cbackend.program`: no fork, no pool per call, no
result shipping — each slot writes disjoint rows of one shared
destination, and each row is summed by one thread in serial order.

Without a compiler (``REPRO_DISABLE_CC=1``) the call degrades to the
serial NumPy kernel, counted in ``threaded.serial_fallbacks``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..errors import PartitionError
from ..formats.csr import CSRMatrix
from ..kernels.cbackend.build import CBackendUnavailable
from ..kernels.cbackend.dispatch import program_for
from ..kernels.cbackend.program import LeafTable, team_limit
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..observe import trace as _trace
from ..observe.perf.attribution import observe_kernel as _observe_kernel
from ..observe.trace import span as _span
from .partition import RowPartition, partition_counts_balanced


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
        return partition_counts_balanced(np.diff(csr.indptr), n_threads)
    if partition.n_parts != n_threads:
        raise PartitionError(
            f"partition has {partition.n_parts} parts, "
            f"expected {n_threads}"
        )
    return partition


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
    """``y ← y + A·x`` as nnz-balanced row slabs on the thread team.

    ``n_threads`` (the slab count) defaults to the CPU count, clamped
    so each slab gets at least ``min_nnz_per_thread`` nonzeros;
    ``partition`` is an optional pre-computed row partition with that
    many parts. The slabs run on at most as many team threads as this
    process has CPUs. Results match the serial compiled kernel bitwise
    — each row is summed by exactly one thread in the same order — and
    match ``csr.spmv`` to ~1e-15. With one slab or no compiler it runs
    the serial NumPy kernel instead.
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
    table = LeafTable(
        [leaf.entry(0, 0, lo=r0, hi=r1) for r0, r1 in part.ranges()],
        list(range(n + 1)), part.nnz_per_part, team_limit(), 0)
    xc = np.ascontiguousarray(x)
    yc = y if y.flags.c_contiguous else np.ascontiguousarray(y)
    secs = np.zeros(table.width)
    with _span("threaded.spmv", threads=n, nnz=csr.nnz_stored) as s:
        wall0 = time.time()
        t0 = time.perf_counter()
        used = table.run(xc, yc, secs)
        _observe_kernel(csr, time.perf_counter() - t0, backend="threaded")
        _record(secs[:used], s)
        ctx = _context.current()
        if ctx is not None and ctx.sampled \
                and _trace.get_span_sink() is not None:
            # One span per slot, from the seconds the runner wrote; a
            # busy team ran every slab in slot 0.
            slots = table.slots if used > 1 else [0, n]
            for i in range(used):
                rows = part.bounds[slots[i]], part.bounds[slots[i + 1]]
                _trace.emit("threaded.worker", ctx, wall0, float(secs[i]),
                            worker=i, rows=list(map(int, rows)))
    if yc is not y:
        y[...] = yc
    return y
