#!/usr/bin/env python3
"""Real parallel SpMV on *this* machine (not the 2007 models).

Uses the threaded path over the GIL-free compiled kernels with the
paper's nnz-balanced row partitioning to measure actual wall-clock
speedups on the host, and contrasts balanced vs equal-rows
partitioning the way §6.2 contrasts the Pthreads code with PETSc's
default distribution.

Run: ``python examples/native_scaling.py``
"""

import os
import time

import numpy as np

from repro import generate
from repro.analysis import format_table
from repro.formats import coo_to_csr
from repro.parallel import (
    partition_rows_balanced,
    partition_rows_equal,
    threaded_spmv,
)

SCALE = 0.4


def timeit(fn, *args, repeats=3, **kw):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main() -> None:
    coo = generate("Tunnel", scale=SCALE, seed=0)
    csr = coo_to_csr(coo)
    x = np.random.default_rng(0).standard_normal(coo.ncols)
    print(f"Tunnel at scale {SCALE}: {coo.nnz_logical:,} nonzeros, "
          f"host has {os.cpu_count()} CPU(s)")

    t_serial, y_ref = timeit(csr.spmv, x)
    rows = [["serial", 1, t_serial * 1e3, 1.0]]
    for threads in (2, 4):
        if threads > (os.cpu_count() or 1):
            break
        t_par, y = timeit(
            threaded_spmv, csr, x, n_threads=threads,
            min_nnz_per_thread=1,
        )
        assert np.allclose(y, y_ref)
        rows.append(["threaded", threads, t_par * 1e3,
                     t_serial / t_par])
    print(format_table(
        ["backend", "threads", "best ms", "speedup"], rows,
        title="host SpMV wall-clock",
    ))

    bal = partition_rows_balanced(coo, 4)
    eq = partition_rows_equal(coo, 4)
    print(f"\n4-way partition imbalance (max/mean nnz): "
          f"balanced={bal.imbalance:.2f}, equal-rows={eq.imbalance:.2f}")
    print("(without a C compiler threaded_spmv runs the serial NumPy kernel: "
          "the compiled kernels are what release the GIL)")


if __name__ == "__main__":
    main()
