"""Thread-level parallelization of SpMV.

Implements the paper's §4.3 toolkit: row partitioning statically
balanced by nonzeros (the strategy the paper exploits), a
segmented-scan decomposition (described as future work — implemented
here), NUMA-aware block-to-node assignment, and real parallel
execution on the host machine: nnz-balanced row slabs on the compiled
backend's persistent thread team (:mod:`repro.parallel.threaded`), the
same team every tuned plan's row panels run on
(:mod:`repro.kernels.cbackend.program`).
"""

from .numa import NumaAssignment, assign_numa
from .partition import (
    RowPartition,
    partition_rows_balanced,
    partition_rows_equal,
)
from .scan import segmented_scan_spmv
from .threaded import threaded_spmv

__all__ = [
    "NumaAssignment",
    "RowPartition",
    "assign_numa",
    "partition_rows_balanced",
    "partition_rows_equal",
    "segmented_scan_spmv",
    "threaded_spmv",
]
