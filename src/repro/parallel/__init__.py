"""Thread-level parallelization of SpMV.

Implements the paper's §4.3 toolkit: row partitioning statically
balanced by nonzeros (the strategy the paper exploits), column
partitioning and a segmented-scan decomposition (described as future
work — implemented here), NUMA-aware block-to-node assignment, and
real parallel execution on the host machine: a thread-pool path over
the GIL-free compiled C kernels (:mod:`repro.parallel.threaded`). The
persistent multi-process tier lives in :mod:`repro.dist`.
"""

from .column import column_parallel_spmv, column_partition_traffic_factor
from .numa import NumaAssignment, assign_numa
from .partition import (
    RowPartition,
    partition_rows_balanced,
    partition_rows_equal,
    partition_cols_balanced,
)
from .scan import segmented_scan_spmv
from .threaded import threaded_spmv

__all__ = [
    "NumaAssignment",
    "RowPartition",
    "assign_numa",
    "column_parallel_spmv",
    "column_partition_traffic_factor",
    "partition_cols_balanced",
    "partition_rows_balanced",
    "partition_rows_equal",
    "segmented_scan_spmv",
    "threaded_spmv",
]
