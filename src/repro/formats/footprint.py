"""Matrix memory-footprint accounting.

For a memory-bound kernel, time ≈ footprint / sustained bandwidth, so
the byte counts here are the paper's central optimization currency:
"minimizing the memory footprint is more effective than improving single
thread performance."
"""

from __future__ import annotations

from .._util import POINTER_BYTES, VALUE_BYTES
from .base import SparseFormat


def naive_footprint_bytes(nnz: int) -> int:
    """The paper's naive figure: 16 bytes per nonzero.

    8 bytes of double-precision value plus a 4-byte row and a 4-byte
    column coordinate. The optimized data structures "can cut these
    storage requirements in half".
    """
    return (VALUE_BYTES + 2 * POINTER_BYTES) * int(nnz)


def spmv_compulsory_bytes(
    matrix: SparseFormat, *, write_allocate: bool = True
) -> int:
    """Lower bound on SpMV memory traffic: one pass over the matrix plus
    compulsory source/destination vector traffic.

    The destination vector costs 16 bytes per element under
    write-allocate (8 read on the fill, 8 writeback), 8 otherwise —
    the accounting the paper applies to Epidemiology's flop:byte bound.
    """
    m, n = matrix.shape
    y_bytes = (2 * VALUE_BYTES if write_allocate else VALUE_BYTES) * m
    x_bytes = VALUE_BYTES * n
    return matrix.footprint_bytes() + x_bytes + y_bytes


def flop_byte_ratio(
    matrix: SparseFormat, *, write_allocate: bool = True
) -> float:
    """Effective flop:byte ratio of one SpMV pass (2 flops per logical
    nonzero over compulsory traffic). Upper bound is 0.25 (2 flops per
    8-byte value when index/vector traffic vanishes)."""
    traffic = spmv_compulsory_bytes(matrix, write_allocate=write_allocate)
    if traffic == 0:
        return 0.0
    return 2.0 * matrix.nnz_logical / traffic
