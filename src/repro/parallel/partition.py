"""Row and column partitioning for thread-level SpMV parallelism.

The paper's implementation "attempts to statically load balance the
matrix by balancing the number of nonzeros, as the transfer of this
data accounts for the majority of time". The OSKI-PETSc baseline, by
contrast, uses PETSc's default equal-rows 1-D distribution, which is
what loses 40 % of the nonzeros to a single process on FEM-Accel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import balanced_bounds
from ..errors import PartitionError
from ..formats.coo import COOMatrix


@dataclass(frozen=True)
class RowPartition:
    """Contiguous row ranges, one per part.

    ``bounds`` has ``n_parts + 1`` entries; part ``i`` owns rows
    ``[bounds[i], bounds[i+1])``.
    """

    bounds: np.ndarray
    nnz_per_part: np.ndarray

    @property
    def n_parts(self) -> int:
        return len(self.bounds) - 1

    def part_of_row(self, row: np.ndarray) -> np.ndarray:
        """Owning part of each row index."""
        return np.searchsorted(self.bounds, row, side="right") - 1

    @property
    def imbalance(self) -> float:
        """max/mean nonzero load (1.0 = perfectly even)."""
        mean = self.nnz_per_part.mean()
        if mean == 0:
            return 1.0
        return float(self.nnz_per_part.max() / mean)

    def ranges(self) -> list[tuple[int, int]]:
        return [
            (int(self.bounds[i]), int(self.bounds[i + 1]))
            for i in range(self.n_parts)
        ]


def _partition_from_bounds(counts: np.ndarray, bounds: np.ndarray
                           ) -> RowPartition:
    csum = np.concatenate([[0], np.cumsum(counts)])
    nnz = csum[bounds[1:]] - csum[bounds[:-1]]
    return RowPartition(bounds=bounds, nnz_per_part=nnz.astype(np.int64))


def partition_rows_balanced(coo: COOMatrix, n_parts: int) -> RowPartition:
    """Contiguous row ranges with (nearly) equal nonzero counts.

    Splits the cumulative nonzero distribution at multiples of
    ``nnz / n_parts``. A row is never split, so a single gigantic row
    (LP's densest constraints) bounds the achievable balance.
    """
    return partition_counts_balanced(coo.row_counts(), n_parts)


def partition_counts_balanced(counts: np.ndarray,
                              n_parts: int) -> RowPartition:
    """:func:`partition_rows_balanced` from the per-row nonzero
    ``counts`` alone (a CSR's ``diff(indptr)``)."""
    if n_parts < 1:
        raise PartitionError(f"n_parts must be >= 1, got {n_parts}")
    m = len(counts)
    if n_parts > max(m, 1):
        raise PartitionError(
            f"cannot make {n_parts} row parts of a {m}-row matrix"
        )
    return _partition_from_bounds(counts, balanced_bounds(counts, n_parts))


def partition_rows_equal(coo: COOMatrix, n_parts: int) -> RowPartition:
    """PETSc's default distribution: equal numbers of rows per part."""
    if n_parts < 1:
        raise PartitionError(f"n_parts must be >= 1, got {n_parts}")
    m = coo.nrows
    if n_parts > max(m, 1):
        raise PartitionError(
            f"cannot make {n_parts} row parts of a {m}-row matrix"
        )
    counts = coo.row_counts()
    base, extra = divmod(m, n_parts)
    sizes = np.full(n_parts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return _partition_from_bounds(counts, bounds)


def partition_cols_balanced(coo: COOMatrix, n_parts: int) -> RowPartition:
    """Column partition balanced by nonzeros (the paper's described —
    but not exploited — alternative; requires a reduction over partial
    ``y`` vectors at execution time)."""
    t = coo.transpose()
    return partition_rows_balanced(t, n_parts)


def split_rows(coo: COOMatrix, part: RowPartition) -> list[COOMatrix]:
    """Materialize each part's row slab as an independent COO matrix
    (local row numbering, global columns)."""
    out = []
    for r0, r1 in part.ranges():
        out.append(coo.submatrix(r0, r1, 0, coo.ncols))
    return out
