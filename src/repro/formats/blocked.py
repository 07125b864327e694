"""Cache/TLB-blocked compound format.

The matrix is tiled into large rectangular cache blocks (the paper's
"sparse cache blocking" spans a variable number of columns per block so
each block touches the same number of source-vector cache lines). Each
cache block stores its nonzeros in its own heuristically chosen
sub-format — the paper explicitly notes "some cache blocks [may be]
stored in 1x4 BCOO with 32-bit indices, and others in 4x1 BCSR with
16-bit indices".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import MatrixFormatError
from .base import SparseFormat
from .coo import COOMatrix


@dataclass(frozen=True)
class CacheBlock:
    """One cache block: a rectangular region plus its local sub-matrix.

    Attributes
    ----------
    r0, r1, c0, c1 : int
        Half-open global row/column extent of the block.
    matrix : SparseFormat
        Sub-matrix in local coordinates, shape ``(r1-r0, c1-c0)``.
    """

    r0: int
    r1: int
    c0: int
    c1: int
    matrix: SparseFormat = field(compare=False)

    def __post_init__(self):
        if not (0 <= self.r0 <= self.r1 and 0 <= self.c0 <= self.c1):
            raise MatrixFormatError(
                f"degenerate cache block extent "
                f"[{self.r0},{self.r1})x[{self.c0},{self.c1})"
            )
        if self.matrix.shape != (self.r1 - self.r0, self.c1 - self.c0):
            raise MatrixFormatError(
                f"sub-matrix shape {self.matrix.shape} does not match "
                f"block extent {(self.r1 - self.r0, self.c1 - self.c0)}"
            )

    @property
    def rows(self) -> int:
        return self.r1 - self.r0

    @property
    def cols(self) -> int:
        return self.c1 - self.c0

    @property
    def nnz(self) -> int:
        return self.matrix.nnz_logical


class CacheBlockedMatrix(SparseFormat):
    """Container of cache blocks covering a sparse matrix.

    Blocks must tile disjoint regions whose union contains every nonzero.
    SpMV streams block by block, accumulating each block's contribution
    into the global destination slice — the same traversal order the
    paper's cache-blocked kernels use (all blocks of a row panel before
    moving down).

    Parameters
    ----------
    shape : (int, int)
        Global matrix dimensions.
    blocks : sequence of CacheBlock
        Non-overlapping blocks sorted row-panel-major. Blocks containing
        zero nonzeros may be omitted entirely.
    """

    format_name = "cache_blocked"
    #: Threads the plan that built this matrix runs it on (set by
    #: :meth:`repro.core.plan.SpmvPlan.materialize`); the compiled
    #: backend spreads its row panels over that many.
    n_threads = 1

    def __init__(self, shape, blocks: Sequence[CacheBlock]):
        super().__init__(shape)
        blocks = list(blocks)
        for b in blocks:
            if b.r1 > self.nrows or b.c1 > self.ncols:
                raise MatrixFormatError(
                    f"block {(b.r0, b.r1, b.c0, b.c1)} exceeds shape "
                    f"{self.shape}"
                )
        self.blocks: tuple[CacheBlock, ...] = tuple(blocks)

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def nnz_stored(self) -> int:
        return sum(b.matrix.nnz_stored for b in self.blocks)

    @property
    def nnz_logical(self) -> int:
        return sum(b.matrix.nnz_logical for b in self.blocks)

    # ------------------------------------------------------------------
    def spmv(self, x, y=None):
        x, y = self._check_spmv_args(x, y)
        for b in self.blocks:
            xb = x[b.c0 : b.c1]
            yb = y[b.r0 : b.r1]
            b.matrix.spmv(xb, yb)
        return y

    def to_coo(self) -> COOMatrix:
        if not self.blocks:
            return COOMatrix.empty(self.shape)
        rows, cols, vals = [], [], []
        for b in self.blocks:
            sub = b.matrix.to_coo()
            rows.append(sub.row + b.r0)
            cols.append(sub.col + b.c0)
            vals.append(sub.val)
        return COOMatrix(
            self.shape,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
            dedupe=False,
        )

    def footprint_bytes(self) -> int:
        """Sum of sub-format footprints plus 16 B of extent metadata per
        block (four 32-bit bounds)."""
        return sum(b.matrix.footprint_bytes() for b in self.blocks) + 16 * len(
            self.blocks
        )

    # ------------------------------------------------------------------
    def row_panels(self) -> list[tuple[int, int]]:
        """Distinct ``(r0, r1)`` row-panel extents, in traversal order."""
        seen: list[tuple[int, int]] = []
        for b in self.blocks:
            ext = (b.r0, b.r1)
            if not seen or seen[-1] != ext:
                if ext in seen:
                    raise MatrixFormatError(
                        "blocks are not sorted row-panel-major"
                    )
                seen.append(ext)
        return seen

    def format_census(self) -> dict[str, int]:
        """Count of blocks per sub-format name — used by reports/tests to
        confirm the heuristic really mixes encodings."""
        out: dict[str, int] = {}
        for b in self.blocks:
            key = b.matrix.format_name
            out[key] = out.get(key, 0) + 1
        return out
