"""Conversions between sparse formats.

All conversions are vectorized (no per-nonzero Python loops) so that the
11.6M-nonzero matrices of the paper's suite convert in well under a
second. Conversion is where register-block padding is introduced, so the
functions here also return exact logical-nonzero bookkeeping.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .._util import ceil_div, unique_count
from ..errors import ConversionError
from .base import IndexWidth, SparseFormat
from .bcoo import BCOOMatrix
from .bcsr import BCSRMatrix
from .blocked import CacheBlock, CacheBlockedMatrix
from .coo import COOMatrix
from .csr import CSRMatrix
from .gcsr import GCSRMatrix
from .index import min_index_width


def _auto_width(span: int, requested: IndexWidth | None) -> IndexWidth:
    """Requested width, or the narrowest legal width for ``span``."""
    if requested is not None:
        return IndexWidth(requested)
    return min_index_width(max(span, 1))


# ----------------------------------------------------------------------
# CSR
# ----------------------------------------------------------------------
def coo_to_csr(coo: COOMatrix, index_width: IndexWidth | None = None) -> CSRMatrix:
    """Convert sorted COO triplets to CSR."""
    width = _auto_width(coo.ncols, index_width)
    counts = coo.row_counts()
    indptr = np.zeros(coo.nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(coo.shape, indptr, coo.col, coo.val, index_width=width)


def to_gcsr(coo: COOMatrix, index_width: IndexWidth | None = None) -> GCSRMatrix:
    """Convert to generalized CSR (only non-empty rows stored)."""
    width = _auto_width(coo.ncols, index_width)
    counts = coo.row_counts()
    row_ids = np.flatnonzero(counts)
    indptr = np.zeros(len(row_ids) + 1, dtype=np.int64)
    np.cumsum(counts[row_ids], out=indptr[1:])
    return GCSRMatrix(
        coo.shape, row_ids, indptr, coo.col, coo.val, index_width=width
    )


# ----------------------------------------------------------------------
# Register-blocked formats
# ----------------------------------------------------------------------
def _tile_assemble(
    coo: COOMatrix, r: int, c: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group nonzeros into r×c tiles.

    Returns
    -------
    brow, bcol : int64 arrays, one entry per occupied tile (row-major)
    blocks : float64 array, shape (ntiles, r, c), padded with zeros
    """
    if r < 1 or c < 1:
        raise ConversionError(f"tile dims must be >= 1, got {r}x{c}")
    if coo.nnz_logical == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros((0, r, c))
    brow = coo.row // r
    bcol = coo.col // c
    n_bcols = ceil_div(coo.ncols, c)
    key = brow * n_bcols + bcol
    # COO is row-major sorted, hence key is NOT necessarily sorted when
    # r > 1 (rows of different tile rows interleave) — sort explicitly.
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    uniq_key, tile_of_nnz = np.unique(key_s, return_inverse=True)
    ntiles = len(uniq_key)
    blocks = np.zeros((ntiles, r, c), dtype=np.float64)
    within = (coo.row[order] % r) * c + (coo.col[order] % c)
    flat_idx = tile_of_nnz * (r * c) + within
    # Duplicate-free COO guarantees each (tile, within) slot is hit once.
    blocks.reshape(-1)[flat_idx] = coo.val[order]
    return uniq_key // n_bcols, uniq_key % n_bcols, blocks


def count_tiles(coo: COOMatrix, r: int, c: int) -> int:
    """Number of occupied r×c tiles — the one-pass statistic the paper's
    footprint heuristic needs, without materializing the blocks."""
    n_bcols = ceil_div(coo.ncols, c)
    return unique_count((coo.row // r) * n_bcols + coo.col // c)


def to_bcsr(
    coo: COOMatrix, r: int, c: int, index_width: IndexWidth | None = None
) -> BCSRMatrix:
    """Convert to register-blocked CSR with r×c tiles."""
    width = _auto_width(ceil_div(max(coo.ncols, 1), c), index_width)
    brow, bcol, blocks = _tile_assemble(coo, r, c)
    n_brows = ceil_div(coo.nrows, r) if coo.nrows else 0
    tiles_per_brow = np.bincount(brow, minlength=n_brows) if len(brow) else (
        np.zeros(n_brows, dtype=np.int64)
    )
    brow_ptr = np.zeros(n_brows + 1, dtype=np.int64)
    np.cumsum(tiles_per_brow, out=brow_ptr[1:])
    return BCSRMatrix(
        coo.shape, r, c, brow_ptr, bcol, blocks,
        nnz_logical=coo.nnz_logical, index_width=width,
    )


def to_bcoo(
    coo: COOMatrix, r: int, c: int, index_width: IndexWidth | None = None
) -> BCOOMatrix:
    """Convert to block-coordinate storage with r×c tiles."""
    span = max(ceil_div(max(coo.nrows, 1), r), ceil_div(max(coo.ncols, 1), c))
    width = _auto_width(span, index_width)
    brow, bcol, blocks = _tile_assemble(coo, r, c)
    return BCOOMatrix(
        coo.shape, r, c, brow, bcol, blocks,
        nnz_logical=coo.nnz_logical, index_width=width,
    )


# ----------------------------------------------------------------------
# SELL-C-σ (implemented in formats/sellcs.py; re-exported here so every
# COO→format conversion is reachable from one module)
# ----------------------------------------------------------------------
from .sellcs import to_sellcs  # noqa: E402


# ----------------------------------------------------------------------
# Cache blocking
# ----------------------------------------------------------------------
#: A block extent: (r0, r1, c0, c1), half-open.
BlockSpec = tuple[int, int, int, int]

#: Chooses the storage for one cache block, given its local COO.
SubformatChooser = Callable[[COOMatrix], SparseFormat]


def default_chooser(local: COOMatrix) -> SparseFormat:
    """Plain CSR with the narrowest legal index width."""
    return coo_to_csr(local)


def to_cache_blocked(
    coo: COOMatrix,
    specs: Sequence[BlockSpec],
    choose: SubformatChooser = default_chooser,
    *,
    drop_empty: bool = True,
) -> CacheBlockedMatrix:
    """Partition a matrix into cache blocks with per-block sub-formats.

    Parameters
    ----------
    coo : COOMatrix
        Source matrix (row-major sorted).
    specs : sequence of (r0, r1, c0, c1)
        Disjoint rectangular extents that together cover every nonzero.
        Must be sorted row-panel-major (all column spans of a row panel
        consecutively).
    choose : callable
        Maps each block's local COO to a concrete sub-format; the paper's
        footprint heuristic is plugged in here
        (:func:`repro.core.heuristics.choose_block_format`).
    drop_empty : bool
        Skip blocks containing no nonzeros (the paper never materializes
        them).
    """
    if not specs:
        raise ConversionError("at least one cache block spec is required")
    blocks: list[CacheBlock] = []
    covered = 0
    for (r0, r1, c0, c1) in specs:
        local = coo.submatrix(r0, r1, c0, c1)
        covered += local.nnz_logical
        if drop_empty and local.nnz_logical == 0:
            continue
        blocks.append(CacheBlock(r0, r1, c0, c1, choose(local)))
    if covered != coo.nnz_logical:
        raise ConversionError(
            f"cache block specs cover {covered} of {coo.nnz_logical} "
            "nonzeros; blocks must be disjoint and exhaustive"
        )
    return CacheBlockedMatrix(coo.shape, blocks)


def uniform_block_specs(
    shape: tuple[int, int], block_rows: int, block_cols: int
) -> list[BlockSpec]:
    """Classical dense cache blocking: a fixed ``block_rows × block_cols``
    grid (the paper's ≈1K×1K baseline and the Cell implementation)."""
    m, n = shape
    if block_rows < 1 or block_cols < 1:
        raise ConversionError("block dims must be >= 1")
    specs: list[BlockSpec] = []
    for r0 in range(0, max(m, 1), block_rows):
        r1 = min(r0 + block_rows, m)
        for c0 in range(0, max(n, 1), block_cols):
            c1 = min(c0 + block_cols, n)
            specs.append((r0, r1, c0, c1))
        if m == 0:
            break
    return specs
