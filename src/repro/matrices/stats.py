"""Structural statistics of sparse matrices.

These are the quantities §5.1 of the paper reasons with when predicting
performance from structure: nonzeros per row (inner-loop length), empty
rows (wasted CSR pointers), diagonal concentration (source locality),
aspect ratio (cache-blocking pressure), and block fill ratios (register
blocking viability).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import unique_count
from ..formats.convert import count_tiles
from ..formats.coo import COOMatrix


@dataclass(frozen=True)
class RowLengthStats:
    """Moments of the nonzeros-per-row distribution.

    Every field is well-defined for degenerate matrices (no rows, no
    nonzeros, a single row): ratios whose denominator would vanish are
    reported as 0.0, never NaN/inf — the autoplan feature extractor
    relies on this.
    """

    mean: float
    std: float
    #: Coefficient of variation, ``std / mean`` (0.0 when mean is 0).
    cv: float
    min: int
    max: int
    #: ``max / mean`` (0.0 when mean is 0) — long-tail row detector.
    max_rel: float
    #: Fraction of rows with no nonzeros (0.0 for a zero-row matrix).
    empty_frac: float


def row_length_stats(coo: COOMatrix) -> RowLengthStats:
    """Row-length distribution moments, safe for every degenerate shape."""
    m = coo.nrows
    if m == 0:
        return RowLengthStats(0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)
    counts = coo.row_counts()
    mean = float(counts.mean())
    std = float(counts.std())
    cmax = int(counts.max())
    return RowLengthStats(
        mean=mean,
        std=std,
        cv=std / mean if mean > 0 else 0.0,
        min=int(counts.min()),
        max=cmax,
        max_rel=cmax / mean if mean > 0 else 0.0,
        empty_frac=float((counts == 0).mean()),
    )


@dataclass(frozen=True)
class BandwidthStats:
    """Distance-from-diagonal distribution, scaled to the unit square.

    Distances are ``|i - j·nrows/ncols| / nrows`` so rectangular
    matrices compare on the same footing; 0 throughout for diagonal
    matrices and for degenerate (empty / zero-dimension) ones.
    """

    mean: float
    p95: float
    max: float
    #: Fraction of nonzeros within ±1% of the scaled diagonal.
    diag_frac: float


def bandwidth_stats(coo: COOMatrix) -> BandwidthStats:
    """Scaled bandwidth distribution, safe for every degenerate shape."""
    m, n = coo.shape
    if coo.nnz_logical == 0 or m == 0 or n == 0:
        return BandwidthStats(0.0, 0.0, 0.0, 0.0)
    dist = np.abs(coo.row - coo.col * (m / n))
    scale = float(max(m, 1))
    return BandwidthStats(
        mean=float(dist.mean()) / scale,
        p95=float(np.percentile(dist, 95)) / scale,
        max=float(dist.max()) / scale,
        diag_frac=float((dist <= 0.01 * scale).mean()),
    )


def symmetry_fraction(coo: COOMatrix) -> float:
    """Fraction of nonzeros whose transpose position is also stored.

    1.0 for structurally symmetric matrices (and, vacuously, for empty
    ones); 0.0 for rectangular matrices, where symmetry is undefined.
    """
    m, n = coo.shape
    if m != n:
        return 0.0
    if coo.nnz_logical == 0:
        return 1.0
    keys = coo.row * n + coo.col
    transposed = coo.col * n + coo.row
    # keys is sorted (COO is row-major sorted with unique coordinates).
    idx = np.searchsorted(keys, transposed)
    idx = np.minimum(idx, len(keys) - 1)
    return float((keys[idx] == transposed).mean())


def block_fill_ratio(coo: COOMatrix, r: int, c: int) -> float:
    """Stored/logical fill ratio of an ``r×c`` register blocking.

    1.0 means the tiling is perfect (every tile slot holds a true
    nonzero); ``r·c`` is the worst case. Empty matrices report 1.0.
    """
    if r < 1 or c < 1:
        raise ValueError(f"block dims must be >= 1, got {r}x{c}")
    nnz = coo.nnz_logical
    if nnz == 0:
        return 1.0
    return count_tiles(coo, r, c) * r * c / nnz


@dataclass(frozen=True)
class MatrixStats:
    """Summary statistics of one sparse matrix."""

    nrows: int
    ncols: int
    nnz: int
    nnz_per_row_mean: float
    nnz_per_row_min: int
    nnz_per_row_max: int
    nnz_per_row_std: float
    empty_rows: int
    density: float
    #: Mean |i - j·nrows/ncols| over nonzeros, normalized by nrows —
    #: 0 for a diagonal matrix, ~0.33 for uniform scatter.
    diag_spread: float
    #: Fraction of nonzeros within ±1% of the (scaled) diagonal.
    diag_concentration: float
    #: Fill ratio (stored/logical) for each power-of-two register block.
    block_fill: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def aspect_ratio(self) -> float:
        return self.ncols / max(self.nrows, 1)

    def best_block(self) -> tuple[int, int]:
        """Register block with the lowest fill ratio (ties → largest area)."""
        if not self.block_fill:
            return (1, 1)
        return min(self.block_fill, key=lambda rc: (self.block_fill[rc],
                                                    -rc[0] * rc[1]))


def compute_stats(
    coo: COOMatrix,
    *,
    block_candidates: tuple[tuple[int, int], ...] = ((1, 1), (2, 2), (4, 4),
                                                     (1, 4), (4, 1), (2, 4),
                                                     (4, 2), (1, 2), (2, 1)),
) -> MatrixStats:
    """Compute :class:`MatrixStats` for a matrix (vectorized, one pass per
    block candidate)."""
    m, n = coo.shape
    nnz = coo.nnz_logical
    rows = row_length_stats(coo)
    band = bandwidth_stats(coo)
    density = nnz / (m * n) if m and n else 0.0
    fills = {
        (r, c): block_fill_ratio(coo, r, c) for (r, c) in block_candidates
    }
    return MatrixStats(
        nrows=m, ncols=n, nnz=nnz,
        nnz_per_row_mean=rows.mean, nnz_per_row_min=rows.min,
        nnz_per_row_max=rows.max,
        nnz_per_row_std=rows.std,
        empty_rows=int(round(rows.empty_frac * m)),
        density=density,
        diag_spread=band.mean, diag_concentration=band.diag_frac,
        block_fill=fills,
    )


def nnz_per_row_per_cache_block(
    coo: COOMatrix, cols_per_block: int
) -> float:
    """Average nonzeros per row per cache block for a fixed column span.

    §5.1 uses this (with 17K columns per block) to predict that
    FEM/Accelerator degenerates to ~3 nnz/row/cacheblock and will perform
    poorly on Cell and on cache-blocked x86 code.
    """
    if coo.nnz_logical == 0 or coo.nrows == 0:
        return 0.0
    block = coo.col // max(cols_per_block, 1)
    key = coo.row * (int(block.max()) + 1 if len(block) else 1) + block
    # Each distinct (row, block) pair is one inner-loop instance.
    return coo.nnz_logical / unique_count(key)
