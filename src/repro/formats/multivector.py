"""Multiple-vector SpMM (`Y ← Y + A·X` for k vectors at once).

One of the OSKI optimizations §2.1 lists ("multiple vectors"): when an
application multiplies the same matrix against several vectors — block
Krylov methods, multiple right-hand sides — the matrix is streamed once
for all k vectors, multiplying the arithmetic intensity by ~k. This is
the single most effective bandwidth-reduction lever the paper's
conclusions point at, so we implement it for every row-major format.
"""

from __future__ import annotations

import numpy as np

from .._util import segment_sums
from ..errors import MatrixFormatError
from .bcsr import BCSRMatrix
from .blocked import CacheBlockedMatrix
from .coo import COOMatrix
from .csr import CSRMatrix


def _check_spmm_args(matrix, x, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, Y)`` for ``Y ← Y + A·X`` on any backend: ``X`` as float64
    ``(ncols, k)``, ``Y`` a float64 ``(nrows, k)`` array (zeros when
    None), and ``X`` copied when it overlaps ``Y``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != matrix.ncols:
        raise MatrixFormatError(
            f"X must have shape ({matrix.ncols}, k), got {x.shape}"
        )
    k = x.shape[1]
    if y is None:
        return x, np.zeros((matrix.nrows, k), dtype=np.float64)
    if y.shape != (matrix.nrows, k) or y.dtype != np.float64:
        raise MatrixFormatError(
            f"Y must be float64 of shape ({matrix.nrows}, {k}), "
            f"got {y.dtype} {y.shape}"
        )
    if np.may_share_memory(x, y):
        # The kernels write Y while they still read X.
        x = x.copy()
    return x, y


def spmm(matrix, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """``Y ← Y + A·X`` with ``X`` of shape ``(ncols, k)``.

    Dispatches on the concrete format; falls back to k SpMV calls for
    formats without a fused kernel.
    """
    x, y = _check_spmm_args(matrix, x, y)
    k = x.shape[1]
    if k == 1:
        # Single-vector batches take the exact SpMV kernel so a batch
        # of one is bit-for-bit identical to a direct spmv call (the
        # serve scheduler relies on this for solver reproducibility).
        matrix.spmv(x[:, 0], y[:, 0])
        return y
    if isinstance(matrix, CSRMatrix):
        return _spmm_csr(matrix, x, y)
    if isinstance(matrix, BCSRMatrix):
        return _spmm_bcsr(matrix, x, y)
    if isinstance(matrix, CacheBlockedMatrix):
        for b in matrix.blocks:
            spmm(b.matrix, x[b.c0:b.c1], y[b.r0:b.r1])
        return y
    if isinstance(matrix, COOMatrix):
        if matrix.nnz_logical:
            np.add.at(y, matrix.row,
                      matrix.val[:, None] * x[matrix.col])
        return y
    # Generic fallback: one SpMV per column.
    for j in range(k):
        matrix.spmv(x[:, j], y[:, j])
    return y


def _spmm_csr(csr: CSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if csr.nnz_stored == 0:
        return y
    gathered = x[csr.indices.astype(np.int64)]       # (nnz, k)
    products = csr.data[:, None] * gathered
    y += segment_sums(products, csr.indptr[:-1], csr.nnz_stored)
    return y


def _spmm_bcsr(b: BCSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if b.ntiles == 0:
        return y
    k = x.shape[1]
    pad_n = b.n_bcols * b.c
    if pad_n != x.shape[0]:
        xp = np.zeros((pad_n, k))
        xp[: x.shape[0]] = x
    else:
        xp = x
    x_slabs = xp.reshape(b.n_bcols, b.c, k)[b.bcol.astype(np.int64)]
    contrib = np.einsum("trc,tck->trk", b.blocks, x_slabs)
    sums = segment_sums(contrib, b.brow_ptr[:-1], b.ntiles)
    y += sums.reshape(-1, k)[: b.nrows]
    return y


def spmm_intensity_gain(matrix, k: int, *, write_allocate: bool = True
                        ) -> float:
    """Arithmetic-intensity ratio of k-vector SpMM over k SpMVs.

    The matrix bytes amortize across k vectors while vector traffic
    scales with k — the quantity that motivates the optimization.
    """
    if k < 1:
        raise MatrixFormatError("k must be >= 1")
    m, n = matrix.shape
    y_cost = 16 if write_allocate else 8
    mat = matrix.footprint_bytes()
    vec = 8 * n + y_cost * m
    spmv_bytes_per_flop = (mat + vec) / max(2 * matrix.nnz_logical, 1)
    spmm_bytes_per_flop = (mat + k * vec) / max(2 * k * matrix.nnz_logical, 1)
    return spmv_bytes_per_flop / spmm_bytes_per_flop
