"""Format-aware dispatch into the compiled kernels.

:func:`spmv_c` / :func:`spmm_c` are the C-backend twins of
``matrix.spmv`` / :func:`repro.formats.multivector.spmm`: same
``y ← y + A·x`` accumulate semantics, same shapes, same silent handling
of padding. Formats without a compiled specialization (GCSR, raw COO)
and variants whose compile or validation failed fall back to the NumPy
kernels, counted by ``c_backend.fallbacks``; successful compiled
executions count under ``c_backend.calls`` — both visible on the serve
tier's Prometheus ``/metrics`` endpoint.
"""

from __future__ import annotations

import numpy as np

from ...errors import KernelError, MatrixFormatError
from ...observe import metrics as _metrics
from .build import CBackendUnavailable, compiler_available
from .loader import CKernel, get_best_c_kernel


def c_backend_available() -> bool:
    """True when compiled kernels can run here (compiler + enabled)."""
    return compiler_available()


def supports_format(matrix) -> bool:
    """Does the C backend specialize this concrete format?"""
    from ...formats.bcoo import BCOOMatrix
    from ...formats.bcsr import BCSRMatrix
    from ...formats.blocked import CacheBlockedMatrix
    from ...formats.csr import CSRMatrix
    from ...formats.sellcs import SellCSMatrix

    if isinstance(matrix, CacheBlockedMatrix):
        return all(supports_format(b.matrix) for b in matrix.blocks)
    return isinstance(matrix,
                      (CSRMatrix, BCSRMatrix, BCOOMatrix, SellCSMatrix))


def _require_available() -> None:
    if not compiler_available():
        raise CBackendUnavailable(
            "no C compiler available (REPRO_DISABLE_CC set, or no "
            "cc/gcc/clang on PATH)"
        )


# ----------------------------------------------------------------------
# Low-level per-format execution (x and y must be contiguous float64)
# ----------------------------------------------------------------------
def _spmv_c_format(matrix, x: np.ndarray, y: np.ndarray,
                   kernel: CKernel) -> np.ndarray:
    """Run one concrete csr/bcsr/bcoo matrix through ``kernel``.

    ``y`` must be a contiguous float64 vector of length ``nrows``; it
    is accumulated in place and returned.
    """
    from ...formats.csr import CSRMatrix
    from ...formats.sellcs import SellCSMatrix

    if isinstance(matrix, CSRMatrix):
        kernel.spmv(
            matrix.indptr.ctypes.data, matrix.indices.ctypes.data,
            matrix.data.ctypes.data, x.ctypes.data, y.ctypes.data,
            0, matrix.nrows,
        )
        return y
    if isinstance(matrix, SellCSMatrix):
        # The kernel gathers y through perm, accumulates per-slice on
        # the stack, and scatters back — the same gather/scatter pair
        # as the NumPy spmv (identical summation order), with no
        # Python-side permuted temporary.
        kernel.spmv(
            matrix.slice_ptr.ctypes.data, matrix.cols.ctypes.data,
            matrix.vals.ctypes.data, matrix.perm.ctypes.data,
            x.ctypes.data, y.ctypes.data,
            0, matrix.n_slices, matrix.nrows,
        )
        return y
    # Blocked formats compute on tile-padded vectors, exactly like
    # their NumPy spmv (formats/bcsr.py, formats/bcoo.py).
    xp = np.zeros(matrix.n_bcols * matrix.c, dtype=np.float64)
    xp[: len(x)] = x
    yp = np.zeros(matrix.n_brows * matrix.r, dtype=np.float64)
    if matrix.format_name == "bcsr":
        kernel.spmv(
            matrix.brow_ptr.ctypes.data, matrix.bcol.ctypes.data,
            matrix.blocks.ctypes.data, xp.ctypes.data, yp.ctypes.data,
            0, matrix.n_brows,
        )
    else:
        kernel.spmv(
            matrix.brow.ctypes.data, matrix.bcol.ctypes.data,
            matrix.blocks.ctypes.data, xp.ctypes.data, yp.ctypes.data,
            matrix.ntiles,
        )
    y += yp[: matrix.nrows]
    return y


def _kernel_for(matrix) -> CKernel | None:
    """Best-ISA validated kernel for a csr/bcsr/bcoo/sellcs matrix, or
    None when every ladder level is broken (→ NumPy fallback)."""
    try:
        if matrix.format_name == "csr":
            return get_best_c_kernel("csr", 1, 1, matrix.index_width)
        if matrix.format_name == "sellcs":
            return get_best_c_kernel("sellcs", matrix.chunk, 1,
                                     matrix.index_width)
        return get_best_c_kernel(matrix.format_name, matrix.r, matrix.c,
                                 matrix.index_width)
    except CBackendUnavailable:
        raise
    except KernelError:
        return None


def _spmv_c_block(matrix, x: np.ndarray, y: np.ndarray) -> None:
    """One block: compiled when specialized+valid, NumPy otherwise."""
    fmt = matrix.format_name
    kernel = _kernel_for(matrix) \
        if fmt in ("csr", "bcsr", "bcoo", "sellcs") else None
    if kernel is not None:
        _metrics.inc("c_backend.calls", fmt=fmt)
        _spmv_c_format(matrix, x, y, kernel)
    else:
        _metrics.inc("c_backend.fallbacks", fmt=fmt)
        matrix.spmv(x, y)


# ----------------------------------------------------------------------
# Public dispatch
# ----------------------------------------------------------------------
def spmv_c(matrix, x: np.ndarray,
           y: np.ndarray | None = None) -> np.ndarray:
    """``y ← y + A·x`` on the compiled path (NumPy fallback per block).

    Raises :class:`~repro.kernels.cbackend.build.CBackendUnavailable`
    only when no compiler exists at all; a per-variant build or
    validation failure silently falls back to the matrix's own NumPy
    kernel (counted in ``c_backend.fallbacks``).
    """
    from ...formats.blocked import CacheBlockedMatrix

    x, y = matrix._check_spmv_args(x, y)
    _require_available()
    # The kernels write through raw pointers: give them a contiguous
    # destination and copy back into strided views afterwards.
    yc = y if y.flags.c_contiguous else np.ascontiguousarray(y)
    if isinstance(matrix, CacheBlockedMatrix):
        for b in matrix.blocks:
            _spmv_c_block(b.matrix, np.ascontiguousarray(x[b.c0:b.c1]),
                          yc[b.r0:b.r1])
    else:
        _spmv_c_block(matrix, np.ascontiguousarray(x), yc)
    if yc is not y:
        y[...] = yc
    return y


def spmm_c(matrix, x: np.ndarray,
           y: np.ndarray | None = None) -> np.ndarray:
    """``Y ← Y + A·X`` on the compiled path.

    CSR and SELL-C-σ matrices (including CSR blocks of a cache-blocked
    matrix) run the fused multi-vector kernel — one matrix sweep for
    all k columns; other formats fall back to the NumPy SpMM.
    """
    from ...formats.blocked import CacheBlockedMatrix

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != matrix.ncols:
        raise MatrixFormatError(
            f"X must have shape ({matrix.ncols}, k), got {x.shape}"
        )
    k = x.shape[1]
    if y is None:
        y = np.zeros((matrix.nrows, k), dtype=np.float64)
    elif y.shape != (matrix.nrows, k) or y.dtype != np.float64:
        raise MatrixFormatError(
            f"Y must be float64 of shape ({matrix.nrows}, {k}), "
            f"got {y.dtype} {y.shape}"
        )
    _require_available()
    if k == 1:
        # Exact single-vector kernel, mirroring the NumPy spmm's k==1
        # fast path (spmv_c handles any strides).
        spmv_c(matrix, x[:, 0], y[:, 0])
        return y
    yc = y if y.flags.c_contiguous else np.ascontiguousarray(y)
    if isinstance(matrix, CacheBlockedMatrix):
        for b in matrix.blocks:
            _spmm_c_block(b.matrix, np.ascontiguousarray(x[b.c0:b.c1]),
                          yc[b.r0:b.r1])
    else:
        _spmm_c_block(matrix, np.ascontiguousarray(x), yc)
    if yc is not y:
        y[...] = yc
    return y


def _spmm_c_block(matrix, x: np.ndarray, y: np.ndarray) -> None:
    """SpMM one block into a float64 ``(rows, k)`` destination whose
    rows are contiguous (a row slice of a contiguous array is fine)."""
    from ...formats.csr import CSRMatrix
    from ...formats.multivector import spmm as _np_spmm
    from ...formats.sellcs import SellCSMatrix

    k = x.shape[1]
    kernel = _kernel_for(matrix) \
        if isinstance(matrix, (CSRMatrix, SellCSMatrix)) else None
    if kernel is not None and y.strides == (8 * k, 8):
        if isinstance(matrix, SellCSMatrix):
            _metrics.inc("c_backend.calls", fmt="sellcs_spmm")
            kernel.spmm(
                matrix.slice_ptr.ctypes.data, matrix.cols.ctypes.data,
                matrix.vals.ctypes.data, matrix.perm.ctypes.data,
                x.ctypes.data, y.ctypes.data,
                0, matrix.n_slices, k, matrix.nrows,
            )
        else:
            _metrics.inc("c_backend.calls", fmt="csr_spmm")
            kernel.spmm(
                matrix.indptr.ctypes.data, matrix.indices.ctypes.data,
                matrix.data.ctypes.data, x.ctypes.data, y.ctypes.data,
                0, matrix.nrows, k,
            )
    else:
        _metrics.inc("c_backend.fallbacks",
                     fmt=f"{matrix.format_name}_spmm")
        _np_spmm(matrix, x, y)
