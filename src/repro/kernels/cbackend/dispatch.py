"""Format-aware dispatch into the compiled kernels.

:func:`spmv_c` / :func:`spmm_c` are the C-backend twins of
``matrix.spmv`` / :func:`repro.formats.multivector.spmm`: same
``y ← y + A·x`` accumulate semantics, same shapes, same silent handling
of padding. A matrix's first call binds it
(:class:`~repro.kernels.cbackend.program.BoundProgram`, cached on the
matrix): each leaf's raced best kernel and argument list are resolved
once into one packed leaf table, and every later call only validates
its vectors and makes one C call that walks the table (on the thread
team when the plan has several row panels and threads). Formats
without a compiled specialization (GCSR, raw COO) and variants whose
compile or validation failed stay on the NumPy kernels, counted by
``c_backend.fallbacks``; compiled executions count
under ``c_backend.calls`` — one increment per block per call, both
visible on the serve tier's Prometheus ``/metrics`` endpoint.
"""

from __future__ import annotations

import numpy as np

from ...errors import KernelError, MatrixFormatError
from ...observe import metrics as _metrics
from .build import CBackendUnavailable, compiler_available
from .loader import CKernel, bind_token, get_best_c_kernel
from .program import BoundProgram, kernel_key


def c_backend_available() -> bool:
    """True when compiled kernels can run here (compiler + enabled)."""
    return compiler_available()


def _best_kernel(leaf) -> CKernel | None:
    """Raced best validated kernel for one leaf, or None when the
    format has no specialization or every ladder level is broken
    (→ NumPy fallback)."""
    key = kernel_key(leaf)
    if key is None:
        return None
    try:
        return get_best_c_kernel(*key)
    except CBackendUnavailable:
        raise
    except KernelError:
        return None


def program_for(matrix) -> BoundProgram:
    """The matrix's bound program, built on first use.

    A program is only as good as the kernels it was resolved against:
    it is rebuilt whenever :func:`~repro.kernels.cbackend.loader.
    bind_token` has moved (``reset_for_tests()``, a changed
    ``REPRO_DISABLE_CC`` / ``REPRO_CC`` / ``REPRO_CC_CAPS``), so a
    stale function pointer is never called. Raises
    :class:`~repro.kernels.cbackend.build.CBackendUnavailable` when no
    compiler exists at all.
    """
    token = bind_token()
    program = matrix.__dict__.get("_c_program")
    if program is None or program.token != token:
        if not compiler_available():
            raise CBackendUnavailable(
                "no C compiler available (REPRO_DISABLE_CC set, or no "
                "cc/gcc/clang on PATH)"
            )
        # Two threads binding at once build equal programs; last wins.
        program = matrix._c_program = BoundProgram(
            matrix, _best_kernel, token)
    return program


def _count(counts) -> None:
    for name, n, fmt in counts:
        _metrics.inc(name, n, fmt=fmt)


def spmv_c(matrix, x: np.ndarray,
           y: np.ndarray | None = None) -> np.ndarray:
    """``y ← y + A·x`` on the compiled path (NumPy fallback per block).

    Raises :class:`~repro.kernels.cbackend.build.CBackendUnavailable`
    only when no compiler exists at all; a per-variant build or
    validation failure silently falls back to the matrix's own NumPy
    kernel (counted in ``c_backend.fallbacks``).
    """
    x, y = matrix._check_spmv_args(x, y)
    program = program_for(matrix)
    # The kernels read and write through raw pointers: give them
    # contiguous vectors and copy back into a strided destination.
    xc = x if x.flags.c_contiguous else np.ascontiguousarray(x)
    yc = y if y.flags.c_contiguous else np.ascontiguousarray(y)
    program.spmv(xc, yc)
    _count(program.spmv_counts)
    if yc is not y:
        y[...] = yc
    return y


def spmm_c(matrix, x: np.ndarray,
           y: np.ndarray | None = None) -> np.ndarray:
    """``Y ← Y + A·X`` on the compiled path.

    CSR, SELL-C-σ, BCSR and BCOO matrices (including such blocks of a
    cache-blocked matrix) run the fused multi-vector kernel — one C
    call and one matrix sweep per leaf for all k columns; formats
    without a compiled specialization (GCSR, raw COO) and broken
    variants fall back to the NumPy SpMM.
    """
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
    if k == 1:
        # Exact single-vector kernel, mirroring the NumPy spmm's k==1
        # fast path (spmv_c handles any strides).
        spmv_c(matrix, x[:, 0], y[:, 0])
        return y
    program = program_for(matrix)
    xc = x if x.flags.c_contiguous else np.ascontiguousarray(x)
    yc = y if y.flags.c_contiguous else np.ascontiguousarray(y)
    program.spmm(xc, yc)
    _count(program.spmm_counts)
    if yc is not y:
        y[...] = yc
    return y
