"""Kernel generator: emits specialized *scalar* SpMV kernels in Python.

For each (format, r, c) register-block variant the generator writes a
kernel whose tile arithmetic is *fully unrolled* — ``r·c`` explicit
multiply-accumulate lines over strided views instead of a generic
``einsum``. This is the NumPy analogue of the paper's Perl generator:
the structure (one specialized kernel per block size) is the same, but
nothing here is SIMDized — the emitted source is plain scalar NumPy
expressions, and vectorization is whatever NumPy's own ufunc loops
provide. The actually vectorized kernels (``#pragma omp simd``,
software prefetch) live in :mod:`repro.kernels.cbackend.codegen`, which
emits C behind compiler-capability probes. Unrolling is still a real
optimization at the NumPy level: it avoids einsum's reduction
machinery for the tiny fixed tile sizes SpMV uses.

Generated source is ``exec``-compiled once and cached; call
:func:`generate_kernel_source` to inspect what would run.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from ..errors import KernelError

# Lock-guarded: threaded callers (the C-backend fallback path runs
# inside worker threads) must not race the compile-and-insert below.
_CACHE: dict[tuple[str, int, int], Callable] = {}
_CACHE_LOCK = threading.Lock()

_HEADER = '''\
def kernel(n_brows, n_bcols, brow_ptr, bcol, blocks, x, y, segment_sums):
    """Generated {fmt} {r}x{c} SpMV kernel: y += A @ x (padded spaces).

    Parameters are the raw arrays of the corresponding format; x must be
    padded to n_bcols*{c} elements, y to n_brows*{r}.
    """
    import numpy as np
    ntiles = len(bcol)
    if ntiles == 0:
        return y
    xs = x.reshape(n_bcols, {c})[bcol.astype(np.int64)]
'''

_BCSR_BODY = '''\
    contrib = np.empty((ntiles, {r}))
{unrolled}
    row_sums = segment_sums(contrib, brow_ptr[:-1], ntiles)
    y += row_sums.reshape(-1)
    return y
'''

_BCOO_BODY = '''\
    contrib = np.empty((ntiles, {r}))
{unrolled}
    yb = y.reshape(n_brows, {r})
    np.add.at(yb, brow_ptr.astype(np.int64), contrib)
    return y
'''


def _unrolled_tile_lines(r: int, c: int) -> str:
    """One explicit dot-product line per tile row."""
    lines = []
    for i in range(r):
        terms = " + ".join(
            f"blocks[:, {i}, {j}] * xs[:, {j}]" for j in range(c)
        )
        lines.append(f"    contrib[:, {i}] = {terms}")
    return "\n".join(lines)


def generate_kernel_source(fmt: str, r: int, c: int) -> str:
    """Return the Python source of the specialized kernel.

    ``fmt`` is ``"bcsr"`` (``brow_ptr`` = tile-row pointers) or
    ``"bcoo"`` (``brow_ptr`` reused as the per-tile block-row array).
    """
    if fmt not in ("bcsr", "bcoo"):
        raise KernelError(f"generator supports bcsr/bcoo, not {fmt!r}")
    if r < 1 or c < 1:
        raise KernelError(f"bad tile shape {r}x{c}")
    body = _BCSR_BODY if fmt == "bcsr" else _BCOO_BODY
    return (
        _HEADER.format(fmt=fmt, r=r, c=c)
        + body.format(r=r, unrolled=_unrolled_tile_lines(r, c))
    )


def get_generated_kernel(fmt: str, r: int, c: int) -> Callable:
    """Compile (or fetch) the specialized kernel callable."""
    key = (fmt, int(r), int(c))
    fn = _CACHE.get(key)
    if fn is not None:
        return fn
    with _CACHE_LOCK:
        fn = _CACHE.get(key)
        if fn is not None:
            return fn
        src = generate_kernel_source(fmt, r, c)
        ns: dict = {}
        exec(compile(src, f"<generated {fmt} {r}x{c}>", "exec"), ns)
        fn = ns["kernel"]
        _CACHE[key] = fn
        return fn


def spmv_generated(matrix, x: np.ndarray,
                   y: np.ndarray | None = None) -> np.ndarray:
    """Run a BCSR/BCOO matrix through its generated kernel.

    Functionally identical to ``matrix.spmv`` (validated in tests);
    exists to exercise and benchmark the generated code path.
    """
    from .._util import segment_sums
    from ..formats.bcoo import BCOOMatrix
    from ..formats.bcsr import BCSRMatrix

    if not isinstance(matrix, (BCSRMatrix, BCOOMatrix)):
        raise KernelError(
            f"no generated kernel for format {type(matrix).__name__}"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.ncols,):
        raise ValueError(
            f"x has shape {x.shape}, expected ({matrix.ncols},)"
        )
    if y is None:
        y = np.zeros(matrix.nrows, dtype=np.float64)
    pad_n = matrix.n_bcols * matrix.c
    xp = np.zeros(pad_n)
    xp[: len(x)] = x
    pad_m = matrix.n_brows * matrix.r
    yp = np.zeros(pad_m)
    if isinstance(matrix, BCSRMatrix):
        fn = get_generated_kernel("bcsr", matrix.r, matrix.c)
        fn(matrix.n_brows, matrix.n_bcols, matrix.brow_ptr, matrix.bcol,
           matrix.blocks, xp, yp, segment_sums)
    else:
        fn = get_generated_kernel("bcoo", matrix.r, matrix.c)
        fn(matrix.n_brows, matrix.n_bcols, matrix.brow, matrix.bcol,
           matrix.blocks, xp, yp, segment_sums)
    y += yp[: matrix.nrows]
    return y
