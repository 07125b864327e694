"""Bound kernel programs: marshal a matrix once, run it many times.

The paper charges a cache block 16 B of extents because walking the
block list is meant to cost nothing next to streaming the nonzeros.
That only holds when the walk does no per-block work, so everything a
compiled call needs that does not depend on the caller's vectors is
resolved here, once per matrix:

* :func:`bind_leaf` — the **single place that knows each format's C
  signature** — turns one concrete csr/sellcs/bcsr/bcoo matrix plus a
  loaded kernel into a :class:`BoundLeaf`: the matrix arrays'
  addresses in argument order (the leaf holds the arrays, so no
  pointer can dangle), the trailing integer arguments, and how far the
  tile grid overhangs the matrix;
* :class:`BoundProgram` lays the leaves of a (possibly cache-blocked)
  matrix out as a flat list of ``(fn, args)`` records with each
  block's x/y byte offsets, decides the NumPy-fallback leaves, and
  sizes the zero-padded scratch that overhanging leaves need.

A call is then a loop over pre-bound records with pointers straight
into the caller's ``x`` and ``y`` — or, for the fused SpMM every
compiled format exports, into the caller's row-major ``(n, k)`` blocks,
one C call per leaf for all ``k`` columns. Only a leaf whose tile grid
overhangs its extent (``n_bcols·c ≠ cols`` or ``n_brows·r ≠ rows``)
goes through scratch (``k`` doubles per padded row for SpMM) —
allocated once per call, never per block and never shared between
calls — so a neighbouring block's NaN/Inf cannot meet a padding zero
and nothing is read or written past a buffer end.

Which kernel a leaf runs is the caller's policy, passed in as
``resolve``: dispatch resolves the raced best rung, the loader's
validation and race pin the candidate under test.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np

from ...formats.blocked import CacheBlockedMatrix
from ...formats.multivector import spmm as _np_spmm

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)


def kernel_key(matrix) -> tuple | None:
    """``(fmt, r, c, index_width)`` of the variant that runs ``matrix``,
    or None for a format the C backend does not specialize."""
    fmt = matrix.format_name
    if fmt == "csr":
        return fmt, 1, 1, matrix.index_width
    if fmt == "sellcs":
        return fmt, matrix.chunk, 1, matrix.index_width
    if fmt in ("bcsr", "bcoo"):
        return fmt, matrix.r, matrix.c, matrix.index_width
    return None


class BoundLeaf:
    """One concrete matrix marshalled for one loaded kernel.

    ``head`` are the matrix-array addresses in C argument order, the
    vectors follow, then ``pre`` — a ``[0, units)`` range over rows,
    slices or tile rows, or BCOO's bare tile count — then the fused
    SpMM's column count ``k`` (SpMM only) and ``post``. ``x_pad`` /
    ``y_pad`` are the tile-padded vector lengths when the tile grid
    overhangs the matrix, else 0.
    """

    __slots__ = ("kernel", "shape", "head", "pre", "post", "keep",
                 "x_pad", "y_pad", "spmv_tail")

    def __init__(self, kernel, shape, arrays, units, post=(),
                 x_pad=0, y_pad=0, ranged=True):
        self.kernel = kernel
        self.shape = shape
        #: The arrays ``head`` points into — held for as long as the
        #: leaf is, whatever happens to the matrix's own attributes.
        self.keep = arrays
        self.head = tuple(a.ctypes.data for a in arrays)
        self.pre = (0, units) if ranged else (units,)
        self.post = post
        self.x_pad, self.y_pad = x_pad, y_pad
        self.spmv_tail = self.pre + post

    def spmv(self, x_addr: int, y_addr: int, lo: int, hi: int) -> None:
        """Rows/slices ``[lo, hi)`` of ``y ← y + A·x`` (range formats:
        csr, sellcs, bcsr) on raw float64 addresses."""
        self.kernel.spmv(*self.head, x_addr, y_addr, lo, hi, *self.post)

    def spmm(self, x_addr: int, y_addr: int, k: int,
             lo: int, hi: int) -> None:
        """Rows/slices ``[lo, hi)`` of the fused ``k``-wide SpMM on
        row-major ``(n, k)`` blocks (range formats)."""
        self.kernel.spmm(*self.head, x_addr, y_addr, lo, hi, k,
                         *self.post)


def bind_leaf(matrix, kernel) -> BoundLeaf:
    """Marshal one csr/sellcs/bcsr/bcoo matrix for ``kernel``.

    Every array is brought to the exact dtype and C layout the
    generated signature declares (a no-op for arrays the format
    constructors built) before its address is taken.
    """
    idx = matrix.index_width.dtype

    def arr(a, dtype):
        return np.ascontiguousarray(a, dtype=dtype)

    fmt = matrix.format_name
    if fmt == "csr":
        return BoundLeaf(
            kernel, matrix.shape,
            (arr(matrix.indptr, _I64), arr(matrix.indices, idx),
             arr(matrix.data, _F64)),
            matrix.nrows)
    if fmt == "sellcs":
        # The kernel gathers y through perm, accumulates per slice on
        # the stack and scatters back: no permuted temporary.
        return BoundLeaf(
            kernel, matrix.shape,
            (arr(matrix.slice_ptr, _I64), arr(matrix.cols, idx),
             arr(matrix.vals, _F64), arr(matrix.perm, _I64)),
            matrix.n_slices, post=(matrix.nrows,))
    # Register-blocked formats compute on whole tiles: the vectors must
    # cover the tile grid, which may overhang the matrix.
    x_len, y_len = matrix.n_bcols * matrix.c, matrix.n_brows * matrix.r
    pads = dict(x_pad=x_len if x_len != matrix.ncols else 0,
                y_pad=y_len if y_len != matrix.nrows else 0)
    if fmt == "bcsr":
        return BoundLeaf(
            kernel, matrix.shape,
            (arr(matrix.brow_ptr, _I64), arr(matrix.bcol, idx),
             arr(matrix.blocks, _F64)),
            matrix.n_brows, **pads)
    return BoundLeaf(
        kernel, matrix.shape,
        (arr(matrix.brow, idx), arr(matrix.bcol, idx),
         arr(matrix.blocks, _F64)),
        matrix.ntiles, ranged=False, **pads)


def _padded_step(leaf: BoundLeaf, r0: int, c0: int, xs: int, ys: int):
    """Run one overhanging leaf through its scratch segments: ``xs`` /
    ``ys`` are its offsets (in vector rows) into the per-call scratch,
    -1 for a side that needs none. The same step serves SpMV on vectors
    and the fused SpMM on row-major ``(n, k)`` blocks, whose scratch
    rows are ``k`` wide."""
    rows, cols = leaf.shape
    head = leaf.head

    def run(x, y, scratch):
        if x.ndim == 1:
            k, fn, tail = 1, leaf.kernel.spmv, leaf.spmv_tail
        else:
            k = x.shape[1]
            fn, tail = leaf.kernel.spmm, (*leaf.pre, k, *leaf.post)
        base = scratch.ctypes.data
        if xs >= 0:
            scratch[k * xs:k * (xs + cols)] = x[c0:c0 + cols].reshape(-1)
            x_addr = base + 8 * k * xs
        else:
            x_addr = x.ctypes.data + 8 * k * c0
        y_addr = base + 8 * k * ys if ys >= 0 \
            else y.ctypes.data + 8 * k * r0
        fn(*head, x_addr, y_addr, *tail)
        if ys >= 0:
            block = y[r0:r0 + rows]
            block += scratch[k * ys:k * (ys + rows)].reshape(block.shape)

    return run


def _numpy_step(sub, r0: int, c0: int):
    """A leaf left on its NumPy kernels, on views of the caller's
    vectors (SpMV) or ``(n, k)`` blocks (SpMM)."""
    rows, cols = sub.shape

    def run(x, y, scratch):
        xb, yb = x[c0:c0 + cols], y[r0:r0 + rows]
        if x.ndim == 1:
            sub.spmv(xb, yb)
        else:
            _np_spmm(sub, xb, yb)

    return run


class BoundProgram:
    """A matrix's whole compiled call, resolved ahead of time.

    ``resolve(leaf_matrix)`` returns the loaded kernel a leaf runs, or
    None to leave it on its NumPy kernels. ``token`` is whatever the
    binder wants to compare later to decide the program is stale.

    :meth:`spmv` / :meth:`spmm` take C-contiguous float64 arrays of
    exactly the matrix's shape and do no checking of their own; the
    ``*_counts`` lists say what one call executes, per format, as
    ``(counter name, block count, fmt label)``.
    """

    __slots__ = ("token", "leaves", "scratch_len", "_spmv", "_spmm",
                 "spmv_counts", "spmm_counts")

    def __init__(self, matrix, resolve: Callable, token=None):
        self.token = token
        if isinstance(matrix, CacheBlockedMatrix):
            placed = [(b.matrix, b.r0, b.c0) for b in matrix.blocks]
        else:
            placed = [(matrix, 0, 0)]
        #: Compiled leaves in block order (None where a block stays on
        #: NumPy); a bare matrix has exactly one entry.
        self.leaves: list[BoundLeaf | None] = []
        #: Scratch vector rows one call needs (times k for SpMM).
        self.scratch_len = 0
        # Records are ``(fn, head, x offset, y offset, *ints, slow)``
        # with byte offsets for one vector (SpMM scales them by k):
        # ``slow`` is None on the pointer-only path and otherwise does
        # the step itself from ``(x, y, scratch)``.
        self._spmv: list[tuple] = []
        self._spmm: list[tuple] = []
        spmv_counts: Counter = Counter()
        spmm_counts: Counter = Counter()
        for sub, r0, c0 in placed:
            kernel = resolve(sub)
            leaf = bind_leaf(sub, kernel) if kernel is not None else None
            self.leaves.append(leaf)
            if leaf is None:
                slow = _numpy_step(sub, r0, c0)
            elif leaf.x_pad or leaf.y_pad:
                slow = _padded_step(leaf, r0, c0, self._reserve(leaf.x_pad),
                                    self._reserve(leaf.y_pad))
            else:
                self._spmv.append((leaf.kernel.spmv, leaf.head, 8 * c0,
                                   8 * r0, leaf.spmv_tail, None))
                self._spmm.append((leaf.kernel.spmm, leaf.head, 8 * c0,
                                   8 * r0, leaf.pre, leaf.post, None))
                slow = None
            if slow is not None:
                self._spmv.append((None, (), 0, 0, (), slow))
                self._spmm.append((None, (), 0, 0, (), (), slow))
            outcome = "c_backend.calls" if leaf else "c_backend.fallbacks"
            fmt = sub.format_name
            spmv_counts[outcome, fmt] += 1
            spmm_counts[outcome, f"{fmt}_spmm"] += 1
        self.spmv_counts = [(name, n, fmt) for (name, fmt), n
                            in spmv_counts.items()]
        self.spmm_counts = [(name, n, fmt) for (name, fmt), n
                            in spmm_counts.items()]

    def _reserve(self, n: int) -> int:
        """Offset of ``n`` fresh scratch rows, or -1 when ``n`` is 0."""
        if not n:
            return -1
        offset, self.scratch_len = self.scratch_len, self.scratch_len + n
        return offset

    def spmv(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``y ← y + A·x``; returns ``y``."""
        xb, yb = x.ctypes.data, y.ctypes.data
        scratch = np.zeros(self.scratch_len) if self.scratch_len else None
        for fn, head, xo, yo, tail, slow in self._spmv:
            if slow is None:
                fn(*head, xb + xo, yb + yo, *tail)
            else:
                slow(x, y, scratch)
        return y

    def spmm(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``Y ← Y + A·X`` for row-major ``(n, k)`` blocks: one matrix
        sweep for all ``k`` columns on every compiled leaf."""
        k = x.shape[1]
        xb, yb = x.ctypes.data, y.ctypes.data
        scratch = np.zeros(self.scratch_len * k) if self.scratch_len \
            else None
        for fn, head, xo, yo, pre, post, slow in self._spmm:
            if slow is None:
                fn(*head, xb + xo * k, yb + yo * k, *pre, k, *post)
            else:
                slow(x, y, scratch)
        return y
