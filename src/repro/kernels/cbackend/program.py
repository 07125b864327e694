"""Bound kernel programs: marshal a matrix once, run it in one C call.

The paper charges a cache block 16 B of extents because walking the
block list is meant to cost nothing next to streaming the nonzeros.
That only holds when the walk does no per-block work, so everything a
compiled call needs that does not depend on the caller's vectors is
resolved here, once per matrix, and the walk itself runs in C:

* :func:`bind_leaf` — the **single place that knows each format's C
  signature** — turns one concrete csr/sellcs/bcsr/bcoo matrix plus a
  loaded kernel into a :class:`BoundLeaf`: the kernel's function
  addresses, the matrix arrays' addresses in argument order (the leaf
  holds the arrays, so no pointer can dangle), the unit count, and how
  far the tile grid overhangs the matrix;
* :class:`LeafTable` packs leaves into one int64 array — a header, the
  row-panel bounds, each team slot's first panel, then one entry per
  leaf (kernel kind, function addresses, argument block, x/y offsets,
  scratch offsets) — that the generated runner
  (:func:`~repro.kernels.cbackend.codegen.runner_source`) walks in one
  call: ``repro_run_spmv``, or ``repro_run_spmm`` with the fused
  SpMM's column count ``k`` on row-major ``(n, k)`` blocks;
* :class:`BoundProgram` lays a (possibly cache-blocked) matrix out as
  one such table in block order.

Only a leaf whose tile grid overhangs its extent (``n_bcols·c ≠ cols``
or ``n_brows·r ≠ rows``) goes through scratch (``k`` doubles per padded
row for SpMM): the runner allocates it zeroed once per call, never per
block and never shared between calls, copies the leaf's x segment in,
runs the kernel into its own y segment and adds that onto the caller's
rows — so a neighbouring block's NaN/Inf cannot meet a padding zero and
nothing is read or written past a buffer end.

**Threads.** Leaves are grouped into *row panels*: maximal runs of
blocks whose row extents do not overlap any later block's. A program
runs on ``min(plan n_threads, CPUs this process may use, panels)``
slots of the runner's thread team — created once per process, grown
to the widest program run so far, parked on a condition variable
between calls (no CPU while idle), the calling thread being slot 0
(it polls for the other slots for at most 20 µs before it sleeps).
Each slot owns a contiguous, nonzero-balanced run of panels and runs
its blocks in block order (the paper's static, nnz-balanced row
partition, §4.3), so every row is summed by one thread in the serial
order and the result is bit-identical to one thread. A caller that
finds the team busy runs its whole table serially in its own call
(counted in ``c_backend.team_busy``) rather than wait behind another
matrix. The team sits behind :func:`~repro.kernels.cbackend.build.
thread_flags`, a ``-pthread`` probe; without it every program runs
serially, still in one C call. A forked child gets no team threads:
the runner's ``pthread_atfork`` handler resets the team there, and the
child builds its own on its first multi-panel call.

A leaf left on its NumPy kernels (GCSR, or a variant that failed
validation) keeps a Python step of its own, between serial C calls for
the compiled runs around it.

Which kernel a leaf runs is the caller's policy, passed in as
``resolve``: dispatch resolves the raced best rung, the loader's
validation and race pin the candidate under test.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections import Counter
from itertools import groupby
from typing import Callable

import numpy as np

from ..._util import balanced_bounds
from ...errors import KernelError
from ...formats.blocked import CacheBlockedMatrix
from ...formats.multivector import spmm as _np_spmm
from ...observe import metrics as _metrics
from .build import build_runner
from .codegen import (KIND_COUNT, KIND_RANGED, KIND_SELLCS, PROGRAM_HEADER,
                      TABLE_FIELDS)

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_PTR = ctypes.c_void_p


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

    ``head`` are the matrix-array addresses in C argument order;
    ``units`` is the row, slice or tile-row count a range covers (or
    BCOO's bare tile count); ``post`` is SELL-C-σ's real row count.
    ``x_pad`` / ``y_pad`` are the tile-padded vector lengths when the
    tile grid overhangs the matrix, else 0.
    """

    __slots__ = ("kernel", "shape", "kind", "fns", "head", "units",
                 "post", "keep", "x_pad", "y_pad")

    def __init__(self, kernel, shape, arrays, units, kind=KIND_RANGED,
                 post=0, x_pad=0, y_pad=0):
        self.kernel = kernel
        self.shape = shape
        self.kind = kind
        try:
            self.fns = [ctypes.cast(fn, _PTR).value
                        for fn in (kernel.spmv, kernel.spmm)]
        except (ctypes.ArgumentError, TypeError) as exc:
            raise KernelError(f"{kernel!r}: an entry is not compiled") \
                from exc
        #: The arrays ``head`` points into — held for as long as the
        #: leaf is, whatever happens to the matrix's own attributes.
        self.keep = arrays
        self.head = tuple(a.ctypes.data for a in arrays)
        self.units = units
        self.post = post
        self.x_pad, self.y_pad = x_pad, y_pad

    def entry(self, r0: int, c0: int, xs: int = -1, ys: int = -1,
              lo: int = 0, hi: int | None = None) -> list[int]:
        """This leaf's table entry at block offset ``(r0, c0)``: units
        ``[lo, hi)`` (default all), scratch rows ``xs`` / ``ys``."""
        a0, a1, a2, a3 = (*self.head, 0)[:4]
        rows, cols = self.shape
        words = dict(kind=self.kind, spmv=self.fns[0], spmm=self.fns[1],
                     a0=a0, a1=a1, a2=a2, a3=a3, lo=lo,
                     hi=self.units if hi is None else hi, post=self.post,
                     x=c0, y=r0, xs=xs, ys=ys, cols=cols, rows=rows)
        return [words[name] for name in TABLE_FIELDS]


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
            matrix.n_slices, kind=KIND_SELLCS, post=matrix.nrows)
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
        matrix.ntiles, kind=KIND_COUNT, **pads)


@functools.cache
def _load_runner(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    lib.repro_run_spmv.argtypes = [_PTR] * 4
    lib.repro_run_spmm.argtypes = [_PTR] * 3 + [ctypes.c_int64, _PTR]
    lib.repro_team_capable.argtypes = []
    lib.repro_run_spmv.restype = lib.repro_run_spmm.restype = \
        lib.repro_team_capable.restype = ctypes.c_int
    return lib


def runner() -> ctypes.CDLL:
    """This compiler's program runner, built and loaded once."""
    return _load_runner(build_runner())


def team_limit() -> int:
    """Threads a program may use here: the CPUs this process may run
    on, or 1 when the runner was built without a thread team."""
    if not runner().repro_team_capable():
        return 1
    if hasattr(os, "sched_getaffinity"):       # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class LeafTable:
    """Leaf-table entries packed for the runner, with their row panels.

    ``panels`` are the entry bounds of the row panels (``[0, ..., n]``)
    and ``nnz`` each entry's stored nonzeros; ``width`` slots split the
    panels into nonzero-balanced runs (1: serial). ``scratch`` is the
    rows of padding scratch one call needs per vector column.
    """

    __slots__ = ("words", "addr", "width", "slots", "_spmv", "_spmm")

    def __init__(self, entries: list[list[int]], panels: list[int],
                 nnz, width: int, scratch: int):
        lib = runner()
        n_panels = len(panels) - 1
        width = max(1, min(width, n_panels))
        slots = balanced_bounds(np.add.reduceat(nnz, panels[:-1]),
                                width).tolist() if width > 1 \
            else [0, n_panels]
        header = dict(panels=n_panels, width=width, scratch=scratch,
                      table=len(PROGRAM_HEADER) + len(panels) + len(slots))
        words = [header[name] for name in PROGRAM_HEADER] + panels + slots
        self.words = np.array(
            words + [word for entry in entries for word in entry],
            dtype=np.int64)
        self.addr = self.words.ctypes.data
        self.width = width
        #: Each slot's first panel, then the panel count.
        self.slots = slots
        self._spmv, self._spmm = lib.repro_run_spmv, lib.repro_run_spmm

    def run(self, x: np.ndarray, y: np.ndarray, times=None) -> int:
        """``y ← y + A·x``, or ``Y ← Y + A·X`` on row-major ``(n, k)``
        blocks; returns the slots that ran it. ``times`` (float64, one
        per slot) receives each slot's seconds."""
        t = None if times is None else times.ctypes.data
        if x.ndim == 1:
            used = self._spmv(self.addr, x.ctypes.data, y.ctypes.data, t)
        else:
            used = self._spmm(self.addr, x.ctypes.data, y.ctypes.data,
                              x.shape[1], t)
        if used < 0:
            raise MemoryError("no memory for the program's padding scratch")
        return used


def _table(leaves, placed, panels, width: int) -> LeafTable:
    """``leaves`` at their block offsets, each padded leaf given its
    own scratch rows."""
    entries, scratch = [], 0
    nnz = [sub.nnz_stored for sub, _, _ in placed]
    for leaf, (_, r0, c0) in zip(leaves, placed):
        xs = ys = -1
        if leaf.x_pad:
            xs, scratch = scratch, scratch + leaf.x_pad
        if leaf.y_pad:
            ys, scratch = scratch, scratch + leaf.y_pad
        entries.append(leaf.entry(r0, c0, xs, ys))
    return LeafTable(entries, panels, nnz, width, scratch)


def _row_panels(extents: list[tuple[int, int]]) -> list[int]:
    """Entry bounds of the row panels of blocks with row extents
    ``extents`` (in block order): a panel ends where no later block
    reaches back into a row it covers."""
    if not extents:
        return [0]
    r0, r1 = np.array(extents, dtype=np.int64).T
    reach = np.maximum.accumulate(r1)[:-1]
    floor = np.minimum.accumulate(r0[::-1])[::-1][1:]
    return [0, *(1 + np.flatnonzero(reach <= floor)).tolist(), len(extents)]


def _numpy_step(sub, r0: int, c0: int):
    """A leaf left on its NumPy kernels, on views of the caller's
    vectors (SpMV) or ``(n, k)`` blocks (SpMM)."""
    rows, cols = sub.shape

    def run(x, y):
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

    __slots__ = ("token", "leaves", "table", "_steps", "spmv_counts",
                 "spmm_counts")

    def __init__(self, matrix, resolve: Callable, token=None):
        self.token = token
        if isinstance(matrix, CacheBlockedMatrix):
            placed = [(b.matrix, b.r0, b.c0) for b in matrix.blocks]
            n_threads = matrix.n_threads
        else:
            placed = [(matrix, 0, 0)]
            n_threads = 1
        #: Compiled leaves in block order (None where a block stays on
        #: NumPy); a bare matrix has exactly one entry.
        self.leaves: list[BoundLeaf | None] = []
        spmv_counts: Counter = Counter()
        spmm_counts: Counter = Counter()
        for sub, _, _ in placed:
            kernel = resolve(sub)
            leaf = bind_leaf(sub, kernel) if kernel is not None else None
            self.leaves.append(leaf)
            outcome = "c_backend.calls" if leaf else "c_backend.fallbacks"
            fmt = sub.format_name
            spmv_counts[outcome, fmt] += 1
            spmm_counts[outcome, f"{fmt}_spmm"] += 1
        self.spmv_counts = [(name, n, fmt) for (name, fmt), n
                            in spmv_counts.items()]
        self.spmm_counts = [(name, n, fmt) for (name, fmt), n
                            in spmm_counts.items()]
        #: The one table every call walks; None when a NumPy leaf
        #: splits the program into the serial ``_steps``.
        self.table: LeafTable | None = None
        self._steps: list[Callable] = []
        if all(self.leaves):
            extents = [(r0, r0 + sub.nrows) for sub, r0, _ in placed]
            self.table = _table(self.leaves, placed, _row_panels(extents),
                                min(n_threads, team_limit()))
            return
        for compiled, run in groupby(range(len(placed)),
                                     lambda i: self.leaves[i] is not None):
            run = list(run)
            if compiled:
                self._steps.append(_table(
                    [self.leaves[i] for i in run], [placed[i] for i in run],
                    [0, len(run)], 1).run)
            else:
                self._steps.extend(_numpy_step(*placed[i]) for i in run)

    def _run(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        table = self.table
        if table is None:
            for step in self._steps:
                step(x, y)
        elif table.run(x, y) < table.width:
            _metrics.inc("c_backend.team_busy")
        return y

    def spmv(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``y ← y + A·x``; returns ``y``."""
        return self._run(x, y)

    def spmm(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``Y ← Y + A·X`` for row-major ``(n, k)`` blocks: one matrix
        sweep for all ``k`` columns on every compiled leaf."""
        return self._run(x, y)
