"""Small shared utilities used across the library.

These helpers deliberately avoid any per-element Python loops: every
routine is a thin composition of vectorized NumPy primitives so that the
library remains usable on matrices with tens of millions of nonzeros.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable

import numpy as np

from .errors import MatrixFormatError

#: Bytes per double-precision value (the paper stores all values as FP64).
VALUE_BYTES = 8

#: Bytes per row-pointer entry (CSR-style formats use 32-bit pointers).
POINTER_BYTES = 4


def as_f64(a: np.ndarray | Iterable[float]) -> np.ndarray:
    """Return ``a`` as a contiguous float64 array (view when possible)."""
    return np.ascontiguousarray(a, dtype=np.float64)


def as_index(a: np.ndarray | Iterable[int], dtype=np.int64) -> np.ndarray:
    """Return ``a`` as a contiguous integer index array."""
    return np.ascontiguousarray(a, dtype=dtype)


def check_shape(shape: tuple[int, int]) -> tuple[int, int]:
    """Validate an ``(m, n)`` shape, returning it as plain ints."""
    try:
        m, n = shape
    except (TypeError, ValueError) as exc:  # not a 2-sequence
        raise MatrixFormatError(f"shape must be a pair, got {shape!r}") from exc
    m, n = int(m), int(n)
    if m < 0 or n < 0:
        raise MatrixFormatError(f"shape must be non-negative, got {(m, n)}")
    return m, n


def check_coo_arrays(
    row: np.ndarray, col: np.ndarray, val: np.ndarray, shape: tuple[int, int]
) -> None:
    """Validate raw COO triplet arrays against a shape.

    Raises
    ------
    MatrixFormatError
        If lengths disagree or any index falls outside ``shape``.
    """
    m, n = shape
    if not (len(row) == len(col) == len(val)):
        raise MatrixFormatError(
            f"COO arrays disagree in length: {len(row)}, {len(col)}, {len(val)}"
        )
    if len(row) == 0:
        return
    if row.min(initial=0) < 0 or (m and row.max(initial=0) >= m):
        raise MatrixFormatError("row index out of range")
    if col.min(initial=0) < 0 or (n and col.max(initial=0) >= n):
        raise MatrixFormatError("column index out of range")
    if m == 0 or n == 0:
        raise MatrixFormatError("nonzeros present in a zero-dimension matrix")


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative operands."""
    return -(-a // b)


def dedupe_coo(
    row: np.ndarray, col: np.ndarray, val: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort triplets row-major and sum duplicate ``(row, col)`` entries.

    Returns new arrays; inputs are never modified.
    """
    if len(row) == 0:
        return row.copy(), col.copy(), val.copy()
    order = np.lexsort((col, row))
    row, col, val = row[order], col[order], val[order]
    # Boundary mask: True where a new (row, col) pair starts.
    new = np.empty(len(row), dtype=bool)
    new[0] = True
    np.not_equal(row[1:], row[:-1], out=new[1:])
    np.logical_or(new[1:], col[1:] != col[:-1], out=new[1:])
    if new.all():
        return row, col, val
    starts = np.flatnonzero(new)
    sums = np.add.reduceat(val, starts)
    return row[starts], col[starts], sums


def segment_sums(values: np.ndarray, starts: np.ndarray, total: int) -> np.ndarray:
    """Sum ``values`` over leading-axis segments given by ``starts``.

    ``starts`` has one entry per segment (ascending, within
    ``[0, len(values)]``); empty segments yield 0. This wraps
    ``np.add.reduceat`` which mishandles empty segments (it returns the
    element at the start index instead of zero), a sharp edge every CSR
    row-reduction in this library must avoid. ``values`` may be N-D; the
    reduction runs over axis 0.
    """
    nseg = len(starts)
    out = np.zeros((nseg,) + values.shape[1:], dtype=values.dtype)
    if len(values) == 0 or nseg == 0:
        return out
    ends = np.empty(nseg, dtype=starts.dtype)
    ends[:-1] = starts[1:]
    ends[-1] = total
    nonempty = ends > starts
    if not nonempty.any():
        return out
    red = np.add.reduceat(values, starts[nonempty], axis=0)
    out[nonempty] = red
    return out


def balanced_bounds(counts: np.ndarray, n_parts: int) -> np.ndarray:
    """``n_parts + 1`` bounds cutting ``counts``' items into contiguous
    runs of (nearly) equal sums: a cut follows the first item at which
    the running sum reaches each multiple of ``sum / n_parts``."""
    m = len(counts)
    csum = np.cumsum(counts)
    total = int(csum[-1]) if m else 0
    targets = (np.arange(1, n_parts) * total) / n_parts
    cuts = np.searchsorted(csum, targets, side="left") + 1
    bounds = np.concatenate([[0], cuts, [m]]).astype(np.int64)
    # Monotonicity guard: empty leading items can produce repeated cuts.
    bounds = np.maximum.accumulate(bounds)
    bounds[-1] = m
    return bounds


def unique_count(a: np.ndarray) -> int:
    """Number of distinct values in integer array ``a`` (0 for empty
    input). Sorts and counts the steps: ``np.unique`` can take a hash
    path that is an order of magnitude slower on large index keys."""
    if len(a) == 0:
        return 0
    s = np.sort(a, axis=None)
    return int(np.count_nonzero(s[1:] != s[:-1])) + 1


# ----------------------------------------------------------------------
# On-disk artifacts
# ----------------------------------------------------------------------
def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Publish ``text`` at ``path`` so readers see the old content or
    the new, never a torn file.

    The temporary file is created with a unique name in the target
    directory (same filesystem, so the final ``os.replace`` is atomic):
    concurrent writers — threads or processes — never share it, and it
    is removed if anything fails before the rename.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".",
        prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: str | os.PathLike, doc, *,
                      indent: int | None = None) -> None:
    """:func:`write_text_atomic` of ``doc`` serialized as JSON."""
    write_text_atomic(path, json.dumps(doc, indent=indent))


def read_json(path: str | os.PathLike) -> dict | None:
    """The JSON object stored at ``path``; ``None`` when the file is
    missing, unreadable, not JSON, or not an object. Stamp validation
    (versions, host, fingerprint) is the caller's."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None
