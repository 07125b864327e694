"""SELL-C-σ: sorted sliced ELLPACK (Kreutzer et al.).

The format the many-core follow-ups to the paper converge on for
short-row and irregular matrices (arXiv 1805.11938 measures it beating
CSR on KNL and FT-2000+): rows are sorted by descending length inside
σ-row windows (a *local* sort, so the permutation stays cache-friendly),
then grouped into slices of C consecutive permuted rows. Each slice is
padded to its longest row and stored **lane-major** — element j of lane
i lives at ``slice_ptr[s] + j*C + i`` — so C rows advance together
through one unit-stride stream: the inner loop over lanes is a pure
vector operation with no per-row loop overhead, which is exactly what
CSR lacks when rows are short.

Padding cost is explicit: ``nnz_stored`` counts the padded elements and
:attr:`~repro.formats.base.SparseFormat.fill_ratio` is the measured
fill, which the planner weighs like BCSR tile fill. The σ sort bounds
the padding (σ = nrows gives a full sort and minimal fill; σ = C
degenerates to plain sliced ELLPACK).

SpMV gathers the caller's ``y`` into the permuted space, accumulates
there, and scatters once at the end (``y[perm] = yp[:nrows]``). Each
lane adds its row's elements on top of the initial value sequentially
in column order — the same summation sequence as
:func:`repro.kernels.reference.spmv_reference` — so the NumPy path is
bit-identical to the per-entry reference for finite inputs, permutation
round-trip included.

16-bit indices: column indices address the *original* column space
(unlike BCSR's block columns), so ``IndexWidth.I16`` is refused for
matrices wider than 64 K columns.

The planner picks it through ``OptimizationConfig.sellcs_chunk`` /
``sellcs_sigma`` (:func:`sellcs_stats` prices the fill from row
counts alone), and the autoplan sweep offers it as a candidate with a
``sellcs_fill_8`` feature.
"""

from __future__ import annotations

import numpy as np

from .._util import POINTER_BYTES, VALUE_BYTES, as_f64, as_index, ceil_div
from ..errors import ConversionError, MatrixFormatError
from .base import IndexWidth, SparseFormat
from .coo import COOMatrix
from .index import pack_indices

#: Default slice height. 8 doubles = one AVX-512 register / two NEON
#: quads — wide enough to amortize the slice loop, small enough to keep
#: padding low on power-law rows.
DEFAULT_CHUNK = 8

#: Default sort-window size in chunks (σ = 16·C unless given).
DEFAULT_SIGMA_CHUNKS = 16


class SellCSMatrix(SparseFormat):
    """SELL-C-σ storage: σ-window sorted, C-row slices, lane-major.

    Parameters
    ----------
    shape : (int, int)
        Logical matrix dimensions.
    chunk : int
        Slice height C (>= 1).
    sigma : int
        Sorting-window size in rows (normalized to a multiple of C by
        :func:`to_sellcs`; stored for provenance).
    perm : array_like of int, length ``nrows``
        ``perm[p]`` is the original row stored at permuted position p.
    slice_ptr : array_like of int, length ``n_slices + 1``
        Element offsets per slice; each slice spans ``w_s * C`` packed
        elements where w_s is its padded width.
    cols : array_like of int
        Column indices, lane-major per slice; padding lanes point at
        column 0 with value 0.
    vals : array_like of float
        Values, same layout as ``cols``.
    nnz_logical : int
        True nonzero count (excludes padding).
    index_width : IndexWidth
        Storage width of ``cols`` (addresses the original columns).
    """

    format_name = "sellcs"

    def __init__(self, shape, chunk, sigma, perm, slice_ptr, cols, vals,
                 nnz_logical, index_width: IndexWidth = IndexWidth.I32):
        super().__init__(shape)
        chunk = int(chunk)
        if chunk < 1:
            raise MatrixFormatError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk
        self.sigma = int(sigma)
        self.n_slices = ceil_div(self.nrows, chunk) if self.nrows else 0
        perm = as_index(perm)
        slice_ptr = as_index(slice_ptr)
        vals = as_f64(vals)
        if len(perm) != self.nrows:
            raise MatrixFormatError(
                f"perm length {len(perm)} != nrows {self.nrows}"
            )
        if len(slice_ptr) != self.n_slices + 1:
            raise MatrixFormatError(
                f"slice_ptr length {len(slice_ptr)} != n_slices+1 = "
                f"{self.n_slices + 1}"
            )
        if slice_ptr[0] != 0 or slice_ptr[-1] != len(vals):
            raise MatrixFormatError("slice_ptr endpoints inconsistent")
        spans = np.diff(slice_ptr)
        if np.any(spans < 0):
            raise MatrixFormatError("slice_ptr must be non-decreasing")
        if np.any(spans % chunk):
            raise MatrixFormatError(
                "every slice must span a multiple of chunk elements"
            )
        if len(cols) != len(vals):
            raise MatrixFormatError("cols and vals lengths differ")
        self.perm = perm
        self.slice_ptr = slice_ptr
        # Column indices address the original column space, so 16-bit
        # storage is only legal up to 64 K columns — refused loudly.
        self.cols = pack_indices(as_index(cols), index_width,
                                 max(self.ncols, 1))
        self.vals = vals
        self._nnz_logical = int(nnz_logical)
        self.index_width = IndexWidth(index_width)

    # ------------------------------------------------------------------
    @property
    def nnz_stored(self) -> int:
        return len(self.vals)

    @property
    def nnz_logical(self) -> int:
        return self._nnz_logical

    # ------------------------------------------------------------------
    def spmv(self, x, y=None):
        """``y ← y + A·x`` in permuted space, one scatter at the end.

        Slices are processed grouped by padded width so the j-loop runs
        once per *distinct* width, vectorized over (slices × lanes).
        Each lane sums its row sequentially in column order — the
        per-entry reference order — so the result is bit-identical to
        :func:`repro.kernels.reference.spmv_reference`.
        """
        x, y = self._check_spmv_args(x, y)
        if self.n_slices == 0 or self.nnz_stored == 0:
            return y
        C = self.chunk
        # Seed the permuted accumulator from the caller's y so every
        # lane adds its elements on top of the initial value, oldest
        # first — the reference kernel's exact summation order.
        yp = np.zeros(self.n_slices * C, dtype=np.float64)
        yp[: self.nrows] = y[self.perm]
        yp2 = yp.reshape(self.n_slices, C)
        widths = np.diff(self.slice_ptr) // C
        lanes = np.arange(C, dtype=np.int64)
        for w in np.unique(widths):
            if w == 0:
                continue
            sl = np.flatnonzero(widths == w)
            starts = self.slice_ptr[sl]
            acc = yp2[sl].copy()
            for j in range(int(w)):
                idx = (starts + j * C)[:, None] + lanes[None, :]
                acc += self.vals[idx] * x[self.cols[idx]]
            yp2[sl] = acc
        y[self.perm] = yp[: self.nrows]
        return y

    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        """Expand slices to triplets, dropping padding (zero) entries."""
        if self.nnz_stored == 0 or self.nrows == 0:
            return COOMatrix.empty(self.shape)
        C = self.chunk
        rows_l, cols_l, vals_l = [], [], []
        for s in range(self.n_slices):
            lo, hi = int(self.slice_ptr[s]), int(self.slice_ptr[s + 1])
            w = (hi - lo) // C
            if w == 0:
                continue
            v = self.vals[lo:hi].reshape(w, C)
            cmat = self.cols[lo:hi].reshape(w, C).astype(np.int64)
            pos = s * C + np.arange(C)
            real = pos < self.nrows
            rowv = np.where(real,
                            self.perm[np.minimum(pos, self.nrows - 1)],
                            -1)
            mask = (v != 0.0) & real[None, :]
            rows_l.append(np.broadcast_to(rowv, (w, C))[mask])
            cols_l.append(cmat[mask])
            vals_l.append(v[mask])
        if not rows_l:
            return COOMatrix.empty(self.shape)
        return COOMatrix(
            self.shape, np.concatenate(rows_l), np.concatenate(cols_l),
            np.concatenate(vals_l), dedupe=False,
        )

    def footprint_bytes(self) -> int:
        """padded values + one index per padded value + slice pointers
        + the row permutation."""
        return (
            VALUE_BYTES * self.nnz_stored
            + int(self.index_width) * self.nnz_stored
            + POINTER_BYTES * (self.n_slices + 1)
            + POINTER_BYTES * self.nrows
        )

    @staticmethod
    def estimate_footprint(nnz_stored: int, n_slices: int, nrows: int,
                           index_width: IndexWidth) -> int:
        """Footprint formula without materializing the matrix."""
        return (
            VALUE_BYTES * nnz_stored
            + int(index_width) * nnz_stored
            + POINTER_BYTES * (n_slices + 1)
            + POINTER_BYTES * nrows
        )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def normalize_sigma(chunk: int, sigma) -> int:
    """σ as a whole number of chunks, at least one chunk."""
    if sigma is None:
        sigma = chunk * DEFAULT_SIGMA_CHUNKS
    return max(chunk, (int(sigma) // chunk) * chunk)


def _sorted_counts(counts: np.ndarray, chunk: int,
                   sigma: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, padded slice widths) for a row-length array."""
    m = len(counts)
    win = np.arange(m, dtype=np.int64) // sigma
    # Stable within-window sort by descending row length: lexsort's
    # last key is primary, the row index breaks ties deterministically.
    perm = np.lexsort((np.arange(m), -counts, win))
    n_slices = ceil_div(m, chunk) if m else 0
    padded = np.zeros(n_slices * chunk, dtype=np.int64)
    padded[:m] = counts[perm]
    widths = padded.reshape(n_slices, chunk).max(axis=1) \
        if n_slices else np.zeros(0, dtype=np.int64)
    return perm, widths


def sellcs_stats(counts: np.ndarray, chunk: int = DEFAULT_CHUNK,
                 sigma: int | None = None) -> tuple[int, int]:
    """(n_slices, nnz_stored) for given row lengths — the one-pass
    statistic the planner needs, without materializing anything."""
    chunk = int(chunk)
    if chunk < 1:
        raise ConversionError(f"chunk must be >= 1, got {chunk}")
    sigma = normalize_sigma(chunk, sigma)
    counts = np.asarray(counts, dtype=np.int64)
    _, widths = _sorted_counts(counts, chunk, sigma)
    return len(widths), int(widths.sum()) * chunk


def to_sellcs(coo: COOMatrix, chunk: int = DEFAULT_CHUNK,
              sigma: int | None = None,
              index_width: IndexWidth | None = None) -> SellCSMatrix:
    """Convert sorted COO triplets to SELL-C-σ.

    ``sigma`` defaults to 16 chunks and is normalized to a multiple of
    ``chunk``; values larger than ``nrows`` mean a full sort. The index
    width defaults to the narrowest width that can address ``ncols``.
    """
    from .convert import _auto_width

    chunk = int(chunk)
    if chunk < 1:
        raise ConversionError(f"chunk must be >= 1, got {chunk}")
    sigma = normalize_sigma(chunk, sigma)
    m, n = coo.shape
    width = _auto_width(max(n, 1), index_width)
    counts = coo.row_counts()
    perm, widths = _sorted_counts(counts, chunk, sigma)
    n_slices = len(widths)
    slice_ptr = np.zeros(n_slices + 1, dtype=np.int64)
    np.cumsum(widths * chunk, out=slice_ptr[1:])
    total = int(slice_ptr[-1])
    cols = np.zeros(total, dtype=np.int64)
    vals = np.zeros(total, dtype=np.float64)
    if coo.nnz_logical:
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        inv = np.empty(m, dtype=np.int64)
        inv[perm] = np.arange(m, dtype=np.int64)
        pos = inv[coo.row]             # permuted position of each nnz
        s = pos // chunk
        lane = pos % chunk
        j = np.arange(coo.nnz_logical, dtype=np.int64) - indptr[coo.row]
        dest = slice_ptr[s] + j * chunk + lane
        cols[dest] = coo.col
        vals[dest] = coo.val
    return SellCSMatrix(
        coo.shape, chunk, sigma, perm, slice_ptr, cols, vals,
        nnz_logical=coo.nnz_logical, index_width=width,
    )
