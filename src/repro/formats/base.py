"""Abstract base class shared by every sparse storage format."""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from .._util import VALUE_BYTES, check_shape

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .coo import COOMatrix


class IndexWidth(enum.IntEnum):
    """Bytes per stored row/column index.

    The paper's data-structure optimization stores 2-byte indices whenever
    the indexed span is below 64 K entries, halving index traffic.
    """

    I16 = 2
    I32 = 4

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint16 if self is IndexWidth.I16 else np.uint32)

    @property
    def max_span(self) -> int:
        """Largest dimension addressable with this width."""
        return 1 << (8 * int(self))


class SparseFormat(ABC):
    """Common interface of all sparse matrix storage formats.

    Concrete formats store an ``m × n`` double-precision matrix and expose:

    * numerically correct SpMV (``y ← y + A·x``) via :meth:`spmv`,
    * exact storage footprint via :meth:`footprint_bytes` (the quantity
      the paper's selection heuristic minimizes),
    * lossless conversion back to COO via :meth:`to_coo`.

    ``nnz_stored`` may exceed ``nnz_logical`` for blocked formats that pad
    tiles with explicit zeros; *effective* flop rates in the paper are
    always computed from the logical count (``2 · nnz_logical`` flops).
    """

    #: Short lowercase name used by the kernel registry, e.g. ``"csr"``.
    format_name: str = "abstract"

    def __init__(self, shape: tuple[int, int]):
        self._shape = check_shape(shape)

    # ------------------------------------------------------------------
    # Shape and size
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Matrix dimensions ``(rows, columns)``."""
        return self._shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    @abstractmethod
    def nnz_stored(self) -> int:
        """Number of stored values, including explicit block-fill zeros."""

    @property
    @abstractmethod
    def nnz_logical(self) -> int:
        """Number of mathematically nonzero entries of the original matrix."""

    @property
    def fill_ratio(self) -> float:
        """``nnz_stored / nnz_logical`` — 1.0 means no padding waste."""
        if self.nnz_logical == 0:
            return 1.0
        return self.nnz_stored / self.nnz_logical

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    @abstractmethod
    def spmv(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """Compute ``y ← y + A·x`` and return ``y``.

        Parameters
        ----------
        x : ndarray, shape (ncols,)
            Source vector.
        y : ndarray, shape (nrows,), optional
            Destination vector, accumulated in place. A fresh zero vector
            is allocated when omitted.
        """

    @abstractmethod
    def to_coo(self) -> "COOMatrix":
        """Lossless conversion to COO (explicit padding zeros dropped)."""

    @abstractmethod
    def footprint_bytes(self) -> int:
        """Exact bytes of matrix storage (values + indices + pointers)."""

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------
    def _check_spmv_args(
        self, x: np.ndarray, y: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(
                f"x has shape {x.shape}, expected ({self.ncols},) for "
                f"matrix of shape {self.shape}"
            )
        if y is None:
            y = np.zeros(self.nrows, dtype=np.float64)
        else:
            y = np.asarray(y)
            if y.shape != (self.nrows,):
                raise ValueError(
                    f"y has shape {y.shape}, expected ({self.nrows},)"
                )
            if y.dtype != np.float64:
                raise ValueError("y must be float64 to accumulate in place")
            if np.may_share_memory(x, y):
                # The kernels write y while they still read x.
                x = x.copy()
        return x, y

    def __getstate__(self) -> dict:
        # The C backend caches its bound program (ctypes pointers,
        # meaningful in this process only) on the matrix; a copy or a
        # pickle re-binds on its own first compiled call.
        state = self.__dict__.copy()
        state.pop("_c_program", None)
        return state

    def toarray(self) -> np.ndarray:
        """Densify (small matrices / tests only)."""
        return self.to_coo().toarray()

    @property
    def value_bytes(self) -> int:
        """Bytes spent on stored values alone."""
        return VALUE_BYTES * self.nnz_stored

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.nrows}x{self.ncols} "
            f"nnz={self.nnz_logical} stored={self.nnz_stored} "
            f"bytes={self.footprint_bytes()}>"
        )
