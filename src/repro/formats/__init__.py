"""Sparse matrix storage formats.

This package implements, from scratch, every data structure the paper's
optimization study manipulates:

* :class:`~repro.formats.coo.COOMatrix` — coordinate triplets, the
  interchange format all generators produce.
* :class:`~repro.formats.csr.CSRMatrix` — compressed sparse row, the
  baseline format of the naive and OSKI kernels.
* :class:`~repro.formats.bcsr.BCSRMatrix` — register-blocked CSR with
  r×c dense tiles (power-of-two sizes up to 4×4 in the paper).
* :class:`~repro.formats.bcoo.BCOOMatrix` — block coordinate storage,
  used when empty rows would waste CSR row-pointer space.
* :class:`~repro.formats.gcsr.GCSRMatrix` — generalized CSR storing only
  non-empty rows (the OSKI alternative the paper mentions).
* :class:`~repro.formats.blocked.CacheBlockedMatrix` — the compound
  cache/TLB-blocked format whose sub-blocks each carry their own
  heuristically chosen sub-format.
* :class:`~repro.formats.sellcs.SellCSMatrix` — SELL-C-σ sorted sliced
  ELLPACK, the vector-friendly format of the many-core follow-ups, for
  short-row and irregular matrices.

Index compression (16-bit vs 32-bit column/row indices) is a property of
each concrete format; see :mod:`repro.formats.index`.
"""

from .base import IndexWidth, SparseFormat
from .bcoo import BCOOMatrix
from .bcsr import BCSRMatrix
from .blocked import CacheBlock, CacheBlockedMatrix
from .convert import (
    coo_to_csr,
    to_bcoo,
    to_bcsr,
    to_cache_blocked,
    to_gcsr,
    to_sellcs,
)
from .coo import COOMatrix
from .csr import CSRMatrix
from .footprint import naive_footprint_bytes
from .gcsr import GCSRMatrix
from .index import min_index_width, validate_index_width
from .multivector import spmm, spmm_intensity_gain
from .sellcs import SellCSMatrix
from .symmetric import SymmetricCSRMatrix

__all__ = [
    "BCOOMatrix",
    "BCSRMatrix",
    "CacheBlock",
    "CacheBlockedMatrix",
    "COOMatrix",
    "CSRMatrix",
    "GCSRMatrix",
    "IndexWidth",
    "SellCSMatrix",
    "SparseFormat",
    "SymmetricCSRMatrix",
    "coo_to_csr",
    "spmm",
    "spmm_intensity_gain",
    "min_index_width",
    "naive_footprint_bytes",
    "to_bcoo",
    "to_bcsr",
    "to_cache_blocked",
    "to_gcsr",
    "to_sellcs",
    "validate_index_width",
]
