"""Address-trace generation for the exact cache simulator.

Produces the byte-address stream a CSR SpMV issues — matrix value
and index streams, source-vector gathers, destination updates — laid
out the way the kernels traverse memory. Feeding these traces to
:class:`~repro.simulator.cache.CacheSim` validates the analytic traffic
model (see ``tests/test_simulator_trace.py`` and
``repro.analysis.validation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import VALUE_BYTES
from ..errors import SimulationError
from ..formats.csr import CSRMatrix


@dataclass(frozen=True)
class AddressLayout:
    """Base addresses of each array in the simulated address space.

    Regions are padded apart so cross-array conflicts behave like a
    malloc'd layout rather than overlapping.
    """

    values: int
    indices: int
    pointers: int
    x: int
    y: int


def default_layout(matrix) -> AddressLayout:
    """A contiguous non-overlapping layout for one matrix + vectors."""
    pad = 4096
    values = 0
    indices = values + matrix.nnz_stored * VALUE_BYTES + pad
    idx_bytes = int(getattr(matrix, "index_width", 4))
    n_idx = getattr(matrix, "ntiles", matrix.nnz_stored)
    pointers = indices + n_idx * idx_bytes + pad
    x = pointers + (matrix.nrows + 1) * 4 + pad
    y = x + matrix.ncols * VALUE_BYTES + pad
    return AddressLayout(values, indices, pointers, x, y)


def csr_spmv_trace(
    csr: CSRMatrix, *, layout: AddressLayout | None = None,
    include_streams: bool = True,
) -> np.ndarray:
    """Byte-address stream of one CSR SpMV pass.

    Per nonzero (in storage order): value load, column-index load,
    ``x[col]`` gather; per row: a pointer load and a ``y`` update.
    ``include_streams=False`` keeps only the x gathers (the
    cache-interesting part).
    """
    if not isinstance(csr, CSRMatrix):
        raise SimulationError("csr_spmv_trace needs a CSRMatrix")
    layout = layout or default_layout(csr)
    nnz = csr.nnz_stored
    cols = csr.indices.astype(np.int64)
    x_addr = layout.x + cols * VALUE_BYTES
    if not include_streams:
        return x_addr
    idx_b = int(csr.index_width)
    k = np.arange(nnz, dtype=np.int64)
    val_addr = layout.values + k * VALUE_BYTES
    idx_addr = layout.indices + k * idx_b
    # Interleave per-nonzero accesses: idx, x, val (load order of the
    # scalar kernel).
    per_nnz = np.empty(3 * nnz, dtype=np.int64)
    per_nnz[0::3] = idx_addr
    per_nnz[1::3] = x_addr
    per_nnz[2::3] = val_addr
    # Row-pointer loads and y updates, appended per row in order; for
    # cache purposes their exact interleaving with the nonzero stream
    # is immaterial (unit-stride streams), so we emit them afterwards.
    rows = np.arange(csr.nrows, dtype=np.int64)
    ptr_addr = layout.pointers + rows * 4
    y_addr = layout.y + rows * VALUE_BYTES
    return np.concatenate([per_nnz, ptr_addr, y_addr])
