"""Index-width selection and validation (16-bit vs 32-bit indices).

The paper halves index storage by using 2-byte indices whenever the
addressed span (a matrix dimension, or a cache block's dimension) is
below 64 K. These helpers centralize that decision so every format and
the footprint heuristic agree on when compression is legal.
"""

from __future__ import annotations

import numpy as np

from ..errors import IndexWidthError
from .base import IndexWidth


def min_index_width(span: int) -> IndexWidth:
    """Smallest legal index width for a dimension of ``span`` entries.

    Parameters
    ----------
    span : int
        Number of addressable positions (rows or columns of the region
        being indexed). Spans beyond 32-bit range are rejected — the
        paper's matrices (and this library's formats) use at most 32-bit
        indices.
    """
    if span < 0:
        raise IndexWidthError(f"span must be non-negative, got {span}")
    if span <= IndexWidth.I16.max_span:
        return IndexWidth.I16
    if span <= IndexWidth.I32.max_span:
        return IndexWidth.I32
    raise IndexWidthError(f"span {span} exceeds 32-bit index range")


def validate_index_width(width: IndexWidth, span: int) -> IndexWidth:
    """Check that ``width`` can address ``span`` positions.

    Returns the width unchanged on success, so call sites can validate
    and assign in one expression.
    """
    width = IndexWidth(width)
    if span > width.max_span:
        raise IndexWidthError(
            f"index width {int(width)}B cannot address span {span} "
            f"(max {width.max_span})"
        )
    return width


def pack_indices(values: np.ndarray, width: IndexWidth, span: int) -> np.ndarray:
    """Cast an int array to the storage dtype of ``width``, validating range.

    ``span`` is the exclusive upper bound the entries must respect; it is
    validated against both the data and the width so a 16-bit request on
    a 100 K-column block fails loudly instead of wrapping around.
    """
    width = validate_index_width(width, span)
    values = np.asarray(values)
    if len(values) and (values.min() < 0 or values.max() >= span):
        raise IndexWidthError(
            f"index values outside [0, {span}) cannot be packed"
        )
    return values.astype(width.dtype, copy=False)
