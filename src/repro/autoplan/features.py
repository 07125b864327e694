"""O(nnz) structural feature extraction for plan prediction.

The feature vector is *versioned and fixed-order*: the plan-cache
envelopes, the model artifact, and the predictor all carry
:data:`FEATURE_VERSION`,
and a mismatch anywhere invalidates the stale side. Every feature is
finite for every degenerate matrix (empty, zero rows, a single row) —
the underlying statistics in :mod:`repro.matrices.stats` guarantee it,
and :func:`extract_features` clamps any residual NaN/inf to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..formats.coo import COOMatrix
from ..matrices.stats import (
    bandwidth_stats,
    block_fill_ratio,
    row_length_stats,
    symmetry_fraction,
)
from ..parallel.partition import partition_rows_balanced

#: Bump when the feature set or its order changes; corpora and model
#: artifacts built against another version are invalid.
#: v2: appended ``sellcs_fill_8`` for the SELL-C-σ sweep candidate.
FEATURE_VERSION = 2

#: Canonical feature order. The model standardizes by position, so this
#: tuple *is* the schema — append only, and bump FEATURE_VERSION.
FEATURE_NAMES: tuple[str, ...] = (
    "log_rows",
    "log_cols",
    "log_nnz",
    "log_aspect",
    "row_mean",
    "row_cv",
    "row_max_rel",
    "empty_row_frac",
    "log_density",
    "band_mean",
    "band_p95",
    "diag_frac",
    "fill_2x2",
    "fill_4x4",
    "fill_1x4",
    "fill_4x1",
    "part_imbalance",
    "symmetry",
    "sellcs_fill_8",
)


@dataclass(frozen=True)
class FeatureVector:
    """One matrix's features, tagged with the schema version."""

    version: int
    names: tuple[str, ...]
    values: np.ndarray

    def to_list(self) -> list[float]:
        return [float(v) for v in self.values]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.to_list()))


def _sellcs_fill(coo: COOMatrix, chunk: int = 8) -> float:
    """nnz_logical / padded elements at the default SELL-C-σ chunk.

    1.0 means the σ-window sort pads nothing; low values predict the
    format wastes bandwidth on this structure.
    """
    from ..formats.sellcs import sellcs_stats

    if coo.nnz_logical == 0 or coo.nrows == 0:
        return 1.0
    _, stored = sellcs_stats(coo.row_counts(), chunk)
    return coo.nnz_logical / max(stored, 1)


def _partition_imbalance(coo: COOMatrix) -> float:
    """max/mean nonzeros across a balanced 8-way row partition.

    1.0 means perfectly balanceable; a single gigantic row (LP) pushes
    this far above 1 and predicts poor parallel scaling.
    """
    if coo.nrows == 0 or coo.nnz_logical == 0:
        return 1.0
    n_parts = max(1, min(8, coo.nrows))
    part = partition_rows_balanced(coo, n_parts)
    return float(part.imbalance)


def extract_features(coo: COOMatrix) -> FeatureVector:
    """Extract the fixed-order feature vector for one matrix."""
    m, n = coo.shape
    nnz = coo.nnz_logical
    rows = row_length_stats(coo)
    band = bandwidth_stats(coo)
    density = nnz / (m * n) if m and n else 0.0
    values = np.array(
        [
            math.log1p(m),
            math.log1p(n),
            math.log1p(nnz),
            math.log((m + 1) / (n + 1)),
            rows.mean,
            rows.cv,
            rows.max_rel,
            rows.empty_frac,
            math.log(density) if density > 0 else -30.0,
            band.mean,
            band.p95,
            band.diag_frac,
            block_fill_ratio(coo, 2, 2),
            block_fill_ratio(coo, 4, 4),
            block_fill_ratio(coo, 1, 4),
            block_fill_ratio(coo, 4, 1),
            _partition_imbalance(coo),
            symmetry_fraction(coo),
            _sellcs_fill(coo),
        ],
        dtype=np.float64,
    )
    values = np.nan_to_num(values, nan=0.0, posinf=0.0, neginf=0.0)
    return FeatureVector(
        version=FEATURE_VERSION, names=FEATURE_NAMES, values=values,
    )
