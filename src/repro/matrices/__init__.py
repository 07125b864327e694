"""Synthetic sparse-matrix suite and structure analysis.

The paper evaluates 14 matrices from real applications (Table 3). The
originals live in the UF/SuiteSparse collection; this package generates
*structure-matched* synthetic analogues — same dimensions, nonzero
counts, nonzeros-per-row distribution shape, dense-block substructure,
diagonal concentration, and aspect ratio — which are the properties SpMV
performance actually depends on. Real Matrix Market files can be
substituted via :mod:`repro.matrices.io`.
"""

from .dense import dense_in_sparse
from .fem import clustered_rows_matrix, fem_blocked_matrix
from .graph import power_law_graph
from .io import load_matrix, load_matrix_market, save_matrix, save_matrix_market
from .lp import set_cover_lp
from .random_sparse import scattered_matrix
from .stats import (
    BandwidthStats,
    MatrixStats,
    RowLengthStats,
    bandwidth_stats,
    block_fill_ratio,
    compute_stats,
    row_length_stats,
    symmetry_fraction,
)
from .stencil import lattice_qcd, markov_grid
from .suite import (
    SUITE,
    MatrixSpec,
    generate,
    suite_names,
    suite_table,
)

__all__ = [
    "SUITE",
    "MatrixSpec",
    "BandwidthStats",
    "MatrixStats",
    "RowLengthStats",
    "bandwidth_stats",
    "block_fill_ratio",
    "clustered_rows_matrix",
    "compute_stats",
    "dense_in_sparse",
    "fem_blocked_matrix",
    "generate",
    "lattice_qcd",
    "load_matrix",
    "load_matrix_market",
    "markov_grid",
    "power_law_graph",
    "row_length_stats",
    "save_matrix",
    "save_matrix_market",
    "scattered_matrix",
    "set_cover_lp",
    "suite_names",
    "suite_table",
    "symmetry_fraction",
]
