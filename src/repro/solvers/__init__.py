"""Iterative solvers built on the library's SpMV.

SpMV "dominates the performance of diverse applications" — these
solvers are the applications: conjugate gradients (FEM systems) and
PageRank (the webbase matrix's native workload). Each
accepts any :class:`~repro.formats.base.SparseFormat` — including the
engine's tuned matrices — so the optimization work composes directly
into end-to-end apps.
"""

from .cg import CGResult, conjugate_gradient
from .operator import FingerprintOperator
from .pagerank import pagerank, transition_matrix

__all__ = [
    "CGResult",
    "FingerprintOperator",
    "conjugate_gradient",
    "pagerank",
    "transition_matrix",
]
