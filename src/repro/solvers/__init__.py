"""Iterative solvers built on the library's SpMV.

SpMV "dominates the performance of diverse applications" — these
solvers are the applications: conjugate gradients (FEM systems), the
power method, and PageRank (the webbase matrix's native workload). Each
accepts any :class:`~repro.formats.base.SparseFormat` — including the
engine's tuned matrices — so the optimization work composes directly
into end-to-end apps.
"""

from .cg import CGResult, conjugate_gradient
from .operator import FingerprintOperator
from .pagerank import pagerank, transition_matrix
from .power_method import power_method

__all__ = [
    "CGResult",
    "FingerprintOperator",
    "conjugate_gradient",
    "pagerank",
    "power_method",
    "transition_matrix",
]
