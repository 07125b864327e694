"""PageRank on a web-connectivity matrix (the webbase workload).

The suite's webbase-1M matrix is a web crawl's link matrix; its natural
application is PageRank — a long sequence of SpMVs with exactly the
short-row, power-law structure the paper identifies as SpMV's hard
case.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ReproError
from ..formats.convert import coo_to_csr
from ..formats.coo import COOMatrix


def transition_matrix(links: COOMatrix) -> COOMatrix:
    """The transposed transition matrix ``P^T`` of a link matrix.

    Edge i → j contributes at ``(j, i)`` with weight ``1/outdeg(i)``
    (absolute weights, so signed test matrices behave), making
    ``scores = P^T · scores`` a plain SpMV. Exposed so callers can
    pre-register ``P^T`` with the serving layer and drive
    :func:`pagerank` through its ``operator=`` hook.
    """
    m, n = links.shape
    if m != n:
        raise ReproError(f"PageRank needs a square matrix, got {links.shape}")
    w = np.abs(links.val)
    outdeg = np.zeros(n)
    np.add.at(outdeg, links.row, w)
    nonzero_out = outdeg[links.row] > 0
    return COOMatrix(
        (n, n),
        links.col[nonzero_out],
        links.row[nonzero_out],
        w[nonzero_out] / outdeg[links.row][nonzero_out],
    )


def pagerank(
    links: COOMatrix,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    operator: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, int]:
    """PageRank scores of a (possibly weighted) link matrix.

    ``links[i, j] != 0`` is read as an edge i → j. The matrix is
    column-stochasticized internally; dangling pages distribute
    uniformly. When ``operator`` is given it must compute
    ``P^T · r`` for the matrix :func:`transition_matrix` returns (e.g.
    a serve-layer :class:`~repro.solvers.operator.FingerprintOperator`);
    otherwise a CSR materialization of ``P^T`` is built here.

    Returns ``(scores, iterations)``; scores sum to 1.
    """
    m, n = links.shape
    if m != n:
        raise ReproError(f"PageRank needs a square matrix, got {links.shape}")
    if n == 0:
        raise ReproError("empty graph")
    if not (0 < damping < 1):
        raise ReproError(f"damping must be in (0, 1), got {damping}")
    w = np.abs(links.val)
    outdeg = np.zeros(n)
    np.add.at(outdeg, links.row, w)
    if operator is None:
        pt_csr = coo_to_csr(transition_matrix(links))
        op: Callable[[np.ndarray], np.ndarray] = \
            lambda r: pt_csr.spmv(r)  # noqa: E731
    else:
        op = operator
    dangling = outdeg == 0
    r = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        dangling_mass = float(r[dangling].sum())
        r_new = damping * (op(r) + dangling_mass / n) \
            + (1.0 - damping) / n
        delta = float(np.abs(r_new - r).sum())
        r = r_new
        if delta <= tol:
            return r / r.sum(), it
    return r / r.sum(), max_iter
