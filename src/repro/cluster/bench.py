"""A deterministic banded test matrix for the end-to-end benchmark.

``benchmarks/e2e/layers.py`` imports :func:`banded_matrix` from here.
Nothing in this package times anything: every JSON-vs-wire-vs-shm
quantity is a per-layer metric of ``benchmarks/e2e``
(``serve.http_request_bytes``, ``cluster.request_bytes``,
``cluster.roundtrip_ms``, ``serve.routes_ms``).
"""

from __future__ import annotations

import numpy as np

from ..formats.coo import COOMatrix


def banded_matrix(n: int, bandwidth: int = 5,
                  seed: int = 0) -> COOMatrix:
    """A deterministic banded test matrix (n rows, ~bandwidth nnz/row)."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for off in range(-(bandwidth // 2), bandwidth // 2 + 1):
        r = np.arange(max(0, -off), min(n, n - off))
        rows.append(r)
        cols.append(r + off)
    row = np.concatenate(rows)
    col = np.concatenate(cols)
    val = rng.standard_normal(row.shape[0])
    return COOMatrix((n, n), row, col, val, dedupe=False)


__all__ = ["banded_matrix"]
