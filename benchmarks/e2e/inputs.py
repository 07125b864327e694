"""Seeded inputs and the independent oracle.

``--seed`` feeds one RNG, and that RNG draws every number the program
is handed: the matrix's nonzero values and the pool of x vectors. The
sparsity *pattern* is part of the workload's definition and comes
from ``repro.matrices.generate(name, scale, seed=STRUCTURE_SEED)``
whatever ``--seed`` says. Measured reason: the planner's choices sit
on thresholds of the pattern, so FEM-Cant patterns 3 and 4 get a
serve plan without BCSR-1x2 blocks and ``serve_burst`` reads 100/s on
them against 128/s on patterns 0-2, and Webbase patterns differ by
4 % in nonzeros — a spread across seeds that is the planner's, not
the measurement's, and that no amount of measuring would shrink.

The oracle is SciPy's CSR product built from the raw COO triplets —
code that shares nothing with the kernels, formats or planner being
measured — computed once per pool vector outside every timed region.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from repro.formats.coo import COOMatrix
from repro.matrices import generate

#: Suite scale every workload runs at (FEM-Cant → 1.0 M nnz).
SCALE = 0.25
#: ``generate`` seed that fixes each workload's sparsity pattern.
STRUCTURE_SEED = 0
#: Distinct x vectors cycled through by the closed loop.
POOL = 8
#: ``max|y − y_ref| ≤ RTOL · max|y_ref|`` or the request failed.
RTOL = 1e-10


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs plus their reference results."""

    matrix: str
    seed: int
    coo: COOMatrix
    xs: tuple[np.ndarray, ...]
    refs: tuple[np.ndarray, ...]
    generate_s: float
    #: SciPy CSR of the same triplets: the oracle, and the plain
    #: single-thread baseline the kernel layer is compared against.
    scipy_csr: scipy.sparse.csr_matrix

    @property
    def fingerprint(self) -> str:
        """Content hash of everything the program will be handed."""
        h = hashlib.sha256()
        h.update(self.coo.content_fingerprint().encode())
        for x in self.xs:
            h.update(x.tobytes())
        return h.hexdigest()[:16]

    def correct(self, i: int, y) -> bool:
        """Does ``y`` match the oracle for pool vector ``i``?"""
        ref = self.refs[i % len(self.refs)]
        y = np.asarray(y, dtype=np.float64)
        if y.shape != ref.shape:
            return False
        return bool(np.max(np.abs(y - ref)) <= RTOL * np.max(np.abs(ref)))


def oracle_matrix(coo: COOMatrix) -> scipy.sparse.csr_matrix:
    """SciPy CSR straight from the COO triplets."""
    return scipy.sparse.csr_matrix((coo.val, (coo.row, coo.col)),
                                   shape=coo.shape)


def make_inputs(matrix: str, seed: int, *, scale: float = SCALE,
                pool: int = POOL) -> Inputs:
    """Generate the matrix, the x pool and the reference results."""
    t0 = time.perf_counter()
    # cache=False: the suite's module-level cache would hand a second
    # workload in the same process a matrix it did not pay to generate.
    pattern = generate(matrix, scale=scale, seed=STRUCTURE_SEED,
                       cache=False)
    generate_s = time.perf_counter() - t0
    rng = np.random.default_rng(seed)
    coo = COOMatrix(pattern.shape, pattern.row, pattern.col,
                    rng.standard_normal(pattern.nnz_logical), dedupe=False)
    xs = tuple(rng.standard_normal(coo.ncols) for _ in range(pool))
    a = oracle_matrix(coo)
    refs = tuple(a @ x for x in xs)
    return Inputs(matrix=matrix, seed=seed, coo=coo, xs=xs,
                  refs=refs, generate_s=generate_s, scipy_csr=a)
