"""A destination that overlaps the source vector: ``spmv(A, a, a)``.

The kernels write ``y`` while they still read ``x``, so the argument
checks copy ``x`` when the two share memory. Every backend, on a bare
CSR and on one- and multi-block tuned plans, must return exactly what
the same call returns on separate vectors.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import SpmvEngine
from repro.formats import CacheBlockedMatrix, coo_to_csr
from repro.kernels.cbackend import c_backend_available
from repro.kernels.registry import spmm_backend, spmv_backend
from repro.machines import get_machine
from repro.matrices import generate
from tests.conftest import random_coo

BACKENDS = [
    "numpy",
    pytest.param("c", marks=pytest.mark.skipif(
        not c_backend_available(),
        reason="C backend unavailable (no compiler or REPRO_DISABLE_CC)")),
]


@functools.cache
def _matrix(kind: str):
    if kind == "csr":
        return coo_to_csr(random_coo(200, 200, 0.05, seed=1))
    name, scale = {"one_block": ("FEM-Cant", 0.02),
                   "multi_block": ("Webbase", 0.03)}[kind]
    coo = generate(name, scale=scale, seed=0)
    matrix = SpmvEngine(get_machine("AMD X2")).plan(coo).materialize(coo)
    n_blocks = len(matrix.blocks) if isinstance(
        matrix, CacheBlockedMatrix) else 1
    assert (n_blocks > 1) == (kind == "multi_block")
    return matrix


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["csr", "one_block", "multi_block"])
@pytest.mark.parametrize("k", [None, 1, 8])
def test_aliased_destination_matches_separate_vectors(backend, kind, k):
    matrix = _matrix(kind)
    n = matrix.nrows
    rng = np.random.default_rng(2)
    if k is None:
        x = rng.standard_normal(n)
        run = functools.partial(spmv_backend, matrix, backend=backend)
    else:
        x = rng.standard_normal((n, k))
        run = functools.partial(spmm_backend, matrix, backend=backend)
    want = run(x, x.copy())
    buf = x.copy()
    got = run(buf, buf)
    assert got is buf
    assert np.array_equal(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_overlapping_slices_are_copied(backend):
    """Partial overlap (``y`` one element past ``x`` in one buffer)
    counts as aliasing too."""
    matrix = _matrix("csr")
    n = matrix.nrows
    buf = np.random.default_rng(3).standard_normal(n + 1)
    want = spmv_backend(matrix, buf[:n].copy(), buf[1:].copy(),
                        backend=backend)
    got = spmv_backend(matrix, buf[:n], buf[1:], backend=backend)
    assert np.array_equal(got, want)
