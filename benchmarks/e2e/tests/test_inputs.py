"""Seeded inputs and the oracle, on small matrices."""

import numpy as np

from repro.kernels.reference import spmv_reference

from e2e.inputs import POOL, make_inputs

SMALL = 0.02


def test_same_seed_same_inputs_other_seed_other_inputs():
    a = make_inputs("FEM-Cant", 3, scale=SMALL)
    b = make_inputs("FEM-Cant", 3, scale=SMALL)
    c = make_inputs("FEM-Cant", 4, scale=SMALL)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
    assert len(a.xs) == len(a.refs) == POOL
    # The seed moves both things it feeds: the matrix and the vectors.
    assert a.coo.content_fingerprint() != c.coo.content_fingerprint()
    assert not np.array_equal(a.xs[0], c.xs[0])


def test_oracle_agrees_with_spmv_reference():
    for matrix in ("FEM-Cant", "Webbase", "Epidem"):
        inputs = make_inputs(matrix, 0, scale=SMALL)
        for x, ref in zip(inputs.xs, inputs.refs):
            expected = spmv_reference(inputs.coo, x)
            assert np.max(np.abs(ref - expected)) <= \
                1e-12 * np.max(np.abs(expected))


def test_correct_accepts_the_reference_and_nothing_else():
    inputs = make_inputs("Epidem", 0, scale=SMALL)
    y = inputs.refs[2].copy()
    assert inputs.correct(2, y)
    assert inputs.correct(2 + POOL, y)          # the pool is cycled
    assert not inputs.correct(3, y)             # another vector's answer
    assert not inputs.correct(2, y[:-1])        # wrong shape
    y[0] += 1e-6 * np.max(np.abs(y))
    assert not inputs.correct(2, y)
    assert not inputs.correct(2, np.full_like(y, np.nan))
