"""Acceptance: solvers driven through the serve client match the
direct-library path — CG bit-for-bit, PageRank to
floating-point tolerance (its default path uses plain CSR, the served
path the tuned format)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpmvEngine
from repro.machines import get_machine
from repro.matrices import generate
from repro.serve import ServeClient
from repro.solvers import (
    conjugate_gradient,
    pagerank,
    transition_matrix,
)
from tests.conftest import random_coo
from tests.test_solvers import spd_matrix

THREADS = 2


@pytest.fixture
def client():
    # max_batch=1: a sequential solver issues dependent matvecs one at
    # a time; unit batches take the exact spmv kernel path.
    with ServeClient(machine="AMD X2", n_threads=THREADS,
                     max_batch=1) as c:
        yield c


def direct_matrix(coo):
    """The library path's materialization — same plan the serve
    registry computes (planning is deterministic in (matrix, machine,
    threads)), hence bit-identical kernels."""
    engine = SpmvEngine(get_machine("AMD X2"))
    return engine.plan(coo, n_threads=THREADS).materialize(coo)


class TestCGThroughServe:
    def test_bit_for_bit_vs_direct(self, client, rng):
        a = spd_matrix(80, seed=1)
        b = rng.standard_normal(80)
        op = client.operator(client.register(a).fingerprint)
        served = conjugate_gradient(op, b, tol=1e-10)
        direct = conjugate_gradient(direct_matrix(a), b, tol=1e-10)
        assert served.converged and direct.converged
        assert served.iterations == direct.iterations
        np.testing.assert_array_equal(served.x, direct.x)
        np.testing.assert_array_equal(
            np.asarray(served.residual_history),
            np.asarray(direct.residual_history),
        )

    def test_solution_is_correct(self, client, rng):
        a = spd_matrix(60, seed=2)
        x_true = rng.standard_normal(60)
        b = a.toarray() @ x_true
        op = client.operator(client.register(a).fingerprint)
        res = conjugate_gradient(op, b, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6)


class TestPageRankThroughServe:
    def test_operator_hook_matches_default(self, client):
        links = generate("Webbase", scale=0.03, seed=1)
        scores_default, it_default = pagerank(links)
        pt = transition_matrix(links)
        op = client.operator(client.register(pt).fingerprint)
        scores_served, it_served = pagerank(links, operator=op)
        assert it_served == it_default
        np.testing.assert_allclose(scores_served, scores_default,
                                   rtol=1e-9, atol=1e-12)
        assert scores_served.sum() == pytest.approx(1.0)

    def test_transition_matrix_columns_stochastic(self):
        links = random_coo(40, 40, 0.1, seed=4)
        pt = transition_matrix(links)
        dense = pt.toarray()
        col_sums = dense.sum(axis=0)
        outdeg = np.abs(links.toarray()).sum(axis=1)
        np.testing.assert_allclose(
            col_sums[outdeg > 0], 1.0, rtol=1e-12
        )
        assert np.all(col_sums[outdeg == 0] == 0)
