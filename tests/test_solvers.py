"""Solver tests: CG and PageRank on library SpMV."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpmvEngine
from repro.errors import ReproError
from repro.formats import COOMatrix, coo_to_csr
from repro.machines import get_machine
from repro.solvers import conjugate_gradient, pagerank


def spd_matrix(n, seed=0, density=0.05):
    """Random SPD sparse matrix: A = B^T B + n I (diagonally dominant)."""
    rng = np.random.default_rng(seed)
    b = np.zeros((n, n))
    k = max(1, int(n * n * density))
    b[rng.integers(0, n, k), rng.integers(0, n, k)] = rng.standard_normal(k)
    a = b.T @ b + n * np.eye(n)
    return COOMatrix.from_dense(a)


class TestCG:
    def test_solves_spd_system(self, rng):
        a = spd_matrix(60, seed=1)
        x_true = rng.standard_normal(60)
        b = a.toarray() @ x_true
        res = conjugate_gradient(coo_to_csr(a), b, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6)

    def test_residual_history_decreases(self, rng):
        a = spd_matrix(40, seed=2)
        b = rng.standard_normal(40)
        res = conjugate_gradient(coo_to_csr(a), b)
        assert res.residual_history[-1] < res.residual_history[0]

    def test_works_with_tuned_operator(self, rng):
        a = spd_matrix(80, seed=3)
        b = rng.standard_normal(80)
        eng = SpmvEngine(get_machine("AMD X2"))
        tuned = eng.tune(a, n_threads=1)
        res = conjugate_gradient(tuned, b, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(a.toarray() @ res.x, b, rtol=1e-5,
                                   atol=1e-8)

    def test_operator_form(self, rng):
        a = spd_matrix(30, seed=4)
        dense = a.toarray()
        b = rng.standard_normal(30)
        res = conjugate_gradient((lambda v: dense @ v, 30), b)
        assert res.converged

    def test_zero_rhs(self):
        a = spd_matrix(10, seed=5)
        res = conjugate_gradient(coo_to_csr(a), np.zeros(10))
        assert res.converged
        assert res.iterations == 0

    def test_non_spd_detected(self, rng):
        # A negative-definite matrix breaks p^T A p > 0 immediately.
        a = COOMatrix.from_dense(-np.eye(10))
        res = conjugate_gradient(coo_to_csr(a), np.ones(10), max_iter=5)
        assert not res.converged

    def test_rectangular_rejected(self):
        a = COOMatrix((3, 4), [0], [0], [1.0])
        with pytest.raises(ReproError):
            conjugate_gradient(coo_to_csr(a), np.ones(3))

    def test_wrong_rhs_shape(self):
        a = spd_matrix(10)
        with pytest.raises(ReproError):
            conjugate_gradient(coo_to_csr(a), np.ones(11))

    def test_max_iter_respected(self, rng):
        a = spd_matrix(50, seed=6)
        b = rng.standard_normal(50)
        res = conjugate_gradient(coo_to_csr(a), b, tol=1e-16, max_iter=3)
        assert res.iterations <= 3


class TestPageRank:
    def test_uniform_on_cycle(self):
        n = 5
        links = COOMatrix((n, n), np.arange(n), (np.arange(n) + 1) % n,
                          np.ones(n))
        scores, _ = pagerank(links)
        np.testing.assert_allclose(scores, np.full(n, 1 / n), rtol=1e-6)

    def test_sink_attracts_mass(self):
        # Star: everyone links to node 0.
        n = 6
        links = COOMatrix((n, n), np.arange(1, n), np.zeros(n - 1,
                          dtype=np.int64), np.ones(n - 1))
        scores, _ = pagerank(links)
        assert scores[0] == scores.max()

    def test_scores_sum_to_one(self):
        from tests.conftest import random_coo

        links = random_coo(300, 300, 0.01, seed=8)
        scores, _ = pagerank(links)
        assert scores.sum() == pytest.approx(1.0)
        assert (scores >= 0).all()

    def test_matches_networkx(self):
        import networkx as nx

        rng = np.random.default_rng(9)
        n, k = 40, 160
        r, c = rng.integers(0, n, k), rng.integers(0, n, k)
        # Collapse duplicate edges: nx.DiGraph is simple, so weights
        # must be 0/1 on both sides of the comparison.
        key = np.unique(r * n + c)
        r, c = key // n, key % n
        links = COOMatrix((n, n), r, c, np.ones(len(r)))
        scores, _ = pagerank(links, damping=0.85, tol=1e-12)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(links.row.tolist(), links.col.tolist()))
        nx_scores = nx.pagerank(g, alpha=0.85, tol=1e-12, max_iter=500)
        for i in range(n):
            assert scores[i] == pytest.approx(nx_scores[i], abs=2e-4)

    def test_bad_damping(self):
        links = COOMatrix((2, 2), [0], [1], [1.0])
        with pytest.raises(ReproError):
            pagerank(links, damping=1.5)

    def test_webbase_workload(self):
        from repro.matrices import generate

        links = generate("Webbase", scale=0.01, seed=0)
        scores, iters = pagerank(links, tol=1e-8)
        assert scores.sum() == pytest.approx(1.0)
        assert iters < 200
