"""OSKI and OSKI-PETSc baseline tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import OskiTuner, petsc_spmv_model
from repro.baselines.petsc import best_petsc
from repro.core import OptimizationLevel, SpmvEngine
from repro.formats.bcsr import POWER_OF_TWO_BLOCKS
from repro.machines import get_machine
from repro.matrices import generate

SCALE = 0.04


class TestOskiTuner:
    def test_profile_covers_all_blockings(self):
        tuner = OskiTuner(get_machine("AMD X2"))
        prof = tuner.machine_profile()
        assert set(prof) == set(POWER_OF_TWO_BLOCKS)
        assert all(v > 0 for v in prof.values())

    def test_profile_memoized(self):
        tuner = OskiTuner(get_machine("AMD X2"))
        assert tuner.machine_profile() is tuner.machine_profile()

    def test_blocked_matrix_gets_blocked(self):
        coo = generate("FEM-Cant", scale=SCALE, seed=0)  # 2x2 blocks
        tuner = OskiTuner(get_machine("AMD X2"))
        r, c = tuner.choose_blocking(coo)
        assert (r, c) != (1, 1)

    def test_scattered_matrix_stays_1x1(self):
        coo = generate("Econom", scale=SCALE, seed=0)
        tuner = OskiTuner(get_machine("AMD X2"))
        assert tuner.choose_blocking(coo) == (1, 1)

    def test_fill_estimate(self):
        coo = generate("Epidem", scale=SCALE, seed=0)
        tuner = OskiTuner(get_machine("AMD X2"))
        assert tuner.estimate_fill(coo, 1, 1) == 1.0
        assert tuner.estimate_fill(coo, 4, 4) > 1.5

    def test_tuned_matrix_correct(self, rng):
        coo = generate("FEM-Har", scale=SCALE, seed=0)
        tuner = OskiTuner(get_machine("Clovertown"))
        mat = tuner.tuned_matrix(coo)
        x = rng.standard_normal(coo.ncols)
        np.testing.assert_allclose(mat.spmv(x), coo.spmv(x), rtol=1e-12)

    def test_oski_uses_32bit_only(self):
        coo = generate("FEM-Har", scale=SCALE, seed=0)
        tuner = OskiTuner(get_machine("AMD X2"))
        plan = tuner.plan(coo)
        for _, choice in plan.choices:
            assert choice.index_bytes == 4

    def test_our_engine_beats_oski_serial(self):
        """§6.2: "about a 1.2x speedup over the highly tuned OSKI
        library (where prefetching undoubtedly helped)"."""
        coo = generate("FEM-Cant", scale=SCALE, seed=0)
        m = get_machine("AMD X2")
        oski = OskiTuner(m).simulate(coo)
        ours = SpmvEngine(m).plan(coo, level=OptimizationLevel.PF_RB_CB)
        ours_res = SpmvEngine(m).simulate(ours)
        assert ours_res.gflops > 1.1 * oski.gflops


class TestPetscModel:
    def test_runs_and_reports(self):
        coo = generate("QCD", scale=SCALE, seed=0)
        res = petsc_spmv_model(coo, get_machine("AMD X2"), 4)
        assert res.gflops > 0
        assert 0 <= res.comm_fraction < 1
        assert res.n_procs == 4
        assert "OSKI-PETSc" in res.summary()

    def test_equal_rows_imbalance_reported(self):
        # Power-law row distribution: equal-rows must be imbalanced.
        coo = generate("LP", scale=SCALE, seed=0)
        res = petsc_spmv_model(coo, get_machine("AMD X2"), 4)
        assert res.imbalance > 1.2

    def test_lp_communicates_heavily(self):
        """§6.2: communication reaches 56% of runtime on LP; banded
        matrices barely communicate. Needs realistic scale — at toy
        sizes the per-message latency floor swamps both."""
        lp = generate("LP", scale=0.3, seed=0)
        banded = generate("Epidem", scale=0.3, seed=0)
        m = get_machine("AMD X2")
        lp_res = petsc_spmv_model(lp, m, 4)
        banded_res = petsc_spmv_model(banded, m, 4)
        assert lp_res.comm_fraction > 3 * banded_res.comm_fraction
        assert lp_res.comm_fraction > 0.2

    def test_best_petsc_sweeps(self):
        coo = generate("Circuit", scale=SCALE, seed=0)
        m = get_machine("Clovertown")
        best = best_petsc(coo, m)
        one = petsc_spmv_model(coo, m, 1)
        assert best.gflops >= one.gflops

    def test_best_petsc_skips_only_counts_that_do_not_fit(
            self, monkeypatch):
        from repro.baselines import petsc
        from repro.errors import PartitionError

        coo = generate("Circuit", scale=SCALE, seed=0)
        m = get_machine("Clovertown")
        model = petsc.petsc_spmv_model

        def no_two(coo, machine, n_procs):
            if n_procs == 2:
                raise PartitionError("2 ranks do not fit")
            return model(coo, machine, n_procs)

        monkeypatch.setattr(petsc, "petsc_spmv_model", no_two)
        assert best_petsc(coo, m).n_procs != 2

        def broken(coo, machine, n_procs):
            if n_procs == 2:
                raise ValueError("bug in the model")
            return model(coo, machine, n_procs)

        monkeypatch.setattr(petsc, "petsc_spmv_model", broken)
        with pytest.raises(ValueError, match="bug in the model"):
            best_petsc(coo, m)

    def test_pthreads_beats_mpi(self):
        """§7: "the Pthreads strategy resulted in runtimes more than
        twice as fast as the message passing implementation"."""
        # Realistic scale: the pthread advantages (NUMA placement,
        # nnz balance, zero copies) only show once memory-bound.
        coo = generate("Tunnel", scale=0.25, seed=0)
        m = get_machine("AMD X2")
        pthreads = SpmvEngine(m).simulate(
            SpmvEngine(m).plan(coo, n_threads=m.n_cores)
        )
        mpi = best_petsc(coo, m)
        assert pthreads.gflops > 1.5 * mpi.gflops

    def test_single_proc(self):
        coo = generate("Econom", scale=SCALE, seed=0)
        res = petsc_spmv_model(coo, get_machine("Niagara"), 1)
        assert res.comm_bytes == 0
        assert res.comm_fraction < 0.05
