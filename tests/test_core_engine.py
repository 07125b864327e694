"""Engine end-to-end: optimizer gating, planning, simulation, execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpmvEngine, OptimizationLevel
from repro.core.engine import config_rectangle
from repro.core.optimizer import (
    OPTIMIZATION_TABLE,
    Role,
    arch_family,
    ladder,
    optimization_config,
    role_point,
)
from repro.errors import TuningError
from repro.machines import PlacementPolicy, get_machine, machine_names
from repro.matrices import generate

SCALE = 0.04
L = OptimizationLevel


class TestOptimizer:
    def test_families(self):
        assert arch_family(get_machine("AMD X2")) == "x86"
        assert arch_family(get_machine("Clovertown")) == "x86"
        assert arch_family(get_machine("Niagara")) == "niagara"
        assert arch_family(get_machine("Cell (PS3)")) == "cell"

    def test_levels_cumulative_on_x86(self):
        m = get_machine("AMD X2")
        naive = optimization_config(m, L.NAIVE)
        pf = optimization_config(m, L.PF)
        rb = optimization_config(m, L.PF_RB)
        cb = optimization_config(m, L.PF_RB_CB)
        assert not naive.sw_prefetch and pf.sw_prefetch
        assert not pf.register_blocking and rb.register_blocking
        assert not rb.cache_blocking and cb.cache_blocking
        assert cb.tlb_blocking

    def test_cell_always_full_dma_path(self):
        m = get_machine("Cell (PS3)")
        for lvl in L:
            cfg = optimization_config(m, lvl)
            assert cfg.cell_dense_blocking
            assert cfg.index_compress
            assert not cfg.register_blocking

    def test_parallel_numa_policies(self):
        amd = optimization_config(get_machine("AMD X2"), L.FULL,
                                  parallel=True)
        assert amd.policy is PlacementPolicy.NUMA_AWARE
        blade = optimization_config(get_machine("Cell Blade"), L.FULL,
                                    parallel=True)
        assert blade.policy is PlacementPolicy.INTERLEAVE  # §4.4
        clv = optimization_config(get_machine("Clovertown"), L.FULL,
                                  parallel=True)
        assert clv.policy is PlacementPolicy.SINGLE_NODE  # non-NUMA

    def test_ladder_shapes(self):
        def serial_rungs(name):
            return [p.level for p in ladder(get_machine(name))
                    if p.role & Role.SERIAL]

        assert len(serial_rungs("AMD X2")) == 4
        assert serial_rungs("Cell (PS3)") == [L.FULL]

    def test_table2_contents(self):
        assert OPTIMIZATION_TABLE["register_blocking"]["cell"] == "no"
        assert OPTIMIZATION_TABLE["cache_blocking"]["cell"] == "dense"
        assert OPTIMIZATION_TABLE["branchless"]["x86"] == "no-speedup"

    def test_bad_level(self):
        with pytest.raises(TuningError):
            optimization_config(get_machine("AMD X2"), "super")


class TestLadder:
    def test_one_socket_and_one_system_point_per_machine(self):
        for name in machine_names():
            m = get_machine(name)
            points = ladder(m)
            for role in (Role.SOCKET, Role.SYSTEM):
                assert sum(1 for p in points if p.role & role) == 1
            assert role_point(m, Role.SYSTEM).n_threads == m.n_threads
        ps3 = get_machine("Cell (PS3)")
        assert role_point(ps3, Role.SOCKET) is role_point(ps3, Role.SYSTEM)

    def test_blade_serial_point_is_the_ps3_spe(self):
        blade, ps3 = get_machine("Cell Blade"), get_machine("Cell (PS3)")
        assert not any(p.role & Role.SERIAL for p in ladder(blade))
        assert role_point(blade, Role.SERIAL) == role_point(ps3,
                                                            Role.SERIAL)

    def test_machine_without_a_panel(self):
        from dataclasses import replace

        other = replace(get_machine("AMD X2"), name="Other")
        with pytest.raises(TuningError):
            ladder(other)

    def test_simulate_ladder_in_figure_order(self):
        m = get_machine("AMD X2")
        eng = SpmvEngine(m)
        coo = generate("Epidem", scale=0.02, seed=0)
        results = eng.simulate_ladder(coo)
        assert list(results) == [p.label for p in ladder(m)]
        # The naive bar is the PF structure run without prefetch or
        # codegen, the same as planning the naive rung on its own.
        naive = eng.simulate(eng.plan(coo, level=L.NAIVE))
        assert results["1 Core - Naive"].gflops == naive.gflops
        socket = role_point(m, Role.SOCKET)
        assert (eng.simulate_ladder(coo, [socket])[socket.label].gflops
                == results[socket.label].gflops)


class TestConfigRectangle:
    def test_spread_amd(self):
        m = get_machine("AMD X2")
        assert config_rectangle(m, 2, "spread") == (2, 1, 1)
        assert config_rectangle(m, 4, "spread") == (2, 2, 1)

    def test_pack_amd(self):
        m = get_machine("AMD X2")
        assert config_rectangle(m, 2, "pack") == (1, 2, 1)

    def test_niagara_threads(self):
        m = get_machine("Niagara")
        assert config_rectangle(m, 8, "spread") == (1, 8, 1)
        assert config_rectangle(m, 16, "spread") == (1, 8, 2)
        assert config_rectangle(m, 32, "spread") == (1, 8, 4)

    def test_cell(self):
        assert config_rectangle(get_machine("Cell (PS3)"), 6, "pack") == \
            (1, 6, 1)
        assert config_rectangle(get_machine("Cell Blade"), 16, "spread") \
            == (2, 8, 1)

    def test_out_of_range(self):
        with pytest.raises(TuningError):
            config_rectangle(get_machine("AMD X2"), 5, "spread")


@pytest.mark.parametrize("mname", machine_names())
class TestEngineEndToEnd:
    def test_materialized_matches_original(self, mname, rng):
        coo = generate("FEM-Har", scale=SCALE, seed=1)
        eng = SpmvEngine(get_machine(mname))
        tuned = eng.tune(coo, n_threads=1)
        x = rng.standard_normal(coo.ncols)
        np.testing.assert_allclose(tuned(x), coo.spmv(x), rtol=1e-12)

    def test_parallel_plan_covers_everything(self, mname):
        coo = generate("Circuit", scale=SCALE, seed=1)
        m = get_machine(mname)
        eng = SpmvEngine(m)
        plan = eng.plan(coo, n_threads=min(4, m.n_threads))
        assert plan.profile.nnz_logical == coo.nnz_logical

    def test_simulation_runs(self, mname):
        coo = generate("QCD", scale=SCALE, seed=1)
        eng = SpmvEngine(get_machine(mname))
        plan = eng.plan(coo, n_threads=1)
        res = eng.simulate(plan)
        assert res.gflops > 0
        assert res.time_s > 0
        assert res.traffic.total > 0


class TestOptimizationShape:
    """The ladder must behave like Figure 1 (at full matrix scale, the
    optimized footprint shrinks and performance never degrades)."""

    def test_footprint_shrinks_with_rb(self):
        coo = generate("FEM-Cant", scale=SCALE, seed=0)
        eng = SpmvEngine(get_machine("AMD X2"))
        naive = eng.plan(coo, level=L.NAIVE)
        rb = eng.plan(coo, level=L.PF_RB)
        assert rb.footprint_bytes < naive.footprint_bytes

    def test_prefetch_helps_amd(self):
        coo = generate("FEM-Cant", scale=SCALE, seed=0)
        eng = SpmvEngine(get_machine("AMD X2"))
        naive = eng.simulate(eng.plan(coo, level=L.NAIVE))
        pf = eng.simulate(eng.plan(coo, level=L.PF))
        assert pf.gflops > 1.15 * naive.gflops

    def test_ladder_monotone_amd(self):
        coo = generate("FEM-Ship", scale=SCALE, seed=0)
        eng = SpmvEngine(get_machine("AMD X2"))
        rates = [
            eng.simulate(eng.plan(coo, level=lvl)).gflops
            for lvl in [L.NAIVE, L.PF, L.PF_RB, L.PF_RB_CB]
        ]
        for a, b in zip(rates, rates[1:]):
            assert b >= a * 0.98  # never significantly worse

    def test_multicore_beats_serial(self):
        coo = generate("Protein", scale=SCALE, seed=0)
        for mname, threads in [("AMD X2", 4), ("Niagara", 32),
                               ("Cell Blade", 16)]:
            eng = SpmvEngine(get_machine(mname))
            serial = eng.simulate(eng.plan(coo, n_threads=1))
            par = eng.simulate(eng.plan(coo, n_threads=threads))
            assert par.gflops > 1.5 * serial.gflops, mname

    def test_plan_describe(self):
        coo = generate("Econom", scale=SCALE, seed=0)
        eng = SpmvEngine(get_machine("Clovertown"))
        plan = eng.plan(coo, n_threads=2)
        d = plan.describe()
        assert d["machine"] == "Clovertown"
        assert d["n_threads"] == 2
        assert sum(d["block_formats"].values()) == d["n_blocks"]

    def test_plan_footprint_matches_materialized(self):
        coo = generate("FEM-Har", scale=SCALE, seed=0)
        eng = SpmvEngine(get_machine("AMD X2"))
        tuned = eng.tune(coo, level=L.PF_RB, n_threads=1)
        est = tuned.plan.footprint_bytes
        actual = tuned.matrix.footprint_bytes()
        # Estimate counts per-block storage; materialized adds 16B of
        # extent metadata per cache block.
        overhead = 16 * len(tuned.plan.choices)
        assert abs(actual - overhead - est) <= 0.01 * actual
