"""Figure 1 (top) — SpMV performance ladder on the AMD X2.

Regenerates every bar: naive → +PF → +RB → +CB single core, 2-core
socket, dual-socket full system, plus the OSKI (circle) and OSKI-PETSc
(triangle) baselines, for all 14 matrices.
"""

from __future__ import annotations

from _harness import bench_scale, figure1_data, ladder_labels, run_once

from repro.analysis import format_table, median

MACHINE = "AMD X2"

COLS = ladder_labels(MACHINE) + ["OSKI", "OSKI-PETSc"]


def test_fig1_amd_x2(benchmark):
    scale = bench_scale()
    data = run_once(benchmark, lambda: figure1_data(MACHINE, scale))
    rows = [[name] + [bars.get(c, float("nan")) for c in COLS]
            for name, bars in data.items()]
    meds = [median([bars[c] for bars in data.values()]) for c in COLS]
    rows.append(["MEDIAN"] + meds)
    print()
    print(format_table(["matrix"] + COLS, rows,
                       title=f"Figure 1 / AMD X2, Gflop/s "
                             f"(scale={scale})"))

    med = {c: m for c, m in zip(COLS, meds)}
    if scale == 1.0:
        # §6.2 median claims (shape, generous tolerance):
        # serial optimizations speed up naive by ~1.4x;
        serial_gain = med["1 Core[PF,RB,CB]"] / med["1 Core - Naive"]
        assert 1.15 < serial_gain < 3.0
        # ~1.2x over OSKI;
        assert med["1 Core[PF,RB,CB]"] > med["OSKI"]
        # Gain from the second core (socket saturation). The paper
        # measures 1.7x; our single-core bandwidth is calibrated on
        # Table 4's *dense* best case, making the serial baseline
        # optimistic and compressing this ratio (see EXPERIMENTS.md) —
        # direction and ordering still hold.
        dual = med["2 Core[*]"] / med["1 Core[PF,RB,CB]"]
        assert 1.1 < dual < 2.1
        # Full system over optimized serial (second memory controller);
        # paper: 3.3x, ours compressed by the same serial baseline.
        full = med["Dual Socket x 2 Core[*]"] / med["1 Core[PF,RB,CB]"]
        assert 1.8 < full < 4.0
        assert full > 1.5 * dual  # the second socket is the big win
        # ~3.2x over full-system OSKI-PETSc.
        vs_petsc = med["Dual Socket x 2 Core[*]"] / med["OSKI-PETSc"]
        assert vs_petsc > 1.6
        # Matrix-structure effects (§6.2): block-structured FEM
        # matrices gain from register blocking but little from cache
        # blocking; LP the opposite. (The paper demonstrates this on
        # FEM-Ship; our synthetic Ship has 3-dof nodes whose structure
        # power-of-two tiles cannot capture without mesh-chain
        # contiguity, so the even-dof FEM matrices carry the claim —
        # see EXPERIMENTS.md.)
        cant = data["FEM-Cant"]
        assert cant["1 Core[PF,RB]"] > 1.1 * cant["1 Core[PF]"]
        cb_step_cant = (cant["1 Core[PF,RB,CB]"]
                        / cant["1 Core[PF,RB]"])
        lp = data["LP"]
        cb_step_lp = lp["1 Core[PF,RB,CB]"] / lp["1 Core[PF,RB]"]
        assert cb_step_lp > 1.3
        assert cb_step_lp > 2 * cb_step_cant
        assert lp["1 Core[PF,RB]"] < 1.15 * lp["1 Core[PF]"]
