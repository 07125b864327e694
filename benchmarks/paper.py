"""The paper's evidence, computed once: every table, figure and claim.

    python benchmarks/paper.py [--scale S] [OUT]

One run sweeps each machine's Figure 1 ladder once (with the OSKI and
OSKI-PETSc baselines on x86) and derives from it and the machine models
Tables 1-4, the Figure 2a/2b medians, the twenty numbered §6-§7 claims,
the design ablations and the bandwidth-reduction numbers, as one JSON
dict. At scale 1.0 (the paper's matrix sizes) it goes to the committed
``benchmarks/snapshots/PAPER.json``; at any other scale only to an OUT
that is given. :func:`check` holds every assertion on those numbers, as
a function of the snapshot alone; the script exits 1 when one fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.analysis import format_table, median, power_efficiency
from repro.baselines import OskiTuner
from repro.baselines.petsc import best_petsc
from repro.core import OptimizationLevel, Role, SpmvEngine, ladder, role_point
from repro.core.optimizer import OPTIMIZATION_TABLE, arch_family, \
    optimization_config
from repro.formats import COOMatrix, coo_to_csr, spmm, spmm_intensity_gain
from repro.formats.convert import to_cache_blocked, uniform_block_specs
from repro.formats.symmetric import SymmetricCSRMatrix
from repro.machines import PlacementPolicy, all_machines, get_machine, \
    machine_names
from repro.matrices import generate, suite_names, suite_table
from repro.parallel import partition_rows_balanced, partition_rows_equal
from repro.simulator.executor import simulate_spmv
from repro.simulator.memory import per_core_demand_bw

L = OptimizationLevel

SNAPSHOT = Path(__file__).resolve().parent / "snapshots" / "PAPER.json"

#: Paper Table 1: name -> (DP Gflop/s, DRAM GB/s, flop:byte).
TABLE1_PAPER = {
    "AMD X2": (17.6, 21.2, 0.83),
    "Clovertown": (74.7, 21.2, 3.52),
    "Niagara": (8.0, 25.6, 0.31),
    "Cell (PS3)": (11.0, 25.6, 0.43),
    "Cell Blade": (29.0, 51.2, 0.57),
}

#: Table 4's rows and Figure 2a's bars, and the ladder role each reads.
ROLES = {"one core": Role.SERIAL, "socket": Role.SOCKET,
         "system": Role.SYSTEM}

#: Paper Table 4: machine -> (GB/s, Gflop/s) per row of ROLES.
TABLE4_PAPER = {
    "Niagara": ((0.26, 0.065), (2.06, 0.51), (5.02, 1.24)),
    "Clovertown": ((3.62, 0.89), (6.56, 1.62), (8.86, 2.18)),
    "AMD X2": ((5.40, 1.33), (6.61, 1.63), (12.55, 3.09)),
    "Cell (PS3)": ((3.25, 0.65), (18.35, 3.67), (18.35, 3.67)),
    "Cell Blade": ((3.25, 0.65), (23.20, 4.64), (31.50, 6.30)),
}

#: Ablations compare plans of one matrix: at a 1.0 snapshot they run at
#: this scale, otherwise at the snapshot's. Bandwidth reduction is fixed.
ABLATION_SCALE, BANDWIDTH_SCALE = 0.3, 0.2


# ---------------------------------------------------------------- bars
def figure1(machine_name: str, scale: float,
            matrices: list[str] | None = None) -> dict:
    """All Figure 1 bars for one machine: {matrix: {label: gflops}},
    plus the OSKI (circle) and OSKI-PETSc (triangle) baselines on the
    x86 machines, where the paper shows them."""
    machine = get_machine(machine_name)
    engine = SpmvEngine(machine)
    oski = OskiTuner(machine) if arch_family(machine) == "x86" else None
    data = {}
    for name in matrices or suite_names():
        coo = generate(name, scale=scale, seed=0)
        bars = {label: res.gflops
                for label, res in engine.simulate_ladder(coo).items()}
        if oski is not None:
            bars["OSKI"] = oski.simulate(coo).gflops
            bars["OSKI-PETSc"] = best_petsc(coo, machine).gflops
        data[name] = bars
    return data


def label(machine_name: str, role: Role) -> str:
    """The label of the bar that stands for ``role`` (the blade's serial
    bar is the PS3's, the same SPE)."""
    return role_point(get_machine(machine_name), role).label


def level_label(machine_name: str, level: OptimizationLevel) -> str:
    """The label of the machine's serial rung at ``level``."""
    return next(p.label for p in ladder(get_machine(machine_name))
                if p.level is level and p.role & Role.SERIAL)


def best(machine_name: str, bars: dict[str, float], role: Role) -> float:
    """The best bar among the machine's ladder points carrying ``role``."""
    return max(bars[p.label] for p in ladder(get_machine(machine_name))
               if p.role & role and p.label in bars)


def med(sweep: dict, bar: str) -> float:
    """Median of one bar over the suite."""
    return median(bars[bar] for bars in sweep.values())


# -------------------------------------------------------------- tables
def table1() -> dict:
    out = {}
    for m in all_machines():
        d = m.describe()
        # Clovertown's flop:byte and DRAM GB/s are quoted against the
        # 21.3 GB/s chipset pool, not the per-socket FSB the model
        # treats as binding.
        clv = m.name == "Clovertown"
        out[m.name] = {
            "sxcxt": f"{m.sockets}x{m.cores_per_socket}x{m.core.hw_threads}",
            "ghz": d["clock_ghz"],
            "gflops": d["dp_gflops_system"],
            "gbs": 21.3 if clv else d["dram_gbs"],
            "flop_byte": m.peak_dp_gflops / 21.3 if clv else d["flop_byte"],
            "watts": d["watts_system"],
        }
    return out


def table2() -> dict:
    """The optimization x architecture matrix, and what the engine makes
    of it: Cell gets no register blocking and 2-byte indices, x86 gets
    everything, on FEM-Cant's 2x2-aligned block structure."""
    cell = optimization_config(get_machine("Cell (PS3)"), L.FULL)
    x86 = optimization_config(get_machine("AMD X2"), L.FULL)
    coo = generate("FEM-Cant", scale=0.05, seed=0)
    blocks = {
        name: sorted({f"{c.r}x{c.c}" for _, c in
                      SpmvEngine(get_machine(name)).plan(coo).choices})
        for name in ("Cell (PS3)", "AMD X2")
    }
    return {
        "rows": {opt: [c["x86"], c["niagara"], c["cell"]]
                 for opt, c in OPTIMIZATION_TABLE.items()},
        "cell_full": {"register_blocking": cell.register_blocking,
                      "index_compress": cell.index_compress},
        "x86_full": {"register_blocking": x86.register_blocking,
                     "cache_blocking": x86.cache_blocking,
                     "tlb_blocking": x86.tlb_blocking},
        "fem_cant_blocks": blocks,
    }


def table4(scale: float) -> dict:
    """Sustained GB/s and Gflop/s on the dense matrix at one core, one
    socket and the full system."""
    dense = generate("Dense", scale=scale, seed=0)
    out = {}
    for name in TABLE4_PAPER:
        machine = get_machine(name)
        points = {row: role_point(machine, role)
                  for row, role in ROLES.items()}
        results = SpmvEngine(machine).simulate_ladder(
            dense, list(points.values()))
        out[name] = {row: {"gbs": results[p.label].sustained_gbs,
                           "gflops": results[p.label].gflops}
                     for row, p in points.items()}
    return out


# ------------------------------------------------------------- figures
def figure2a(fig1: dict) -> dict:
    """Median one core / socket / full system per machine, and the x86
    OSKI medians."""
    out, S = {}, Role.SERIAL
    for name, sweep in fig1.items():
        out[name] = {}
        for row, role in ROLES.items():
            # The blade's single-core bar is the PS3's single SPE.
            src = "Cell (PS3)" if (name, role) == ("Cell Blade", S) else name
            out[name][row] = median(best(src, bars, role)
                                    for bars in fig1[src].values())
        if arch_family(get_machine(name)) == "x86":
            out[name]["OSKI"] = med(sweep, "OSKI")
    return out


def figure2b(fig2a: dict) -> dict:
    """Full-system median Mflop/s per system Watt."""
    return {name: power_efficiency(get_machine(name), v["system"])
            for name, v in fig2a.items()}


def claims(fig1: dict) -> list[dict]:
    """The twenty numbered §6-§7 speedup claims, with the paper's value
    and ours."""
    def m(machine_name, bar):
        return med(fig1[machine_name], bar)

    def r(machine_name, role):
        return m(machine_name, label(machine_name, role))

    S, K, Y = Role.SERIAL, Role.SOCKET, Role.SYSTEM
    amd, clv, nia = "AMD X2", "Clovertown", "Niagara"
    blade, spe1 = "Cell Blade", r("Cell (PS3)", S)
    rows = [
        ("6.2-serial", "AMD serial opt vs naive", 1.4,
         r(amd, S) / m(amd, level_label(amd, L.NAIVE))),
        ("6.2-oski", "AMD serial opt vs OSKI", 1.2,
         r(amd, S) / m(amd, "OSKI")),
        ("6.2-2core", "AMD 2-core vs 1-core opt", 1.7, r(amd, K) / r(amd, S)),
        ("6.2-full", "AMD full system vs 1-core opt", 3.3,
         r(amd, Y) / r(amd, S)),
        ("6.2-petsc", "AMD full system vs OSKI-PETSc", 3.2,
         r(amd, Y) / m(amd, "OSKI-PETSc")),
        ("6.3-serial", "Clovertown serial opt vs naive", 1.1,
         r(clv, S) / m(clv, level_label(clv, L.NAIVE))),
        ("6.3-2core", "Clovertown 2-core vs serial opt", 1.6,
         m(clv, "2 Core[*]") / r(clv, S)),
        ("6.3-full", "Clovertown full system vs serial opt", 2.3,
         r(clv, Y) / r(clv, S)),
        ("6.3-oski", "Clovertown serial vs OSKI", 1.4,
         r(clv, S) / m(clv, "OSKI")),
        ("6.3-petsc", "Clovertown parallel vs OSKI-PETSc", 2.0,
         r(clv, Y) / m(clv, "OSKI-PETSc")),
        ("6.4-8t", "Niagara 8 threads vs serial opt", 7.6,
         r(nia, K) / r(nia, S)),
        ("6.4-16t", "Niagara 16 threads vs serial opt", 13.8,
         m(nia, "8 Cores x 2 Threads[*]") / r(nia, S)),
        ("6.4-32t", "Niagara 32 threads vs serial opt", 21.2,
         r(nia, Y) / r(nia, S)),
        ("6.5-6spe", "Cell 6 SPEs vs 1 SPE", 5.7, r("Cell (PS3)", K) / spe1),
        ("6.5-8spe", "Cell 8 SPEs vs 1 SPE", 7.4, r(blade, K) / spe1),
        ("6.5-16spe", "Cell 16 SPEs vs 1 SPE", 9.9, r(blade, Y) / spe1),
        # Figure 2a's Niagara socket bar is 8 cores x 1 thread (threads
        # join only in the full-system bar): that is what makes 12.8x.
        ("6.6-vs-clv", "Blade socket vs Clovertown socket", 3.4,
         r(blade, K) / r(clv, K)),
        ("6.6-vs-amd", "Blade socket vs AMD socket", 3.6,
         r(blade, K) / r(amd, K)),
        ("6.6-vs-nia", "Blade socket vs Niagara socket", 12.8,
         r(blade, K) / r(nia, K)),
        # §7: Pthreads more than twice as fast as MPI (AMD full system).
        ("7-pthread", "Pthreads vs MPI runtimes", 2.0,
         r(amd, Y) / m(amd, "OSKI-PETSc")),
    ]
    return [{"id": cid, "text": text, "paper": paper, "ours": ours}
            for cid, text, paper, ours in rows]


# ----------------------------------------------------------- ablations
def ablations(scale: float) -> dict:
    """Each flips one design choice off (or swaps a heuristic for its
    classical alternative) on the AMD X2 model."""
    m = get_machine("AMD X2")
    eng = SpmvEngine(m)
    lp, cant, web, tunnel, accel = (
        generate(name, scale=scale, seed=0)
        for name in ("LP", "FEM-Cant", "Webbase", "Tunnel", "FEM-Accel"))

    def plan(coo, level=L.FULL, n_threads=1, **change):
        cfg = optimization_config(m, level, parallel=n_threads > 1)
        return eng.plan(coo, n_threads=n_threads,
                        config=replace(cfg, **change))

    def gf(p):
        return eng.simulate(p).gflops

    ic = {on: plan(cant, index_compress=on) for on in (True, False)}
    bcoo = {on: plan(web, allow_bcoo=on) for on in (True, False)}
    numa = {pol.value: plan(tunnel, n_threads=4, policy=pol)
            for pol in PlacementPolicy}
    fixed_grid = to_cache_blocked(lp, uniform_block_specs(lp.shape, 1024,
                                                          1024))
    return {
        "scale": scale,
        # The paper's sparse (line-budget) cache blocking vs a classical
        # fixed 1K x 1K grid and none, on the CB-sensitive LP matrix.
        "cache_blocking": {
            "sparse": gf(plan(lp, L.PF_RB_CB)),
            "dense_1k": simulate_spmv(m, fixed_grid, n_threads=1).gflops,
            "none": gf(plan(lp, L.PF_RB))},
        "index_compression": {
            "footprint_on": ic[True].footprint_bytes,
            "gflops_on": gf(ic[True]),
            "footprint_off": ic[False].footprint_bytes,
            "gflops_off": gf(ic[False])},
        "bcoo": {
            "footprint_on": bcoo[True].footprint_bytes,
            "footprint_off": bcoo[False].footprint_bytes,
            "formats": bcoo[True].describe()["block_formats"]},
        # NUMA-aware vs interleave vs single node on the full system.
        "numa_placement": {
            **{pol: gf(p) for pol, p in numa.items()},
            "tunnel_footprint_bytes": numa["numa_aware"].footprint_bytes,
            "llc_bytes": m.total_llc_bytes},
        "tlb_blocking": {"on": gf(plan(accel)),
                         "off": gf(plan(accel, tlb_blocking=False))},
        # §4.1's prefetch-distance sweep: doubles -> GB/s per core.
        "prefetch_distance": {
            str(d): per_core_demand_bw(m, prefetch_distance_doubles=d) / 1e9
            for d in (0, 8, 16, 32, 64, 128, 256, 512)},
        # nnz-balanced vs PETSc's equal-rows partition on the skewed LP.
        "partition_balance": {
            "balanced": partition_rows_balanced(lp, 4).imbalance,
            "equal_rows": partition_rows_equal(lp, 4).imbalance},
    }


def bandwidth_reduction() -> dict:
    """§7's bandwidth-reduction levers: symmetric half storage and
    multiple-vector SpMM (simulated AMD X2, one core)."""
    m = get_machine("AMD X2")
    cant = generate("FEM-Cant", scale=BANDWIDTH_SCALE, seed=0)
    at = cant.transpose()
    sym = COOMatrix(cant.shape, np.concatenate([cant.row, at.row]),
                    np.concatenate([cant.col, at.col]),
                    np.concatenate([cant.val / 2, at.val / 2]))
    full = coo_to_csr(sym)
    half = SymmetricCSRMatrix.from_coo(sym)
    x = np.random.default_rng(0).standard_normal(sym.ncols)

    har = coo_to_csr(generate("FEM-Har", scale=BANDWIDTH_SCALE, seed=0))
    xs = np.random.default_rng(1).standard_normal((har.ncols, 4))
    by_column = np.column_stack([har.spmv(xs[:, j]) for j in range(4)])
    return {
        "symmetry": {
            "footprint_full": full.footprint_bytes(),
            "footprint_half": half.footprint_bytes(),
            "gflops_full": simulate_spmv(m, full, n_threads=1).gflops,
            "gflops_half": simulate_spmv(m, half, n_threads=1).gflops,
            "half_matches_full": bool(np.allclose(
                half.spmv(x), full.spmv(x), rtol=1e-9, atol=1e-9))},
        "multivector": {
            "intensity_gain": {str(k): spmm_intensity_gain(har, k)
                               for k in (1, 2, 4, 8, 16)},
            "spmm_matches_spmv": bool(np.allclose(
                spmm(har, xs), by_column, rtol=1e-10, atol=0.0))},
    }


def build(scale: float = 1.0) -> dict:
    """The whole snapshot at one scale."""
    fig1 = {}
    for name in machine_names():
        t0 = time.perf_counter()
        fig1[name] = figure1(name, scale)
        print(f"figure 1 / {name}: {time.perf_counter() - t0:.0f} s",
              file=sys.stderr, flush=True)
    fig2a = figure2a(fig1)
    claim_list = claims(fig1)
    return {
        "scale": scale,
        "table1": table1(),
        "table2": table2(),
        "table3": suite_table(scale=scale),
        "table4": table4(scale),
        "figure1": fig1,
        "figure2a": fig2a,
        "figure2b": figure2b(fig2a),
        "claims": claim_list,
        "claims_within_35pct": within_35pct(claim_list),
        "ablations": ablations(ABLATION_SCALE if scale == 1.0 else scale),
        "bandwidth_reduction": bandwidth_reduction(),
    }


# -------------------------------------------------------------- checks
#: Claims within ±35 % of the paper at scale 1.0; a change that lowers
#: the count must lower this floor and say why.
CLAIMS_WITHIN_35PCT = 17


def within_35pct(claim_list: list[dict]) -> int:
    return sum(abs(c["ours"] / c["paper"] - 1) <= 0.35 for c in claim_list)


def check(snap: dict, skipped: list[str] | None = None) -> list[str]:
    """Every assertion on the paper's numbers; returns the failures.

    A group whose precondition does not hold is not run; its name and
    the reason go to ``skipped``: the NUMA ablation while Tunnel fits in
    cache, and every scale-1.0 group on a smaller snapshot.
    """
    fails: list[str] = []
    skipped = [] if skipped is None else skipped

    def need(ok, what):
        if not ok:
            fails.append(what)

    def between(what, x, lo, hi):
        need(lo < x < hi, f"{what} = {x:.3g}, not in ({lo}, {hi})")

    for name, row in snap["table1"].items():
        gf, gbs, fb = TABLE1_PAPER[name]
        need(abs(row["gflops"] - gf) < 0.03 * gf, f"table1 {name} Gflop/s")
        need(abs(row["gbs"] - gbs) < 0.03 * gbs, f"table1 {name} GB/s")
        need(abs(row["flop_byte"] - fb) < 0.06, f"table1 {name} flop:byte")

    t2 = snap["table2"]
    need(len(t2["rows"]) == 17, "table2 does not have 17 rows")
    need(not t2["cell_full"]["register_blocking"], "table2: Cell RB")
    need(t2["cell_full"]["index_compress"], "table2: Cell 32-bit indices")
    need(all(t2["x86_full"].values()), "table2: x86 lacks RB, CB or TLB")
    blocks = t2["fem_cant_blocks"]
    need(set(blocks["Cell (PS3)"]) <= {"1x1"}, "table2: Cell plan blocks")
    need(bool(set(blocks["AMD X2"]) - {"1x1"}), "table2: AMD plan unblocked")
    need(len(snap["table3"]) == 14, "table3 does not have 14 matrices")
    need(len({c["id"] for c in snap["claims"]}) == 20,
         "claims are not the paper's twenty")
    need(snap["claims_within_35pct"] == within_35pct(snap["claims"]),
         "claims: the recorded count within ±35 % is stale")

    a = snap["ablations"]
    cb, ic, bc = a["cache_blocking"], a["index_compression"], a["bcoo"]
    need(cb["sparse"] > cb["none"], "ablation: CB does not pay on LP")
    need(cb["sparse"] >= cb["dense_1k"] * 0.9, "ablation: CB < 0.9x 1K grid")
    need(ic["footprint_on"] < ic["footprint_off"], "ablation: 16-bit size")
    need(ic["gflops_on"] >= ic["gflops_off"] * 0.999, "ablation: 16-bit rate")
    need(bc["footprint_on"] < bc["footprint_off"], "ablation: BCOO size")
    need(any(k.startswith("bcoo") for k in bc["formats"]),
         "ablation: Webbase's plan has no BCOO block")
    numa = a["numa_placement"]
    if numa["tunnel_footprint_bytes"] <= numa["llc_bytes"]:
        skipped.append(
            f"ablation numa_placement: Tunnel's footprint "
            f"({numa['tunnel_footprint_bytes']} B) fits AMD X2's "
            f"last-level caches ({numa['llc_bytes']} B) at scale "
            f"{a['scale']}, so placement cannot matter")
    else:
        need(numa["numa_aware"] > numa["interleave"],
             "ablation: NUMA-aware <= interleave")
        need(numa["interleave"] >= numa["single_node"],
             "ablation: interleave < single node")
        need(numa["numa_aware"] > 1.4 * numa["single_node"],
             "ablation: NUMA-aware <= 1.4x single node")
    need(a["tlb_blocking"]["on"] >= a["tlb_blocking"]["off"] * 0.98,
         "ablation: TLB blocking hurts FEM-Accel")
    bws = list(a["prefetch_distance"].values())
    need(0 < bws.index(max(bws)) < len(bws) - 1,
         "ablation: prefetch distance has no interior optimum")
    need(bws[0] < 0.75 * max(bws), "ablation: no prefetch not worse")
    need(bws[-1] > 0.8 * max(bws), "ablation: deep prefetch decays > 20 %")
    pb = a["partition_balance"]
    need(pb["balanced"] < pb["equal_rows"], "ablation: nnz balance")
    need(pb["balanced"] < 1.5, "ablation: nnz-balanced imbalance >= 1.5")

    sym = snap["bandwidth_reduction"]["symmetry"]
    need(sym["half_matches_full"], "symmetry: half-storage SpMV is wrong")
    need(sym["footprint_half"] < 0.62 * sym["footprint_full"],
         "symmetry: half storage >= 62 % of full")
    need(sym["gflops_half"] > 1.25 * sym["gflops_full"],
         "symmetry: half storage <= 1.25x faster")
    mv = snap["bandwidth_reduction"]["multivector"]
    gains = list(mv["intensity_gain"].values())
    need(mv["spmm_matches_spmv"], "multivector: fused SpMM is wrong")
    need(gains[0] == 1.0 and gains == sorted(gains) and gains[-1] > 1.5,
         f"multivector: intensity gains {gains} not 1.0 rising past 1.5")

    if snap["scale"] != 1.0:
        skipped.append("table 3 sizes, table 4, figures 1, 2a, 2b and the "
                       "claims' band: need the paper's matrix sizes (scale "
                       f"1.0), snapshot is at {snap['scale']}")
        return fails

    for r in snap["table3"]:
        need(abs(r["rows"] - r["paper_rows"]) <= 0.06 * r["paper_rows"],
             f"table3 {r['name']} rows")
        need(abs(r["nnz"] - r["paper_nnz"]) <= 0.2 * r["paper_nnz"],
             f"table3 {r['name']} nnz")
    # Table 4: sustained GB/s within 25 % of the paper, Gflop/s 30 %.
    for name, rows in snap["table4"].items():
        for (row, v), (gbs, gf) in zip(rows.items(), TABLE4_PAPER[name]):
            need(abs(v["gbs"] - gbs) <= 0.25 * gbs,
                 f"table4 {name} {row}: {v['gbs']:.2f} GB/s vs {gbs}")
            need(abs(v["gflops"] - gf) <= 0.30 * gf,
                 f"table4 {name} {row}: {v['gflops']:.3f} vs {gf}")

    fig1 = snap["figure1"]
    S, K, Y = Role.SERIAL, Role.SOCKET, Role.SYSTEM
    amd, clv, nia = "AMD X2", "Clovertown", "Niagara"
    ps3, blade = "Cell (PS3)", "Cell Blade"

    def M(machine_name, bar):
        return med(fig1[machine_name], bar)

    def R(machine_name, role):
        return M(machine_name, label(machine_name, role))

    # §6.2. The second core and socket read low against the paper's 1.7x
    # and 3.3x: the serial rate is calibrated on Table 4's dense best
    # case (EXPERIMENTS.md); direction holds.
    s = R(amd, S)
    between("AMD X2 serial opt / naive",
            s / M(amd, level_label(amd, L.NAIVE)), 1.15, 3.0)
    need(s > M(amd, "OSKI"), "AMD X2 serial opt <= OSKI")
    dual, full = R(amd, K) / s, R(amd, Y) / s
    between("AMD X2 2-core / serial opt", dual, 1.1, 2.1)
    between("AMD X2 full system / serial opt", full, 1.8, 4.0)
    need(full > 1.5 * dual, "AMD X2 second socket not the big win")
    need(R(amd, Y) > 1.6 * M(amd, "OSKI-PETSc"), "AMD X2 full vs PETSc")
    # Block-structured FEM gains from RB, little from CB; LP the opposite
    # (EXPERIMENTS.md says why FEM-Cant stands in for FEM-Ship).
    pf, rb, cb = (level_label(amd, lv) for lv in (L.PF, L.PF_RB, L.PF_RB_CB))
    cant, lp = fig1[amd]["FEM-Cant"], fig1[amd]["LP"]
    need(cant[rb] > 1.1 * cant[pf], "AMD X2 FEM-Cant RB gain <= 10 %")
    need(lp[cb] / lp[rb] > 1.3, "AMD X2 LP CB step <= 1.3")
    need(lp[cb] / lp[rb] > 2 * cant[cb] / cant[rb],
         "AMD X2 LP CB step <= 2x FEM-Cant's")
    need(lp[rb] < 1.15 * lp[pf], "AMD X2 LP RB gain >= 15 %")

    # §6.3: little serial gain, 1.6x from the second core, little from
    # four (FSB saturated), a disappointing full system; Economics
    # (<16 MB) scales superlinearly into the second socket's L2.
    s, two = R(clv, S), M(clv, "2 Core[*]")
    need(s / M(clv, level_label(clv, L.NAIVE)) < 1.9,
         "Clovertown serial opt / naive >= 1.9")
    between("Clovertown 2-core / serial opt", two / s, 1.25, 2.0)
    need(R(clv, K) / two < 1.35, "Clovertown 4-core / 2-core >= 1.35")
    between("Clovertown full / serial opt", R(clv, Y) / s, 1.5, 3.2)
    need(s >= M(clv, "OSKI") * 0.95, "Clovertown serial < 0.95x OSKI")
    need(R(clv, Y) > 1.15 * M(clv, "OSKI-PETSc"), "Clovertown vs PETSc")
    econ = fig1[clv]["Econom"]
    need(econ[label(clv, Y)] > 1.6 * econ[label(clv, K)],
         "Clovertown Econom full system <= 1.6x one socket")

    # §6.4: ~32 Mflop/s naive, +15 % optimized, 7.6/13.8/21.2x thread
    # scaling, ~0.8 Gflop/s full system.
    naive, s = M(nia, level_label(nia, L.NAIVE)), R(nia, S)
    between("Niagara naive Gflop/s", naive, 0.015, 0.060)
    between("Niagara serial opt / naive", s / naive, 1.05, 1.8)
    s8, s32 = R(nia, K) / s, R(nia, Y) / s
    s16 = M(nia, "8 Cores x 2 Threads[*]") / s
    between("Niagara 8 threads / serial", s8, 5.0, 11.0)
    between("Niagara 16 threads / serial", s16, 9.0, 19.0)
    between("Niagara 32 threads / serial", s32, 14.0, 30.0)
    need(s8 < s16 < s32, "Niagara thread scaling not monotone")
    between("Niagara full system Gflop/s", R(nia, Y), 0.4, 1.3)

    # §6.5: 5.7x / 7.4x / 9.9x over one PS3 SPE; few nonzeros per row per
    # dense cache block are heavily penalized.
    base = R(ps3, S)
    s6, s8, s16 = R(ps3, K) / base, R(blade, K) / base, R(blade, Y) / base
    need(4.0 < s6 <= 6.3, f"Cell 6 SPEs / 1 = {s6:.2f}")
    need(5.0 < s8 <= 8.5, f"Cell 8 SPEs / 1 = {s8:.2f}")
    need(6.5 < s16 <= 13.0, f"Cell 16 SPEs / 1 = {s16:.2f}")
    need(s6 < s8 < s16, "Cell SPE scaling not monotone")
    top = {m: bars[label(blade, Y)] for m, bars in fig1[blade].items()}
    for weak in ("Econom", "Circuit"):
        need(top[weak] < 0.5 * top["FEM-Sphr"], f"Cell Blade {weak}")

    # §6.6: 3.4x / 3.6x / 12.8x single-socket speedups of the blade.
    f = snap["figure2a"]
    for other, lo, hi in ((clv, 2.2, 5.5), (amd, 2.2, 5.5), (nia, 6.0, 25)):
        between(f"figure2a blade / {other} socket",
                f[blade]["socket"] / f[other]["socket"], lo, hi)
    for other in (amd, clv, nia, ps3):
        need(f[blade]["system"] > f[other]["system"],
             f"figure2a blade system <= {other}")
    need(f[clv]["socket"] < 1.5 * f[amd]["socket"],
         "figure2a Clovertown socket >= 1.5x AMD X2")
    need(f[amd]["system"] > f[clv]["system"], "figure2a AMD X2 system")
    for row in ROLES:
        for other in (amd, clv, blade):
            need(f[nia][row] < f[other][row], f"figure2a {row} Niagara")

    mpw = snap["figure2b"]
    need(mpw[blade] >= max(mpw[amd], mpw[clv], mpw[nia]),
         "figure2b: the blade does not lead")
    need(mpw[ps3] > 0.6 * mpw[blade], "figure2b: PS3 < 0.6x blade")
    for other, lo, hi in ((amd, 1.3, 3.5), (clv, 2.0, 6.0), (nia, 2.5, 9.0)):
        between(f"figure2b blade / {other}", mpw[blade] / mpw[other], lo, hi)
    need(mpw[nia] == min(mpw.values()), "figure2b: Niagara not lowest")

    # Every claim in the paper's direction, within a factor of 2.
    for c in snap["claims"]:
        need(c["ours"] > 1.0 and 0.5 <= c["ours"] / c["paper"] <= 2.0,
             f"claim {c['id']}: {c['ours']:.2f} vs paper {c['paper']}")
    need(snap["claims_within_35pct"] >= CLAIMS_WITHIN_35PCT,
         f"claims: fewer than {CLAIMS_WITHIN_35PCT} within ±35 %")
    return fails


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("out", nargs="?", help="default at scale 1.0: "
                    "benchmarks/snapshots/PAPER.json; else none")
    args = ap.parse_args(argv)
    out = Path(args.out) if args.out else (
        SNAPSHOT if args.scale == 1.0 else None)
    if args.scale != 1.0 and out is not None and out.resolve() == SNAPSHOT:
        ap.error("only a scale-1.0 run may write the committed snapshot")
    t0 = time.perf_counter()
    snap = build(args.scale)
    if out is not None:
        out.write_text(json.dumps(snap, indent=1,
                                  default=lambda o: o.item()) + "\n")
    print(format_table(
        ["claim", "description", "paper", "ours", "ratio"],
        [[c["id"], c["text"], c["paper"], c["ours"], c["ours"] / c["paper"]]
         for c in snap["claims"]], float_fmt="{:.2f}",
        title=f"Speedup claims at scale {args.scale}: "
              f"{snap['claims_within_35pct']} of 20 within ±35 %"))
    skipped: list[str] = []
    fails = check(snap, skipped)
    print("\n".join([f"skipped: {x}" for x in skipped]
                    + [f"FAILED: {x}" for x in fails]))
    print(f"{len(fails)} checks failed; {time.perf_counter() - t0:.0f} s")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
