#!/usr/bin/env python3
"""Inside the auto-tuner: what the footprint heuristic actually picks.

For a handful of structurally different matrices, shows the per-cache-
block decisions the paper's one-pass heuristic makes (format, register
block, index width), the resulting footprint vs the naive 16 B/nonzero,
and the simulated effect of each optimization rung — Figure 1's ladder
for a single matrix, with the reasoning visible.

Run: ``python examples/autotuning_study.py``
"""

from repro import SpmvEngine, generate, get_machine
from repro.analysis import format_table
from repro.formats.footprint import naive_footprint_bytes

SCALE = 0.15
MATRICES = ["FEM-Cant", "Protein", "Epidem", "Webbase"]


def main() -> None:
    machine = get_machine("AMD X2")
    engine = SpmvEngine(machine)
    for name in MATRICES:
        coo = generate(name, scale=SCALE, seed=0)
        plan = engine.plan(coo)
        d = plan.describe()
        naive = naive_footprint_bytes(coo.nnz_logical)
        print(f"\n=== {name}: {coo.nnz_logical:,} nnz ===")
        print(f"cache blocks: {d['n_blocks']}, formats: "
              f"{d['block_formats']}")
        print(f"footprint: {d['footprint_bytes'] / 1e6:.2f} MB vs "
              f"naive {naive / 1e6:.2f} MB "
              f"({naive / d['footprint_bytes']:.2f}x smaller)")
        rows = []
        prev = None
        for label, res in engine.simulate_ladder(coo).items():
            gain = "" if prev is None else f"+{res.gflops / prev - 1:.0%}"
            rows.append([label, res.gflops, res.bottleneck, gain])
            prev = res.gflops
        print(format_table(
            ["bar", "Gflop/s", "bound by", "step gain"], rows,
        ))


if __name__ == "__main__":
    main()
