"""Table 4 — sustained bandwidth & compute rate on the dense matrix.

Runs the fully optimized engine on the dense-in-sparse-format probe at
one core / one socket / full system for every machine and prints
sustained GB/s and effective Gflop/s beside the paper's measurements.
"""

from __future__ import annotations

from _harness import bench_scale, run_once

from repro.analysis import format_table
from repro.core import Role, SpmvEngine, role_point
from repro.machines import get_machine
from repro.matrices import generate

#: Paper Table 4: machine -> {config: (GB/s, Gflop/s)}.
PAPER = {
    "Niagara": {"one core": (0.26, 0.065), "socket": (2.06, 0.51),
                "system": (5.02, 1.24)},
    "Clovertown": {"one core": (3.62, 0.89), "socket": (6.56, 1.62),
                   "system": (8.86, 2.18)},
    "AMD X2": {"one core": (5.40, 1.33), "socket": (6.61, 1.63),
               "system": (12.55, 3.09)},
    "Cell (PS3)": {"one core": (3.25, 0.65), "socket": (18.35, 3.67),
                   "system": (18.35, 3.67)},
    "Cell Blade": {"one core": (3.25, 0.65), "socket": (23.20, 4.64),
                   "system": (31.50, 6.30)},
}

#: Table 4's rows and the ladder role each one reads.
ROLES = {"one core": Role.SERIAL, "socket": Role.SOCKET,
         "system": Role.SYSTEM}


def build_table4(scale: float) -> list[list]:
    dense = generate("Dense", scale=scale, seed=0)
    rows = []
    for name in PAPER:
        machine = get_machine(name)
        points = {label: role_point(machine, role)
                  for label, role in ROLES.items()}
        results = SpmvEngine(machine).simulate_ladder(
            dense, list(points.values())
        )
        for label, point in points.items():
            res = results[point.label]
            gbs_paper, gf_paper = PAPER[name][label]
            rows.append([name, label, res.sustained_gbs, gbs_paper,
                         res.gflops, gf_paper])
    return rows


def test_table4(benchmark):
    scale = bench_scale()
    rows = run_once(benchmark, lambda: build_table4(scale))
    print()
    print(format_table(
        ["machine", "config", "GB/s", "paper GB/s", "Gflop/s",
         "paper GF/s"],
        rows, title=f"Table 4: dense-matrix sustained rates "
                    f"(scale={scale})",
    ))
    if scale == 1.0:
        # Every modeled sustained bandwidth and compute rate must land
        # within 25% of the paper's measurement.
        for name, label, gbs, gbs_p, gf, gf_p in rows:
            assert abs(gbs - gbs_p) <= 0.25 * gbs_p, (name, label)
            assert abs(gf - gf_p) <= 0.30 * gf_p, (name, label)
