#!/usr/bin/env python3
"""Compare the paper's five machines on one matrix (mini Figure 2).

Tunes the same matrix for every platform, simulates the Figure 1
points that stand for one core, one socket and the full system, prints
the Gflop/s bars and the power efficiency ranking — the
architectural-comparison story of §6.6 in one script.

Run: ``python examples/architecture_comparison.py [matrix-name]``
"""

import sys

from repro import SpmvEngine, generate, get_machine, machine_names
from repro.analysis import format_table, power_efficiency
from repro.analysis.report import format_bar_chart
from repro.core import Role, role_point

# Half scale keeps generation quick while staying out of the
# cache-resident regime that flatters the x86 boxes at tiny sizes.
SCALE = 0.5


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Protein"
    a = generate(name, scale=SCALE, seed=0)
    print(f"matrix: {name} at scale {SCALE} "
          f"({a.nnz_logical:,} nonzeros)\n")

    rows = []
    system_rates = {}
    for mname in machine_names():
        machine = get_machine(mname)
        points = [role_point(machine, role)
                  for role in (Role.SERIAL, Role.SOCKET, Role.SYSTEM)]
        results = SpmvEngine(machine).simulate_ladder(a, points)
        rates = [results[p.label].gflops for p in points]
        rows.append([mname, *rates])
        system_rates[mname] = rates[-1]

    print(format_table(
        ["machine", "1 core/thread", "1 socket", "full system"],
        rows, title=f"{name}: simulated Gflop/s per machine",
    ))
    print()
    print(format_bar_chart(
        list(system_rates), list(system_rates.values()),
        unit=" GF/s", title="full-system performance",
    ))
    print()
    eff = {
        m: power_efficiency(get_machine(m), g)
        for m, g in system_rates.items()
    }
    print(format_bar_chart(
        list(eff), list(eff.values()),
        unit=" Mflop/s/W", title="power efficiency (Figure 2b style)",
    ))


if __name__ == "__main__":
    main()
