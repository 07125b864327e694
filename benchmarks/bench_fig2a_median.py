"""Figure 2a — median-matrix architectural comparison.

One core / one full socket / full system median Gflop/s per machine,
plus the x86 OSKI medians, and the paper's headline single-socket
ratios (Cell blade 3.4x/3.6x/12.8x over Clovertown/AMD/Niagara).
"""

from __future__ import annotations

from _harness import (
    bench_scale,
    best_serial,
    best_socket,
    best_system,
    figure1_data,
    run_once,
)

from repro.analysis import format_table, median
from repro.machines import machine_names


def compute(scale):
    out = {}
    ps3 = figure1_data("Cell (PS3)", scale)
    for name in machine_names():
        data = figure1_data(name, scale)
        if name == "Cell Blade":
            # Figure 2a's Cell single-core bar is the PS3's single SPE.
            one_core = median(
                best_serial("Cell (PS3)", b) for b in ps3.values()
            )
        else:
            one_core = median(best_serial(name, b) for b in data.values())
        out[name] = {
            "1 core": one_core,
            "socket": median(
                best_socket(name, b) for b in data.values()
            ),
            "system": median(
                best_system(name, b) for b in data.values()
            ),
        }
        if name in ("AMD X2", "Clovertown"):
            out[name]["OSKI"] = median(
                b["OSKI"] for b in data.values()
            )
    return out


def test_fig2a(benchmark):
    scale = bench_scale()
    meds = run_once(benchmark, lambda: compute(scale))
    rows = [
        [name, v["1 core"], v["socket"], v["system"],
         v.get("OSKI", float("nan"))]
        for name, v in meds.items()
    ]
    print()
    print(format_table(
        ["machine", "1 core", "1 socket", "full system", "OSKI serial"],
        rows, title=f"Figure 2a: median Gflop/s (scale={scale})",
    ))
    if scale == 1.0:
        blade = meds["Cell Blade"]["socket"]
        # §6.6: "3.4x, 3.6x and 12.8x single-socket speedups compared
        # with the Clovertown, AMD X2, and Niagara".
        r_clv = blade / meds["Clovertown"]["socket"]
        r_amd = blade / meds["AMD X2"]["socket"]
        r_nia = blade / meds["Niagara"]["socket"]
        assert 2.2 < r_clv < 5.5, r_clv
        assert 2.2 < r_amd < 5.5, r_amd
        assert 6.0 < r_nia < 25.0, r_nia
        # Cell blade dominates every other full system.
        blade_sys = meds["Cell Blade"]["system"]
        for other in ["AMD X2", "Clovertown", "Niagara", "Cell (PS3)"]:
            assert blade_sys > meds[other]["system"], other
        # Clovertown ~ AMD per socket despite 4.2x the peak flops; AMD
        # wins the full system (Clovertown's FSBs don't scale).
        assert meds["Clovertown"]["socket"] < 1.5 * meds["AMD X2"]["socket"]
        assert meds["AMD X2"]["system"] > meds["Clovertown"]["system"]
        # Niagara is the slowest platform at every granularity.
        for level in ["1 core", "socket", "system"]:
            for other in ["AMD X2", "Clovertown", "Cell Blade"]:
                assert meds["Niagara"][level] < meds[other][level]
