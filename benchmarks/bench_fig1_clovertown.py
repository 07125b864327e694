"""Figure 1 (second) — SpMV performance ladder on the Intel Clovertown."""

from __future__ import annotations

from _harness import bench_scale, figure1_data, ladder_labels, run_once

from repro.analysis import format_table, median

MACHINE = "Clovertown"

COLS = ladder_labels(MACHINE) + ["OSKI", "OSKI-PETSc"]


def test_fig1_clovertown(benchmark):
    scale = bench_scale()
    data = run_once(benchmark, lambda: figure1_data(MACHINE, scale))
    rows = [[name] + [bars.get(c, float("nan")) for c in COLS]
            for name, bars in data.items()]
    meds = [median([bars[c] for bars in data.values()]) for c in COLS]
    rows.append(["MEDIAN"] + meds)
    print()
    print(format_table(["matrix"] + COLS, rows,
                       title=f"Figure 1 / Clovertown, Gflop/s "
                             f"(scale={scale})"))

    med = {c: m for c, m in zip(COLS, meds)}
    if scale == 1.0:
        # §6.3: single-core optimization gains only ~1.1x (hardware
        # prefetch already good, RB on fewer than half the matrices, CB
        # useless vs the big L2) — far smaller than AMD's 1.4x.
        serial_gain = med["1 Core[PF,RB,CB]"] / med["1 Core - Naive"]
        assert serial_gain < 1.9
        # 1.6x from the second core...
        dual = med["2 Core[*]"] / med["1 Core[PF,RB,CB]"]
        assert 1.25 < dual < 2.0
        # ...but four cores add little (FSB saturated at two).
        quad = med["4 Core[*]"] / med["2 Core[*]"]
        assert quad < 1.35
        # Full system only ~2.3x over optimized serial — "somewhat
        # disappointing".
        full = med["2 Socket x 4 Core[*]"] / med["1 Core[PF,RB,CB]"]
        assert 1.5 < full < 3.2
        # Serial 1.4x over OSKI; parallel over OSKI-PETSc (paper ~2x —
        # our PETSc model enjoys the same simulator optimism on this
        # non-NUMA machine, compressing the gap; direction holds).
        assert med["1 Core[PF,RB,CB]"] >= med["OSKI"] * 0.95
        assert med["2 Socket x 4 Core[*]"] > 1.15 * med["OSKI-PETSc"]
        # §6.3's cache effect: Economics (<16 MB working set) scales
        # superlinearly from one socket (8 MB L2) to two (16 MB).
        econ = data["Econom"]
        assert econ["2 Socket x 4 Core[*]"] > 1.6 * econ["4 Core[*]"]
