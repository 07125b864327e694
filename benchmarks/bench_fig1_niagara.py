"""Figure 1 (third) — SpMV on the Sun Niagara CMT thread sweep."""

from __future__ import annotations

from _harness import bench_scale, figure1_data, ladder_labels, run_once

from repro.analysis import format_table, median

MACHINE = "Niagara"

COLS = ladder_labels(MACHINE)


def test_fig1_niagara(benchmark):
    scale = bench_scale()
    data = run_once(benchmark, lambda: figure1_data(MACHINE, scale))
    rows = [[name] + [bars.get(c, float("nan")) for c in COLS]
            for name, bars in data.items()]
    meds = [median([bars[c] for bars in data.values()]) for c in COLS]
    rows.append(["MEDIAN"] + meds)
    print()
    print(format_table(["matrix"] + COLS, rows,
                       title=f"Figure 1 / Niagara, Gflop/s (integer "
                             f"proxy, scale={scale})"))

    med = {c: m for c, m in zip(COLS, meds)}
    if scale == 1.0:
        # §6.4: naive single thread ~32 Mflop/s, optimized ~37 (+15%).
        assert 0.015 < med["1 Core - Naive"] < 0.060
        opt = med["1 Core[PF,RB,CB]"]
        gain = opt / med["1 Core - Naive"]
        assert 1.05 < gain < 1.8
        # Thread scaling: 7.6x / 13.8x / 21.2x over optimized serial.
        s8 = med["8 Cores x 1 Thread[*]"] / opt
        s16 = med["8 Cores x 2 Threads[*]"] / opt
        s32 = med["8 Cores x 4 Threads[*]"] / opt
        assert 5.0 < s8 < 11.0, s8
        assert 9.0 < s16 < 19.0, s16
        assert 14.0 < s32 < 30.0, s32
        assert s8 < s16 < s32
        # Full system median ~0.8 Gflop/s, "significantly less than the
        # other platforms".
        assert 0.4 < med["8 Cores x 4 Threads[*]"] < 1.3
