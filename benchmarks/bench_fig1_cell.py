"""Figure 1 (bottom) — SpMV on the STI Cell (PS3 and QS20 blade)."""

from __future__ import annotations

from _harness import bench_scale, figure1_data, ladder_labels, run_once

from repro.analysis import format_table, median


def test_fig1_cell(benchmark):
    scale = bench_scale()

    def compute():
        ps3 = figure1_data("Cell (PS3)", scale)
        blade = figure1_data("Cell Blade", scale)
        return ps3, blade

    ps3, blade = run_once(benchmark, compute)
    cols = ladder_labels("Cell (PS3)") + ladder_labels("Cell Blade")
    rows = [[name] + [{**ps3[name], **blade[name]}[c] for c in cols]
            for name in ps3]
    meds = [median([r[i] for r in rows]) for i in range(1, len(cols) + 1)]
    rows.append(["MEDIAN"] + meds)
    print()
    print(format_table(["matrix"] + cols, rows,
                       title=f"Figure 1 / Cell, Gflop/s (scale={scale})"))

    med = dict(zip(cols, meds))
    if scale == 1.0:
        # §6.5: speedups vs a single PS3 SPE: 5.7x (6 SPEs), 7.4x
        # (8 SPEs), 9.9x (16 SPEs).
        base = med["1 SPE(PS3)"]
        s6 = med["6 SPEs(PS3)"] / base
        s8 = med["8 SPEs"] / base
        s16 = med["Dual Socket x 8 SPEs"] / base
        assert 4.0 < s6 <= 6.3, s6
        assert 5.0 < s8 <= 8.5, s8
        assert 6.5 < s16 <= 13.0, s16
        assert s6 < s8 < s16
        # Matrices with few nonzeros per row per (dense) cache block are
        # "heavily penalized" — Economics and Circuit land far below
        # the block-structured FEM matrices.
        by_name = {r[0]: r for r in rows[:-1]}
        for weak in ["Econom", "Circuit"]:
            assert by_name[weak][4] < 0.5 * by_name["FEM-Sphr"][4]
