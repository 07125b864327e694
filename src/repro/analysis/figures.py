"""ASCII rendering of the paper's figures from sweep data.

Consumes the ``{matrix: {bar_label: gflops}}`` dictionaries the
paper generator produces and renders Figure 1 panels as monospace
charts — the terminal counterpart of the paper's plots.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .report import format_table, median


def render_figure1_panel(
    machine_name: str,
    data: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    *,
    width: int = 40,
) -> str:
    """One Figure 1 panel: per-matrix grouped bars plus the median row.

    Parameters
    ----------
    machine_name : str
    data : {matrix: {label: gflops}}
    columns : bar labels in display order (missing bars are skipped).
    """
    lines = [f"Figure 1 — {machine_name} (effective Gflop/s)"]
    vmax = max(
        (v for bars in data.values() for k, v in bars.items()
         if k in columns),
        default=1.0,
    )
    for matrix, bars in data.items():
        lines.append(f"\n{matrix}")
        for col in columns:
            if col not in bars:
                continue
            v = bars[col]
            bar = "#" * max(0, int(round(width * v / vmax)))
            lines.append(f"  {col:<28s} |{bar} {v:.3f}")
    med_rows = []
    for col in columns:
        vals = [bars[col] for bars in data.values() if col in bars]
        if vals:
            med_rows.append([col, median(vals)])
    lines.append("")
    lines.append(format_table(["bar", "median GF/s"], med_rows))
    return "\n".join(lines)
