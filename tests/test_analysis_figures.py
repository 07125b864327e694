"""Figure-rendering helpers."""

from __future__ import annotations

from repro.analysis.figures import render_figure1_panel

DATA = {
    "MatA": {"naive": 0.5, "opt": 1.0, "parallel": 2.0},
    "MatB": {"naive": 0.25, "opt": 0.5, "parallel": 1.5},
}


class TestRendering:
    def test_panel_contains_everything(self):
        out = render_figure1_panel("TestBox", DATA,
                                   ["naive", "opt", "parallel"])
        assert "TestBox" in out
        assert "MatA" in out and "MatB" in out
        assert "median" in out

    def test_panel_skips_missing_columns(self):
        out = render_figure1_panel("X", DATA, ["naive", "absent"])
        assert "absent" not in out   # neither a bar nor a median row
        assert "naive" in out
