"""Analysis layer: power efficiency and reporting."""

from __future__ import annotations

import pytest

from repro.analysis import format_table, median, power_efficiency
from repro.analysis.report import format_bar_chart
from repro.errors import ReproError
from repro.machines import get_machine


class TestPower:
    def test_cell_advantage_ratios(self):
        """Fig 2b quotes ~2.1x over AMD X2, ~3.5x over Clovertown,
        ~5.2x over Niagara."""
        cell = power_efficiency(get_machine("Cell Blade"), 3.6)
        amd = power_efficiency(get_machine("AMD X2"), 1.6)
        clv = power_efficiency(get_machine("Clovertown"), 1.2)
        nia = power_efficiency(get_machine("Niagara"), 0.8)
        assert cell / amd == pytest.approx(2.0, rel=0.25)
        assert cell / clv == pytest.approx(3.2, rel=0.25)
        assert cell / nia == pytest.approx(3.8, rel=0.35)

    def test_missing_power_rejected(self):
        from dataclasses import replace

        m = replace(get_machine("AMD X2"), watts_system=0.0)
        with pytest.raises(ReproError):
            power_efficiency(m, 1.0)


class TestReport:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        with pytest.raises(ValueError):
            median([])

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.500" in out

    def test_bar_chart(self):
        out = format_bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        assert out.count("#") == 15  # 5 + 10
        with pytest.raises(ValueError):
            format_bar_chart(["x"], [1.0, 2.0])
