"""Performance analysis: power efficiency, tables, figure rendering."""

from .power import power_efficiency
from .report import format_table, median

__all__ = [
    "format_table",
    "median",
    "power_efficiency",
]
