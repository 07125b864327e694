"""Power efficiency (paper Figure 2b).

"Mflop-to-Watt ratio based on the matrix performance and the
full-system power consumption (Table 1)."
"""

from __future__ import annotations

from ..errors import ReproError
from ..machines.model import Machine


def power_efficiency(machine: Machine, gflops: float) -> float:
    """Full-system Mflop/s per Watt."""
    if machine.watts_system <= 0:
        raise ReproError(f"{machine.name} has no system power figure")
    return gflops * 1e3 / machine.watts_system
