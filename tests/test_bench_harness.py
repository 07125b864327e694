"""Paper-generator helper tests (kept in the main suite so the figure
plumbing of ``benchmarks/paper.py`` is exercised without running
full-scale sweeps)."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

import paper  # noqa: E402

from repro.core import Role  # noqa: E402


class TestLabels:
    def test_parallel_points_cover_all_machines(self):
        from repro.core import ladder
        from repro.machines import get_machine, machine_names

        for name in machine_names():
            assert any(p.n_threads > 1 for p in ladder(get_machine(name)))

    def test_full_system_flag_once_per_machine(self):
        from repro.core import ladder
        from repro.machines import get_machine, machine_names

        for name in machine_names():
            points = ladder(get_machine(name))
            assert sum(1 for p in points if not p.packed) == 1, name

    def test_socket_and_system_selectors(self):
        bars = {
            "1 Core[PF,RB,CB]": 1.0, "2 Core[*]": 1.5,
            "Dual Socket x 2 Core[*]": 2.5,
        }
        assert paper.best("AMD X2", bars, Role.SERIAL) == 1.0
        assert paper.best("AMD X2", bars, Role.SOCKET) == 1.5
        assert paper.best("AMD X2", bars, Role.SYSTEM) == 2.5
        assert paper.label("AMD X2", Role.SOCKET) == "2 Core[*]"

    def test_niagara_socket_is_one_thread(self):
        bars = {"8 Cores x 1 Thread[*]": 0.28,
                "8 Cores x 4 Threads[*]": 0.79}
        assert paper.best("Niagara", bars, Role.SOCKET) == 0.28
        assert paper.best("Niagara", bars, Role.SYSTEM) == 0.79


class TestSweep:
    def test_figure1_small_scale_single_matrix(self):
        data = paper.figure1("Cell (PS3)", 0.02, matrices=["QCD"])
        bars = data["QCD"]
        assert "1 SPE(PS3)" in bars and "6 SPEs(PS3)" in bars
        assert bars["6 SPEs(PS3)"] > bars["1 SPE(PS3)"]

    def test_plan_point_socket_vs_system(self):
        from repro.core import role_point
        from repro.machines import PlacementPolicy, get_machine

        machine = get_machine("AMD X2")
        socket = role_point(machine, Role.SOCKET)
        system = role_point(machine, Role.SYSTEM)
        assert (socket.n_threads, system.n_threads) == (2, 4)
        assert socket.config(machine).policy is PlacementPolicy.SINGLE_NODE
        assert system.config(machine).policy is PlacementPolicy.NUMA_AWARE
