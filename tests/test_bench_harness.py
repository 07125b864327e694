"""Benchmark-harness helper tests (kept in the main suite so the
figure plumbing is exercised without running full-scale sweeps)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

import _harness  # noqa: E402


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
        assert _harness.best_serial("AMD X2", bars) == 1.0
        assert _harness.best_socket("AMD X2", bars) == 1.5
        assert _harness.best_system("AMD X2", bars) == 2.5

    def test_niagara_socket_is_one_thread(self):
        bars = {"8 Cores x 1 Thread[*]": 0.28,
                "8 Cores x 4 Threads[*]": 0.79}
        assert _harness.best_socket("Niagara", bars) == 0.28
        assert _harness.best_system("Niagara", bars) == 0.79


class TestSweep:
    def test_figure1_small_scale_single_matrix(self):
        data = _harness.figure1_data(
            "Cell (PS3)", 0.02, matrices=["QCD"]
        )
        bars = data["QCD"]
        assert "1 SPE(PS3)" in bars and "6 SPEs(PS3)" in bars
        assert bars["6 SPEs(PS3)"] > bars["1 SPE(PS3)"]

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_harness, "_CACHE_DIR", str(tmp_path))
        payload = {"M": {"bar": 1.25}}
        _harness._save_disk_cache("AMD X2", 0.5, payload)
        assert _harness._load_disk_cache("AMD X2", 0.5) == payload
        assert _harness._load_disk_cache("AMD X2", 0.25) is None

    def test_disk_cache_tolerates_corruption(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(_harness, "_CACHE_DIR", str(tmp_path))
        path = Path(_harness._cache_path("AMD X2", 0.5))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert _harness._load_disk_cache("AMD X2", 0.5) is None

    def test_disk_cache_from_other_sources_is_stale(self, tmp_path,
                                                    monkeypatch):
        """Regression: the stamp was ``repro.__version__``, which no
        simulator or baseline change bumped, so a local cache kept
        serving bars from older code."""
        from repro.observe.metrics import get_registry

        reg = get_registry()
        reg.reset()
        monkeypatch.setattr(_harness, "_CACHE_DIR", str(tmp_path))
        current = _harness.model_stamp
        monkeypatch.setattr(_harness, "model_stamp", lambda: "older")
        _harness._save_disk_cache("AMD X2", 0.5, {"M": {"bar": 1.0}})
        monkeypatch.setattr(_harness, "model_stamp", current)
        assert _harness._load_disk_cache("AMD X2", 0.5) is None
        assert reg.counter("bench.cache_stale") == 1
        reg.reset()

    def test_disk_cache_rejects_version_mismatch(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(_harness, "_CACHE_DIR", str(tmp_path))
        path = Path(_harness._cache_path("AMD X2", 0.5))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "model_version": "0.0.0-stale", "data": {"M": {"bar": 1.0}}
        }))
        assert _harness._load_disk_cache("AMD X2", 0.5) is None

    def test_disk_cache_rejects_legacy_unstamped_payload(
            self, tmp_path, monkeypatch):
        # Pre-envelope caches were the bare {matrix: {bar: gflops}}
        # dict; they carry numbers from an unknown simulator version
        # and must be treated as stale, not served.
        monkeypatch.setattr(_harness, "_CACHE_DIR", str(tmp_path))
        path = Path(_harness._cache_path("AMD X2", 0.5))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"M": {"bar": 1.25}}))
        assert _harness._load_disk_cache("AMD X2", 0.5) is None

    def test_disk_cache_envelope_is_stamped(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(_harness, "_CACHE_DIR", str(tmp_path))
        _harness._save_disk_cache("AMD X2", 0.5, {"M": {"bar": 1.0}})
        raw = json.loads(
            Path(_harness._cache_path("AMD X2", 0.5)).read_text()
        )
        assert raw["model_version"] == _harness.model_stamp()
        assert raw["machine"] == "AMD X2" and raw["scale"] == 0.5

    def test_failed_save_keeps_the_good_envelope(self, tmp_path,
                                                 monkeypatch):
        """Regression: the save truncated the file before serializing,
        so a dump that raised destroyed the sweep already on disk."""
        monkeypatch.setattr(_harness, "_CACHE_DIR", str(tmp_path))
        good = {"M": {"bar": 1.25}}
        _harness._save_disk_cache("AMD X2", 0.5, good)
        with pytest.raises(TypeError):
            _harness._save_disk_cache("AMD X2", 0.5, {"M": {"bar": object()}})
        assert _harness._load_disk_cache("AMD X2", 0.5) == good
        assert [p.name for p in tmp_path.iterdir()] == [
            Path(_harness._cache_path("AMD X2", 0.5)).name]

    def test_disk_cache_counters(self, tmp_path, monkeypatch):
        from repro.observe.metrics import get_registry

        reg = get_registry()
        reg.reset()
        monkeypatch.setattr(_harness, "_CACHE_DIR", str(tmp_path))
        _harness._load_disk_cache("AMD X2", 0.5)          # miss
        _harness._save_disk_cache("AMD X2", 0.5, {"M": {}})
        _harness._load_disk_cache("AMD X2", 0.5)          # hit
        assert reg.counter("bench.cache_miss") == 1
        assert reg.counter("bench.cache_hit") == 1
        reg.reset()

    def test_plan_point_socket_vs_system(self):
        from repro.core import Role, role_point
        from repro.machines import PlacementPolicy, get_machine

        machine = get_machine("AMD X2")
        socket = role_point(machine, Role.SOCKET)
        system = role_point(machine, Role.SYSTEM)
        assert (socket.n_threads, system.n_threads) == (2, 4)
        assert socket.config(machine).policy is PlacementPolicy.SINGLE_NODE
        assert system.config(machine).policy is PlacementPolicy.NUMA_AWARE
