"""Live roofline observability: ceilings, attribution, watchdog, sampler.

Covers the ``repro.observe.perf`` package end to end: measured-ceilings
cache discipline, flop/byte attribution math, the regression watchdog's
EWMA/force-sampling semantics, the collapsed-stack sampler, and the
acceptance path — one ``ServeClient(perf_watch=...)`` request
producing ``perf.*`` series labelled with the served format and
backend, plus a sleep-injected kernel slowdown tripping
``perf.regressions``.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from repro.formats.convert import coo_to_csr
from repro.matrices import generate
from repro.observe import get_registry
from repro.observe.perf import (
    KernelCounts,
    MachineCeilings,
    PerfAttributor,
    PerfWatchdog,
    StackSampler,
    host_fingerprint,
    load_ceilings,
    measure_ceilings,
    render_collapsed,
    save_ceilings,
)
from repro.observe.perf import attribution as _attribution
from repro.observe.perf import ceilings as _ceilings
from repro.observe.slo import SloTracker

TEST_CEILINGS = MachineCeilings(
    copy_gbs_single=10.0, triad_gbs_single=12.0,
    copy_gbs_all=20.0, triad_gbs_all=24.0,
    peak_gflops_single=5.0, peak_gflops_all=20.0,
    n_cores=2, spmv_probe_gflops={"numpy": 1.0},
)


@pytest.fixture
def tiny_ceilings(monkeypatch):
    """Fast real measurement: tiny streams, no SpMV probe."""
    monkeypatch.setenv("REPRO_CEILINGS_MB", "1")
    return measure_ceilings(repeats=1, probe_spmv=False)


class TestCeilings:
    def test_measure_positive(self, tiny_ceilings):
        c = tiny_ceilings
        assert c.copy_gbs_single > 0
        assert c.triad_gbs_single > 0
        assert c.peak_gflops_single > 0
        assert c.sustained_gbs >= c.copy_gbs_single
        assert c.peak_gflops >= c.peak_gflops_single
        assert c.n_cores >= 1

    def test_attainable_roofline_shape(self):
        c = TEST_CEILINGS
        # memory-bound region: linear in intensity
        assert c.attainable_gflops(0.1) == pytest.approx(
            0.1 * c.sustained_gbs)
        # compute-bound region: flat at peak
        assert c.attainable_gflops(100.0) == c.peak_gflops
        # degenerate intensity: no bound
        assert c.attainable_gflops(0.0) == 0.0
        assert c.attainable_gflops(-1.0) == 0.0

    def test_json_roundtrip(self):
        c = TEST_CEILINGS
        assert MachineCeilings.from_json(
            json.loads(json.dumps(c.to_json()))) == c

    def test_cache_roundtrip(self, tmp_path):
        path = tmp_path / "ceilings.json"
        save_ceilings(TEST_CEILINGS, path)
        assert load_ceilings(path) == TEST_CEILINGS

    def test_cache_missing_returns_none(self, tmp_path):
        assert load_ceilings(tmp_path / "nope.json") is None

    def test_cache_corrupt_returns_none(self, tmp_path):
        path = tmp_path / "ceilings.json"
        path.write_text("{not json")
        assert load_ceilings(path) is None

    def test_cache_stale_version_returns_none(self, tmp_path):
        path = tmp_path / "ceilings.json"
        save_ceilings(TEST_CEILINGS, path)
        env = json.loads(path.read_text())
        env["ceilings_version"] = -1
        path.write_text(json.dumps(env))
        assert load_ceilings(path) is None

    def test_cache_host_mismatch_returns_none(self, tmp_path):
        path = tmp_path / "ceilings.json"
        save_ceilings(TEST_CEILINGS, path)
        env = json.loads(path.read_text())
        env["host"]["cpu"] = "some other cpu entirely"
        path.write_text(json.dumps(env))
        assert load_ceilings(path) is None

    def test_fingerprint_fields(self):
        fp = host_fingerprint()
        assert set(fp) == {"cpu", "n_cores", "machine", "version",
                           "ceilings_version"}
        from repro import __version__

        assert fp["version"] == __version__

    def test_get_ceilings_measures_once_then_caches(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CEILINGS_MB", "1")
        path = tmp_path / "ceilings.json"
        calls = {"n": 0}
        real = _ceilings.measure_ceilings

        def counting(**kw):
            calls["n"] += 1
            return real(repeats=1, probe_spmv=False)

        monkeypatch.setattr(_ceilings, "measure_ceilings", counting)
        # fresh module memo for this test
        monkeypatch.setattr(_ceilings, "_CACHED", None)
        first = _ceilings.get_ceilings(path)
        second = _ceilings.get_ceilings(path)
        assert calls["n"] == 1
        assert first == second
        assert path.exists()
        # a fresh process (cleared memo) loads from disk, no re-measure
        monkeypatch.setattr(_ceilings, "_CACHED", None)
        third = _ceilings.get_ceilings(path)
        assert calls["n"] == 1
        assert third == first


class TestAttribution:
    def setup_method(self):
        self.csr = coo_to_csr(generate("FEM-Har", scale=0.05, seed=0))

    def test_kernel_counts(self):
        kc = KernelCounts.for_matrix(self.csr)
        m, n = self.csr.shape
        assert kc.flops == 2.0 * self.csr.nnz_logical
        assert kc.matrix_bytes == float(self.csr.footprint_bytes())
        assert kc.vector_bytes == 8.0 * n + 16.0 * m
        assert kc.fmt == "csr"
        # k-wide SpMM: matrix streamed once, vectors per column
        assert kc.total_bytes(4) == pytest.approx(
            kc.matrix_bytes + 4 * kc.vector_bytes)
        assert kc.total_flops(4) == pytest.approx(4 * kc.flops)
        # intensity consistent with the footprint module
        from repro.formats.footprint import flop_byte_ratio

        assert kc.intensity(1) == pytest.approx(
            flop_byte_ratio(self.csr))

    def test_sample_math(self):
        att = PerfAttributor(ceilings=TEST_CEILINGS)
        kc = KernelCounts.for_matrix(self.csr)
        s = att.sample(kc, 1e-3, k=2, backend="numpy")
        assert s.gflops == pytest.approx(
            kc.total_flops(2) / 1e-3 / 1e9)
        assert s.gbs == pytest.approx(
            kc.total_bytes(2) / 1e-3 / 1e9)
        bound = TEST_CEILINGS.attainable_gflops(s.intensity)
        assert s.fraction == pytest.approx(s.gflops / bound)
        assert s.has_fraction

    def test_sample_without_ceilings_has_nan_fraction(self):
        att = PerfAttributor(ceilings=None)
        kc = KernelCounts.for_matrix(self.csr)
        s = att.sample(kc, 1e-3)
        assert math.isnan(s.fraction)
        assert not s.has_fraction

    def test_record_emits_histograms(self):
        att = PerfAttributor(ceilings=TEST_CEILINGS)
        kc = KernelCounts.for_matrix(self.csr)
        att.record(kc, 1e-3, backend="numpy")
        att.record(kc, 1e-3, backend="numpy", shard=3)
        reg = get_registry()
        h = reg.histogram("perf.gflops", backend="numpy", format="csr")
        assert h.count >= 1
        hs = reg.histogram("perf.gflops", backend="numpy",
                           format="csr", shard=3)
        assert hs.count >= 1
        hf = reg.histogram("perf.roofline_fraction", backend="numpy",
                           format="csr")
        assert hf.count >= 1 and hf.max < math.inf

    def test_record_skips_zero_seconds(self):
        att = PerfAttributor(ceilings=TEST_CEILINGS)
        kc = KernelCounts.for_matrix(self.csr)
        assert att.record(kc, 0.0) is None
        assert att.record(kc, -1.0) is None

    def test_spmv_backend_is_attributed(self):
        from repro.kernels.registry import spmv_backend

        before = get_registry().histogram(
            "perf.gflops", backend="numpy", format="csr").count
        x = np.random.default_rng(0).standard_normal(self.csr.ncols)
        spmv_backend(self.csr, x)
        after = get_registry().histogram(
            "perf.gflops", backend="numpy", format="csr").count
        assert after == before + 1

    def test_configure_globals(self):
        prev = _attribution._ATTRIBUTOR.ceilings
        try:
            _attribution.configure(TEST_CEILINGS)
            assert _attribution._ATTRIBUTOR.ceilings is TEST_CEILINGS
        finally:
            _attribution.configure(prev)

    def test_format_labels(self):
        from repro.formats.convert import to_bcsr

        bcsr = to_bcsr(generate("Dense2", scale=0.02, seed=0), 2, 2)
        assert KernelCounts.for_matrix(bcsr).fmt == "bcsr"


class TestWatchdog:
    def _warm(self, wd, fp="fp-a", key="csr/numpy", rate=1.0, n=None):
        for _ in range(n if n is not None else wd.min_samples + 2):
            assert wd.observe(fp, key, rate, 0.5) is None

    def test_no_fire_during_warmup(self):
        wd = PerfWatchdog(min_samples=5, sustain=2)
        for _ in range(4):
            assert wd.observe("fp", "csr/numpy", 0.01) is None

    def test_sustained_drop_fires_and_arms_force_sampling(self):
        slo = SloTracker()
        wd = PerfWatchdog(slo=slo, min_samples=3, sustain=2)
        before = get_registry().counter("perf.regressions",
                                        key="csr/numpy")
        self._warm(wd, n=5)
        assert wd.observe("fp-a", "csr/numpy", 0.1) is None  # 1st drop
        event = wd.observe("fp-a", "csr/numpy", 0.1)          # 2nd: fire
        assert event is not None
        assert event.fingerprint == "fp-a"
        assert event.baseline_gflops > event.observed_gflops
        assert 0 < event.drop_fraction < 1
        after = get_registry().counter("perf.regressions",
                                       key="csr/numpy")
        assert after == before + 1
        # force-sampling armed for the offending matrix
        assert slo.should_force_sample("fp-a")
        assert not slo.should_force_sample("fp-other")

    def test_single_slow_sample_is_noise(self):
        wd = PerfWatchdog(min_samples=3, sustain=3)
        self._warm(wd, n=6)
        assert wd.observe("fp-a", "csr/numpy", 0.1) is None
        # recovery resets the streak
        for _ in range(5):
            assert wd.observe("fp-a", "csr/numpy", 1.0) is None
        assert wd.observe("fp-a", "csr/numpy", 0.1) is None
        assert wd.observe("fp-a", "csr/numpy", 0.1) is None

    def test_rebaseline_no_refire_at_degraded_rate(self):
        wd = PerfWatchdog(min_samples=3, sustain=2)
        self._warm(wd, n=5)
        wd.observe("fp-a", "csr/numpy", 0.1)
        assert wd.observe("fp-a", "csr/numpy", 0.1) is not None
        # steady at the degraded rate: no second event
        for _ in range(10):
            assert wd.observe("fp-a", "csr/numpy", 0.1) is None
        # a further drop fires again
        wd.observe("fp-a", "csr/numpy", 0.01)
        assert wd.observe("fp-a", "csr/numpy", 0.01) is not None
        assert len(wd.events) == 2

    def test_ignores_junk_rates(self):
        wd = PerfWatchdog(min_samples=1, sustain=1)
        assert wd.observe("fp", "k", 0.0) is None
        assert wd.observe("fp", "k", -1.0) is None
        assert wd.observe("fp", "k", math.nan) is None
        assert wd.observe("fp", "k", math.inf) is None

    def test_report_shape(self):
        wd = PerfWatchdog(min_samples=3, sustain=2)
        self._warm(wd, fp="fp-hi", rate=2.0, n=5)
        self._warm(wd, fp="fp-lo", rate=1.0, n=5)
        rpt = wd.report(top=1)
        assert set(rpt) >= {"regressions", "events",
                            "bottom_fractions", "top_fractions",
                            "baselines"}
        assert rpt["regressions"] == 0
        assert len(rpt["top_fractions"]) == 1
        fps = {r["fingerprint"] for r in rpt["bottom_fractions"]}
        assert fps <= {"fp-hi", "fp-lo"}
        key = "fp-hi:csr/numpy"
        assert rpt["baselines"][key]["samples"] >= 3
        assert rpt["baselines"][key]["mean_gflops"] == \
            pytest.approx(2.0)


class TestSampler:
    def test_captures_busy_thread(self, tmp_path):
        import threading

        stop = threading.Event()

        def busy_marker_fn():
            while not stop.is_set():
                sum(range(500))

        t = threading.Thread(target=busy_marker_fn, daemon=True)
        t.start()
        sampler = StackSampler(str(tmp_path / "p.stacks"),
                               interval_s=0.001)
        sampler.start()
        time.sleep(0.3)
        stop.set()
        sampler.stop()
        t.join(timeout=2)
        counts = sampler.counts()
        assert sampler.samples > 10
        assert any("busy_marker_fn" in stack for stack in counts)
        # the flushed file is the final aggregate, rendered
        text = (tmp_path / "p.stacks").read_text()
        assert text == render_collapsed(counts)

    def test_render_parse_roundtrip(self):
        """The file is the flamegraph input as it stands: one sorted
        ``stack count`` line per stack, which splits back at its last
        space."""
        counts = {"a;d": 2, "a;b;c": 5}
        text = render_collapsed(counts)
        assert text == "a;b;c 5\na;d 2\n"
        back = dict(line.rsplit(" ", 1) for line in text.splitlines())
        assert {k: int(v) for k, v in back.items()} == counts
        assert render_collapsed({}) == ""


class TestServeIntegration:
    """Acceptance criteria: per-format/backend perf series,
    /v1/debug/perf, and a synthetic slowdown tripping the watchdog."""

    def test_served_request_yields_perf_series(self):
        from repro.observe.perf.attribution import format_label
        from repro.serve.client import ServeClient

        client = ServeClient(perf_watch=TEST_CEILINGS)
        try:
            coo = generate("FEM-Har", scale=0.1, seed=0)
            entry = client.register(coo)
            x = np.random.default_rng(1).standard_normal(coo.shape[1])
            client.spmv(entry.fingerprint, x)

            # the kernel call records its series before spmv returns
            labels = (f"backend={entry.plan.backend},"
                      f"format={format_label(entry.matrix)}")
            snap = get_registry().snapshot()
            for name in ("perf.gflops", "perf.roofline_fraction"):
                assert f"{name}{{{labels}}}" in snap["histograms"], (
                    f"{name} has no {labels} series")
            # fractions are finite and sane
            for k, h in snap["histograms"].items():
                if k.startswith("perf.roofline_fraction"):
                    assert 0 < h.max < math.inf
            # /metrics renders them
            from repro.observe import render_prometheus

            text = render_prometheus()
            assert "repro_perf_gflops_bucket{" in text
            assert "repro_perf_roofline_fraction_bucket{" in text
            # debug report carries the ceilings envelope + fractions
            rpt = client.perf_report()
            assert rpt["perf_watch"] is True
            assert rpt["ceilings"] == TEST_CEILINGS.to_json()
            assert rpt["host"]["n_cores"] >= 1
            assert "top_fractions" in rpt
        finally:
            client.close()

    def test_synthetic_slowdown_trips_watchdog(self, kernel_seam):
        from repro.serve.client import ServeClient

        client = ServeClient(perf_watch=TEST_CEILINGS)
        try:
            wd = client.watchdog
            assert wd is not None
            wd.min_samples, wd.sustain = 3, 2
            coo = generate("FEM-Har", scale=0.05, seed=0)
            entry = client.register(coo)
            fp = entry.fingerprint
            x = np.random.default_rng(2).standard_normal(coo.shape[1])
            for _ in range(8):
                client.spmv(fp, x)
            assert not wd.events, "no regression before the slowdown"
            # sleep-injected kernel wrapper: ~50x slowdown
            kernel_seam.watch(entry.matrix, delay_s=0.05)
            for _ in range(4):
                client.spmv(fp, x)
            assert wd.events, "sustained slowdown never fired"
            event = wd.events[-1]
            assert event.fingerprint == fp
            # the counter carries the format/backend key of the plan
            # that regressed (whatever the planner chose)
            assert get_registry().counter("perf.regressions",
                                          key=event.key) >= 1
            # force-sampling armed for the regressed matrix: either
            # unconsumed debt remains, or the requests that followed
            # the firing already consumed it (slo.forced_samples)
            armed = client.slo._force_debt.get(fp, 0) > 0
            consumed = get_registry().counter("slo.forced_samples") >= 1
            assert armed or consumed
            # and the debug report shows the event
            rpt = client.perf_report()
            assert rpt["regressions"] >= 1
            assert rpt["events"][-1]["fingerprint"] == fp
        finally:
            client.close()

    def test_profile_dir_collects_parent_stacks(self, tmp_path):
        from repro.observe.perf import sampler as sampler_mod
        from repro.serve.client import ServeClient

        profile_dir = tmp_path / "profiles"
        client = ServeClient(profile_dir=str(profile_dir))
        try:
            coo = generate("FEM-Har", scale=0.05, seed=0)
            fp = client.register(coo).fingerprint
            x = np.random.default_rng(3).standard_normal(coo.shape[1])
            for _ in range(20):
                client.spmv(fp, x)
            time.sleep(0.2)
        finally:
            client.close()
        # stop_sampler flushed the parent profile on close
        assert sampler_mod._ACTIVE is None
        # one process-wide sampler: one file, the flamegraph input
        assert os.listdir(profile_dir) == ["serve-parent.stacks"]
        text = (profile_dir / "serve-parent.stacks").read_text()
        assert text, "parent sampler captured nothing"
        assert all(line.rsplit(" ", 1)[1].isdigit()
                   for line in text.splitlines())
