"""End-to-end learned plan selection.

A model trained on a small family of structurally similar matrices
must route a *new* member of the
family down the predict path (no sweep spans, plan within 15% of the
fully-tuned plan's measured SpMV time) while an out-of-distribution
matrix falls back to the sweep, and a crashing predictor never breaks
registration.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.autoplan import (
    CONFIDENCE_THRESHOLD,
    AutoPlanner,
    TrainingSample,
    train_model,
)
from repro.autoplan.features import extract_features
from repro.autoplan.predictor import plan_with_autoplan
from repro.autoplan.sweep import run_sweep
from repro.core import SpmvEngine
from repro.formats import COOMatrix
from repro.kernels.registry import spmv_backend
from repro.machines import get_machine
from repro.matrices import fem_blocked_matrix, scattered_matrix
from repro.observe.hub import recording
from repro.observe.metrics import get_registry
from repro.serve import MatrixRegistry, PlanCache


def family_member(seed: int) -> COOMatrix:
    """One member of a blocky FEM-like family (BCSR territory)."""
    return fem_blocked_matrix(240, 4, 24, bandwidth_frac=0.1, seed=seed)


def scatter_member(seed: int) -> COOMatrix:
    """One member of a scattered family (CSR territory)."""
    return scattered_matrix(300, 8, seed=seed)


def envelope_source(cache: PlanCache, fingerprint: str) -> str:
    """The provenance source of one stored envelope."""
    path = cache.path_for("AMD X2", fingerprint)
    return json.loads(path.read_text())["autoplan"]["source"]


@pytest.fixture(scope="module")
def trained_planner(tmp_path_factory):
    """Samples over both families with pinned labels, model saved.

    Features are extracted from real matrices, but the labels are
    pinned (FEM family -> "csr", scatter family -> "heuristic") so the
    trained model — and every test below — is deterministic. Measured
    sweep labels are timing-noisy on matrices this small; the
    statistical accuracy of sweep-labeled training is exercised by
    ``examples/autoplan_smoke.py`` instead.
    """
    planner = AutoPlanner(tmp_path_factory.mktemp("autoplan"))
    samples = [
        TrainingSample(features=tuple(extract_features(coo).to_list()),
                       label=label, fmt="csr-1x1-16bit", weight=1.3)
        for seed in range(6)
        for coo, label in [(family_member(seed), "csr"),
                           (scatter_member(seed), "heuristic")]
    ]
    train_model(samples, k=3).save(planner.model_path)
    planner.reload()
    return planner


def test_autoplan_does_not_import_serve():
    """Layering: serve builds on autoplan (the planner, the training
    sample), never the reverse — the re-tune that acts on a live entry
    through ``MatrixRegistry.swap`` lives in ``repro.serve.registry``."""
    code = ("import sys, repro.autoplan; "
            "print([m for m in sys.modules "
            "if m.startswith('repro.serve')])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestPredictPath:
    def test_similar_matrix_skips_sweep(self, trained_planner):
        engine = SpmvEngine(get_machine("AMD X2"))
        coo = family_member(seed=100)   # unseen family member
        with recording() as events:
            outcome = plan_with_autoplan(
                engine, coo, n_threads=2, mode="auto",
                planner=trained_planner,
            )
        assert outcome.path == "predict"
        assert outcome.confidence >= CONFIDENCE_THRESHOLD
        names = {e.name for e in events}
        assert "autoplan.sweep" not in names
        assert "autoplan.sweep.candidate" not in names

    def test_predicted_plan_within_15pct_of_tuned(self, trained_planner):
        engine = SpmvEngine(get_machine("AMD X2"))
        coo = family_member(seed=101)
        outcome = plan_with_autoplan(
            engine, coo, n_threads=2, mode="auto",
            planner=trained_planner,
        )
        assert outcome.path == "predict"
        tuned = run_sweep(engine, coo, n_threads=2, iters=3)
        # Each round times the predicted and the tuned plan back to
        # back (first one, then the other), and the verdict compares
        # medians: a load spike on the host then hits both sides of a
        # round, not one whole series.
        matrices = [outcome.plan.materialize(coo),
                    tuned.plan.materialize(coo)]
        x = np.random.default_rng(0).standard_normal(coo.ncols)
        for matrix in matrices:
            spmv_backend(matrix, x)     # warm
        rounds = np.empty((31, 2))
        for i in range(len(rounds)):
            for j in ((0, 1) if i % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                spmv_backend(matrices[j], x)
                rounds[i, j] = time.perf_counter() - t0
        t_pred, t_tuned = np.median(rounds, axis=0)
        assert t_pred <= t_tuned * 1.15

    def test_registry_cold_registration_takes_predict_path(
        self, trained_planner, tmp_path,
    ):
        registry = MatrixRegistry(
            get_machine("AMD X2"), n_threads=2, plan_mode="auto",
            autoplanner=trained_planner,
            plan_cache=PlanCache(tmp_path / "plans"),
        )
        reg = get_registry()
        hits_before = reg.counter("autoplan.predictions", outcome="hit")
        entry = registry.register(family_member(seed=102))
        assert entry.plan_path == "predict"
        assert entry.predicted is True
        assert entry.autoplan_label
        assert reg.counter("autoplan.predictions",
                           outcome="hit") == hits_before + 1
        # registration latency is accounted per path
        assert reg.histogram("autoplan.registration_seconds",
                             path="predict").count >= 1


class TestFallback:
    def test_dissimilar_matrix_falls_back(self, trained_planner):
        engine = SpmvEngine(get_machine("AMD X2"))
        # far outside both training families: one dense row, huge
        # aspect ratio
        n = 4000
        ood = COOMatrix((2, n), np.zeros(n, dtype=np.int64),
                        np.arange(n), np.ones(n))
        reg = get_registry()
        before = reg.counter("autoplan.predictions", outcome="fallback")
        outcome = plan_with_autoplan(
            engine, ood, n_threads=1, mode="auto",
            planner=trained_planner,
        )
        assert outcome.path == "tune"
        assert outcome.fallback_reason == "low_confidence"
        assert reg.counter("autoplan.predictions",
                           outcome="fallback") == before + 1

    def test_no_model_falls_back(self, tmp_path):
        engine = SpmvEngine(get_machine("AMD X2"))
        planner = AutoPlanner(tmp_path)   # empty dir: no artifact
        outcome = plan_with_autoplan(
            engine, family_member(0), n_threads=1, mode="auto",
            planner=planner,
        )
        assert outcome.path == "tune"
        assert outcome.fallback_reason == "no_model"

    def test_model_trained_after_startup_is_picked_up(self, tmp_path):
        """A long-running planner notices a newly trained artifact
        (offline `autoplan train`) without an explicit reload()."""
        planner = AutoPlanner(tmp_path)
        fv = extract_features(family_member(0))
        assert planner.predict(fv) is None      # caches "no model"
        samples = [TrainingSample(
            features=tuple(extract_features(family_member(s)).to_list()),
            label="csr", fmt="csr-1x1-16bit", weight=1.2,
        ) for s in range(1, 5)]
        train_model(samples, k=3).save(planner.model_path)
        pred = planner.predict(fv)              # no reload() call
        assert pred is not None and pred.label == "csr"

    def test_predictor_crash_degrades_to_sweep(self, trained_planner,
                                               monkeypatch, tmp_path):
        """Acceptance: prediction never crashes registration."""
        monkeypatch.setattr(
            type(trained_planner), "predict",
            lambda self, fv: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        registry = MatrixRegistry(
            get_machine("AMD X2"), n_threads=2, plan_mode="auto",
            autoplanner=trained_planner,
            plan_cache=PlanCache(tmp_path / "plans"),
        )
        reg = get_registry()
        errs_before = reg.counter("autoplan.predict_errors")
        entry = registry.register(family_member(seed=103))
        assert entry.plan_path == "tune"    # swept, not crashed
        assert reg.counter("autoplan.predict_errors") == errs_before + 1


class TestFeedbackLoop:
    def test_retune_confirms_or_overrides_and_feeds_corpus(
        self, trained_planner, tmp_path,
    ):
        cache = PlanCache(tmp_path / "plans")
        registry = MatrixRegistry(
            get_machine("AMD X2"), n_threads=2, plan_mode="auto",
            autoplanner=trained_planner, plan_cache=cache,
        )
        coo = family_member(seed=104)
        entry = registry.register(coo)
        assert entry.predicted is True
        assert cache.samples() == []     # a prediction is not a sample
        registry.retune(entry.fingerprint, coo)
        assert entry.predicted is False
        assert len(cache.samples()) == 1
        assert envelope_source(cache, entry.fingerprint) == "feedback"

    def test_repeat_registrations_retune_a_prediction_once(
        self, trained_planner, tmp_path,
    ):
        """Regression: every ``register()`` of a still-predicted entry
        queued its own re-tune, so three calls swept three times and
        wrote three (contradictory) feedback samples for one matrix."""
        from repro.observe.hub import uninstall_hub
        from repro.serve.client import ServeClient

        reg = get_registry()
        sweeps_before = reg.counter("autoplan.sweeps")
        plans = tmp_path / "plans"
        plans.mkdir()
        shutil.copy(trained_planner.model_path, plans)
        client = ServeClient(
            n_threads=2, plan_cache_dir=plans, plan_mode="auto",
        )
        try:
            coo = family_member(seed=105)
            entries = [client.register(coo) for _ in range(3)]
            assert entries[0].plan_path == "predict"
            assert all(e is entries[0] for e in entries)
            client.drain()
        finally:
            client.close()
            uninstall_hub()
        assert entries[0].predicted is False
        assert reg.counter("autoplan.sweeps") == sweeps_before + 1
        cache = PlanCache(plans)
        assert len(cache.samples()) == 1
        assert envelope_source(cache, entries[0].fingerprint) == "feedback"

    def test_concurrent_retunes_sweep_once(self, trained_planner):
        """Eight threads re-tune one predicted entry at once, with a
        short switch interval: the claim under the registry lock lets
        exactly one of them sweep."""
        registry = MatrixRegistry(
            get_machine("AMD X2"), n_threads=2, plan_mode="auto",
            autoplanner=trained_planner,
        )
        coo = family_member(seed=106)
        entry = registry.register(coo)
        assert entry.predicted is True
        reg = get_registry()
        sweeps_before = reg.counter("autoplan.sweeps")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=registry.retune,
                                        args=(entry.fingerprint, coo))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reg.counter("autoplan.sweeps") == sweeps_before + 1
        assert entry.predicted is False

    def test_serve_client_background_retune_drains(self, tmp_path):
        from repro.observe.hub import uninstall_hub
        from repro.serve.client import ServeClient

        client = ServeClient(
            plan_cache_dir=tmp_path / "cache", plan_mode="auto",
        )
        try:
            coo = family_member(seed=0)
            entry = client.register(coo)     # no model yet: tune path
            assert entry.plan_path == "tune"
            client.drain()                   # waits for any retunes
            assert len(client.registry.plan_cache.samples()) == 1
        finally:
            client.close()
            uninstall_hub()
