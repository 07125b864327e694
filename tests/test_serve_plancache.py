"""Plan serialization and the on-disk tuned-plan cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autoplan import (
    FEATURE_VERSION,
    AutoPlanner,
    TrainingSample,
    extract_features,
    train_model,
)
from repro.core import OptimizationLevel, SpmvEngine
from repro.core.plan import SpmvPlan
from repro.errors import ServeError
from repro.machines import get_machine
from repro.matrices import fem_blocked_matrix, generate, scattered_matrix
from repro.observe.metrics import get_registry
from repro.serve import MatrixRegistry, PlanCache
from tests.conftest import random_coo

L = OptimizationLevel


def plans_equal(a: SpmvPlan, b: SpmvPlan) -> bool:
    """Field-by-field plan equality (dataclass ``==`` would trip on the
    partition's ndarray fields)."""
    return (
        a.machine.name == b.machine.name
        and a.config == b.config
        and a.profile == b.profile
        and np.array_equal(a.partition.bounds, b.partition.bounds)
        and np.array_equal(a.partition.nnz_per_part,
                           b.partition.nnz_per_part)
        and a.choices == b.choices
    )


@pytest.fixture
def engine():
    return SpmvEngine(get_machine("AMD X2"))


class TestPlanRoundTrip:
    @pytest.mark.parametrize(
        "level", [L.NAIVE, L.PF, L.PF_RB, L.PF_RB_CB]
    )
    def test_lossless_at_every_level(self, engine, level):
        coo = random_coo(300, 300, 0.03, seed=9, blocky=True)
        plan = engine.plan(coo, level=level, n_threads=2)
        back = SpmvPlan.from_dict(plan.to_dict())
        assert plans_equal(plan, back)

    def test_dict_is_json_serializable(self, engine):
        coo = generate("FEM-Har", scale=0.03, seed=0)
        plan = engine.plan(coo, n_threads=4)
        text = json.dumps(plan.to_dict())
        assert plans_equal(plan, SpmvPlan.from_dict(json.loads(text)))

    def test_restored_plan_materializes_identically(self, engine, rng):
        coo = random_coo(200, 160, 0.05, seed=3)
        plan = engine.plan(coo, n_threads=2)
        back = SpmvPlan.from_dict(plan.to_dict())
        x = rng.standard_normal(coo.ncols)
        np.testing.assert_array_equal(
            plan.materialize(coo).spmv(x), back.materialize(coo).spmv(x)
        )

class TestPlanCacheStore:
    def test_store_then_load(self, engine, tmp_path):
        coo = random_coo(150, 150, 0.04, seed=2)
        plan = engine.plan(coo, n_threads=2)
        cache = PlanCache(tmp_path)
        fp = coo.content_fingerprint()
        path = cache.store(fp, plan)
        assert path.exists()
        loaded = cache.load(plan.machine.name, fp)
        assert loaded is not None
        assert plans_equal(plan, loaded)

    def test_miss_on_empty_cache(self, tmp_path):
        reg = get_registry()
        before = reg.counter("serve.plan_cache_miss")
        assert PlanCache(tmp_path).load("AMD X2", "0" * 16) is None
        assert reg.counter("serve.plan_cache_miss") == before + 1

    def test_version_tamper_is_stale(self, engine, tmp_path):
        coo = random_coo(80, 80, 0.05, seed=5)
        plan = engine.plan(coo, n_threads=1)
        cache = PlanCache(tmp_path)
        fp = coo.content_fingerprint()
        path = cache.store(fp, plan)
        envelope = json.loads(path.read_text())
        envelope["model_version"] = "0.0.0-ancient"
        path.write_text(json.dumps(envelope))
        reg = get_registry()
        before = reg.counter("serve.plan_cache_stale")
        assert cache.load(plan.machine.name, fp) is None
        assert reg.counter("serve.plan_cache_stale") == before + 1

    def test_corrupt_file_is_stale_not_fatal(self, engine, tmp_path):
        coo = random_coo(60, 60, 0.05, seed=6)
        plan = engine.plan(coo, n_threads=1)
        cache = PlanCache(tmp_path)
        fp = coo.content_fingerprint()
        path = cache.store(fp, plan)
        path.write_text("{not json")
        assert cache.load(plan.machine.name, fp) is None

    def test_bad_fingerprint_rejected(self, tmp_path):
        cache = PlanCache(tmp_path)
        for bad in ["", "../../etc/passwd", "a/b", "x.json"]:
            with pytest.raises(ServeError):
                cache.path_for("AMD X2", bad)

    def test_entries_and_clear(self, engine, tmp_path):
        coo = random_coo(90, 90, 0.05, seed=7)
        cache = PlanCache(tmp_path)
        cache.store(
            coo.content_fingerprint(), engine.plan(coo, n_threads=2)
        )
        rows = cache.entries()
        assert len(rows) == 1
        assert rows[0]["machine"] == "AMD X2"
        assert rows[0]["fresh"] is True
        assert rows[0]["n_threads"] == 2
        assert cache.clear() == 1
        assert cache.entries() == []


class TestRegistryCacheIntegration:
    def test_second_registry_hits_disk_cache(self, tmp_path, rng):
        """Acceptance: a second serve/tune of the same matrix on the
        same machine is a plan-cache hit, and the restored plan behaves
        identically."""
        coo = generate("FEM-Har", scale=0.03, seed=0)
        machine = get_machine("AMD X2")
        reg = get_registry()

        r1 = MatrixRegistry(machine, plan_cache=PlanCache(tmp_path))
        e1 = r1.register(coo)
        assert e1.from_plan_cache is False

        hits_before = reg.counter("serve.plan_cache_hit")
        r2 = MatrixRegistry(machine, plan_cache=PlanCache(tmp_path))
        e2 = r2.register(coo)
        assert e2.from_plan_cache is True
        assert reg.counter("serve.plan_cache_hit") == hits_before + 1
        assert plans_equal(e1.plan, e2.plan)
        x = rng.standard_normal(coo.ncols)
        np.testing.assert_array_equal(e1.matrix.spmv(x),
                                      e2.matrix.spmv(x))

    def test_thread_mismatch_replans(self, tmp_path):
        coo = random_coo(200, 200, 0.04, seed=8)
        machine = get_machine("AMD X2")
        cache = PlanCache(tmp_path)
        MatrixRegistry(machine, n_threads=1,
                       plan_cache=cache).register(coo)
        reg = get_registry()
        before = reg.counter("serve.plan_cache_thread_mismatch")
        e = MatrixRegistry(machine, n_threads=2,
                           plan_cache=cache).register(coo)
        assert e.from_plan_cache is False
        assert e.plan.n_threads == 2
        assert reg.counter("serve.plan_cache_thread_mismatch") \
            == before + 1


def provenance(features=(1.0, 2.0, 3.0), source="sweep", label="csr"):
    """A registry-shaped ``autoplan`` envelope dict."""
    return {
        "source": source, "label": label, "fmt": "csr-1x1-16bit",
        "confidence": 0.0, "weight": 1.4, "tuning_seconds": 0.21,
        "features": list(features), "feature_version": FEATURE_VERSION,
        "n_threads": 2, "shards": 0,
    }


def store(engine, cache, seed, **kw):
    """Store a fresh matrix's plan with provenance; the envelope path."""
    coo = random_coo(60, 60, 0.05, seed=seed)
    return cache.store(coo.content_fingerprint(),
                       engine.plan(coo, n_threads=1),
                       autoplan=provenance(**kw))


class TestAutoplanProvenance:
    """The envelope carries tuning provenance under an optional
    ``autoplan`` key — older entries (without it) must still load."""

    def test_envelope_without_autoplan_key_still_loads(
        self, engine, tmp_path,
    ):
        """Entries written before the autoplan fields existed load."""
        coo = random_coo(120, 120, 0.04, seed=11)
        plan = engine.plan(coo, n_threads=2)
        cache = PlanCache(tmp_path)
        fp = coo.content_fingerprint()
        path = cache.store(fp, plan)
        envelope = json.loads(path.read_text())
        envelope.pop("autoplan", None)   # simulate a pre-autoplan entry
        path.write_text(json.dumps(envelope))
        loaded = cache.load(plan.machine.name, fp)
        assert loaded is not None
        assert plans_equal(plan, loaded)

    def test_store_with_provenance_records_envelope_fields(
        self, engine, tmp_path,
    ):
        path = store(engine, PlanCache(tmp_path), 12)
        envelope = json.loads(path.read_text())
        assert envelope["autoplan"]["tuning_seconds"] == 0.21
        assert envelope["autoplan"]["weight"] == 1.4


class TestTrainingSamples:
    """``PlanCache.samples()``: the tuned envelopes are the only store
    of autoplan training data."""

    def test_sweep_and_feedback_envelopes_are_samples(self, engine,
                                                      tmp_path):
        cache = PlanCache(tmp_path)
        store(engine, cache, 13, source="sweep")
        store(engine, cache, 14, source="feedback",
              features=(4.0, 5.0, 6.0))
        assert sorted(cache.samples(), key=lambda s: s.features) == [
            TrainingSample((1.0, 2.0, 3.0), "csr", "csr-1x1-16bit", 1.4),
            TrainingSample((4.0, 5.0, 6.0), "csr", "csr-1x1-16bit", 1.4),
        ]

    def test_predicted_store_is_not_a_sample(self, engine, tmp_path):
        """Predictions must not train on themselves."""
        cache = PlanCache(tmp_path)
        store(engine, cache, 15, source="predict")
        assert cache.samples() == []

    def test_envelope_without_provenance_is_not_a_sample(self, engine,
                                                         tmp_path):
        cache = PlanCache(tmp_path)
        coo = random_coo(60, 60, 0.05, seed=16)
        cache.store(coo.content_fingerprint(),
                    engine.plan(coo, n_threads=1))
        store(engine, cache, 17)
        assert len(cache.samples()) == 1

    def test_missing_dir_has_no_samples(self, tmp_path):
        assert PlanCache(tmp_path / "absent").samples() == []

    @pytest.mark.parametrize("field,value", [
        ("feature_version", FEATURE_VERSION + 1),
        ("features", []),
        ("label", None),
    ], ids=["feature_version", "features", "label"])
    def test_unusable_provenance_skipped(self, engine, tmp_path,
                                         field, value):
        cache = PlanCache(tmp_path)
        store(engine, cache, 18)
        path = store(engine, cache, 19)
        envelope = json.loads(path.read_text())
        if value is None:
            del envelope["autoplan"][field]
        else:
            envelope["autoplan"][field] = value
        path.write_text(json.dumps(envelope))
        assert len(cache.samples()) == 1

    def test_stale_model_version_still_counts(self, engine, tmp_path):
        """A release bump invalidates the stored plan, not the
        measurement it records."""
        cache = PlanCache(tmp_path)
        path = store(engine, cache, 20)
        envelope = json.loads(path.read_text())
        envelope["model_version"] = "0.0.0-ancient"
        path.write_text(json.dumps(envelope))
        assert len(cache.samples()) == 1

    @pytest.mark.parametrize("junk", [
        "not json at all",
        '"a bare string"',
        "[1, 2, 3]",
        '{"v": 2}',          # object but no provenance
    ])
    def test_unreadable_envelopes_skipped(self, engine, tmp_path, junk):
        cache = PlanCache(tmp_path)
        store(engine, cache, 21)
        path = store(engine, cache, 22)
        path.write_text(junk)
        assert len(cache.samples()) == 1

    def test_torn_envelope_skipped_not_fatal(self, engine, tmp_path):
        cache = PlanCache(tmp_path)
        store(engine, cache, 23)
        path = store(engine, cache, 24)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert len(cache.samples()) == 1

    def test_later_store_replaces_the_sample(self, engine, tmp_path):
        """One sample per (machine, fingerprint): a re-store replaces
        it, and a heuristic re-plan (no provenance) drops it."""
        cache = PlanCache(tmp_path)
        coo = random_coo(60, 60, 0.05, seed=25)
        fp, plan = coo.content_fingerprint(), engine.plan(coo, n_threads=1)
        cache.store(fp, plan, autoplan=provenance())
        cache.store(fp, plan, autoplan=provenance(
            source="feedback", features=(7.0, 8.0, 9.0)))
        assert [s.features for s in cache.samples()] == [(7.0, 8.0, 9.0)]
        cache.store(fp, plan)
        assert cache.samples() == []

    def test_tune_then_feedback_round(self, engine, tmp_path):
        """Twelve tuned matrices, then four predicted and re-tuned ones:
        sixteen samples, four of them from feedback."""
        def family(seed):
            return fem_blocked_matrix(240, 4, 24, bandwidth_frac=0.1,
                                      seed=seed)

        cache = PlanCache(tmp_path)
        # The twelve sweeps' verdicts, with labels pinned per family so
        # the model below predicts deterministically.
        for seed in range(6):
            for coo, label in [(family(seed), "csr"),
                               (scattered_matrix(300, 8, seed=seed),
                                "heuristic")]:
                cache.store(coo.content_fingerprint(),
                            engine.plan(coo, n_threads=2),
                            autoplan=provenance(
                                extract_features(coo).to_list(),
                                label=label))
        assert len(cache.samples()) == 12
        planner = AutoPlanner(tmp_path)
        train_model(cache.samples(), k=3).save(planner.model_path)
        registry = MatrixRegistry(engine.machine, n_threads=2,
                                  plan_mode="auto", autoplanner=planner,
                                  plan_cache=cache)
        for seed in range(100, 104):
            coo = family(seed)
            entry = registry.register(coo)
            assert entry.predicted is True
            registry.retune(entry.fingerprint, coo)
        sources = [json.loads(path.read_text())["autoplan"]["source"]
                   for path in tmp_path.glob("*/*.json")]
        assert len(cache.samples()) == 16
        assert sources.count("feedback") == 4
