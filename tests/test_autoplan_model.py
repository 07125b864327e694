"""k-NN plan model: fit/predict, confidence, artifact round-trip."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.autoplan.features import FEATURE_VERSION
from repro.autoplan.model import MODEL_VERSION, PlanModel, TrainingSample
from repro.autoplan.train import holdout_report, stratified_split


def make_samples(n_per_class: int = 10, seed: int = 0):
    """Two well-separated clusters with distinct labels."""
    rng = np.random.default_rng(seed)
    samples = []
    for label, center in [("csr", (0.0, 0.0, 0.0)),
                          ("bcsr-2x2", (10.0, 10.0, 10.0))]:
        for i in range(n_per_class):
            feats = tuple(
                float(c + rng.normal(scale=0.5)) for c in center
            )
            samples.append(TrainingSample(
                features=feats, label=label, fmt=f"{label}-x-16bit",
                weight=1.2,
            ))
    return samples


class TestFitPredict:
    def test_separable_classes_predicted(self):
        model = PlanModel().fit(make_samples(), k=3)
        label, conf = model.predict([0.1, -0.2, 0.3])
        assert label == "csr"
        assert conf > 0.9
        label, conf = model.predict([9.8, 10.1, 10.2])
        assert label == "bcsr-2x2"
        assert conf > 0.9

    def test_out_of_distribution_confidence_collapses(self):
        model = PlanModel().fit(make_samples(), k=3)
        _, conf_in = model.predict([0.0, 0.0, 0.0])
        _, conf_ood = model.predict([1e4, -1e4, 1e4])
        assert conf_ood < 0.1 < conf_in

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            PlanModel().fit([])

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ValueError):
            PlanModel().predict([1.0, 2.0, 3.0])

    def test_k_clamped_to_corpus(self):
        model = PlanModel().fit(make_samples(n_per_class=1), k=50)
        assert model.k == 2

    def test_constant_feature_does_not_nan(self):
        samples = make_samples()
        frozen = [
            dataclasses.replace(s, features=(s.features[0], 5.0, 5.0))
            for s in samples
        ]
        model = PlanModel().fit(frozen, k=3)
        label, conf = model.predict([0.0, 5.0, 5.0])
        assert label == "csr"
        assert np.isfinite(conf)


class TestArtifact:
    def test_save_load_round_trip(self, tmp_path):
        model = PlanModel().fit(make_samples(), k=3)
        path = model.save(tmp_path / "m.json")
        back = PlanModel.load(path)
        assert back is not None
        q = [0.3, 0.1, -0.4]
        assert back.predict(q) == model.predict(q)
        assert back.classes == model.classes
        assert back.d_ref == model.d_ref

    def test_missing_file_loads_none(self, tmp_path):
        assert PlanModel.load(tmp_path / "absent.json") is None

    def test_corrupt_artifact_loads_none(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{broken")
        assert PlanModel.load(p) is None
        p.write_text('"a string"')
        assert PlanModel.load(p) is None

    @pytest.mark.parametrize("field,value", [
        ("model_version", MODEL_VERSION + 1),
        ("feature_version", FEATURE_VERSION + 1),
    ])
    def test_version_mismatch_loads_none(self, tmp_path, field, value):
        model = PlanModel().fit(make_samples(), k=3)
        path = model.save(tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        assert PlanModel.load(path) is None


class TestTraining:
    def test_stratified_split_keeps_every_class_in_train(self):
        samples = make_samples(n_per_class=4)
        train, test = stratified_split(samples, holdout_frac=0.5)
        assert {s.label for s in train} == {"csr", "bcsr-2x2"}
        assert len(train) + len(test) == len(samples)

    def test_holdout_report_on_separable_data(self):
        report = holdout_report(make_samples(n_per_class=12),
                                holdout_frac=0.25, seed=1, k=3)
        assert report["n_train"] + report["n_test"] == 24
        assert report["top1_label_accuracy"] == 1.0
        assert report["format_accuracy"] == 1.0
        assert set(report["per_label"]) == {"csr", "bcsr-2x2"}
        assert report["model_version"] == MODEL_VERSION

    def test_holdout_report_empty_corpus(self):
        report = holdout_report([])
        assert report["n_samples"] == 0
        assert report["top1_label_accuracy"] is None
