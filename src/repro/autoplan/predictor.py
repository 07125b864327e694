"""Predict-first planning with a measured-sweep safety net.

:class:`AutoPlanner` owns the model artifact in one directory — the
serve tier's plan-cache directory, whose tuned envelopes are the
training samples — and never lets a prediction failure reach the
caller: any exception in feature extraction, model loading, or
prediction degrades to the tuning sweep and is counted on
``autoplan.predict_errors``.

The decision flow for ``mode="auto"``:

1. extract features (O(nnz));
2. if a trained model exists and its confidence clears
   :data:`CONFIDENCE_THRESHOLD`, build the plan from the predicted
   label in one heuristic pass — ``autoplan.predictions{outcome=hit}``;
3. otherwise run the measured sweep —
   ``autoplan.predictions{outcome=fallback}``; the plan cache stores
   the sweep's verdict, so after the next ``autoplan train`` a similar
   matrix hits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from ..observe import metrics
from .features import FeatureVector, extract_features
from .model import PlanModel
from .sweep import config_for_label, dominant_format, run_sweep

#: Below this confidence the predictor refuses and the sweep runs.
CONFIDENCE_THRESHOLD = 0.6

MODEL_FILENAME = "autoplan_model.json"


@dataclass(frozen=True)
class Prediction:
    label: str
    confidence: float


@dataclass
class PlanOutcome:
    """A plan plus the provenance the serve tier records about it."""

    plan: object
    #: How the plan was produced: heuristic | predict | tune.
    path: str
    #: Sweep-candidate label the plan corresponds to.
    label: str = ""
    #: Dominant materialized format (filled after materialization).
    fmt: str = ""
    confidence: float = 0.0
    tuning_seconds: float = 0.0
    margin: float = 1.0
    features: FeatureVector | None = None
    fallback_reason: str = ""
    timings: dict = field(default_factory=dict)


class AutoPlanner:
    """Handle on the model artifact ``<root>/autoplan_model.json``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.model_path = self.root / MODEL_FILENAME
        self._model: PlanModel | None = None
        self._model_loaded = False
        self._loaded_mtime: int | None = None

    @property
    def model(self) -> PlanModel | None:
        # A stat per access keeps a long-running server current with
        # offline retraining: `autoplan train` against the same
        # directory takes effect on the next prediction, no restart.
        mtime = self._artifact_mtime()
        if not self._model_loaded or mtime != self._loaded_mtime:
            self.reload()
        return self._model

    def _artifact_mtime(self) -> int | None:
        try:
            return os.stat(self.model_path).st_mtime_ns
        except OSError:
            return None

    def reload(self) -> PlanModel | None:
        """(Re)load the model artifact from disk; None if absent."""
        self._loaded_mtime = self._artifact_mtime()
        self._model = PlanModel.load(self.model_path)
        self._model_loaded = True
        return self._model

    def predict(self, features: FeatureVector) -> Prediction | None:
        """Predict a plan label, or None when prediction is unavailable.

        Never raises: errors count on ``autoplan.predict_errors`` and
        read as "no prediction", which callers treat as a fallback.
        """
        try:
            model = self.model
            if model is None:
                return None
            if features.version != model.feature_version:
                return None
            label, confidence = model.predict(features.values)
            return Prediction(label=label, confidence=confidence)
        except Exception:
            metrics.inc("autoplan.predict_errors")
            return None


def plan_with_autoplan(
    engine,
    coo,
    *,
    n_threads: int = 1,
    backend: str = "numpy",
    mode: str = "auto",
    planner: AutoPlanner | None = None,
) -> PlanOutcome:
    """Produce a plan predict-first (``auto``: the sweep runs only
    when no confident prediction exists, because a plan must always be
    produced) or by the full sweep (``tune``).
    """
    if mode not in ("auto", "tune"):
        raise ValueError(f"unknown autoplan mode: {mode!r}")

    features: FeatureVector | None = None
    fallback_reason = ""
    try:
        # Extracted in every mode: "tune" results become training
        # samples, so they need the feature vector too.
        features = extract_features(coo)
    except Exception:
        metrics.inc("autoplan.predict_errors")
        fallback_reason = "feature_error"
    if mode == "auto":
        if features is not None and planner is not None:
            try:
                pred = planner.predict(features)
            except Exception:
                # AutoPlanner.predict already degrades internally; this
                # guards third-party planners so a predictor bug can
                # never crash a registration.
                metrics.inc("autoplan.predict_errors")
                pred = None
            if pred is None:
                fallback_reason = fallback_reason or "no_model"
            elif pred.confidence < CONFIDENCE_THRESHOLD:
                fallback_reason = "low_confidence"
            else:
                try:
                    config = config_for_label(
                        engine.machine, pred.label, n_threads,
                    )
                    plan = engine.plan(
                        coo, n_threads=n_threads, config=config,
                        backend=backend,
                    )
                except Exception:
                    metrics.inc("autoplan.predict_errors")
                    fallback_reason = "plan_error"
                else:
                    metrics.inc("autoplan.predictions", outcome="hit")
                    return PlanOutcome(
                        plan=plan, path="predict", label=pred.label,
                        fmt=dominant_format(plan),
                        confidence=pred.confidence, features=features,
                    )
        elif features is not None:
            fallback_reason = "no_planner"
        metrics.inc("autoplan.predictions", outcome="fallback")

    result = run_sweep(
        engine, coo, n_threads=n_threads, backend=backend,
    )
    return PlanOutcome(
        plan=result.plan, path="tune", label=result.label,
        fmt=dominant_format(result.plan),
        tuning_seconds=result.wall_seconds, margin=result.margin,
        features=features, fallback_reason=fallback_reason,
        timings=result.timings,
    )
