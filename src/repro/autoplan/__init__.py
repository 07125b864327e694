"""Learned one-pass plan selection (autoplan).

The paper's economics are tune-once/run-thousands, but the tuning sweep
itself dominates cold-matrix registration latency in the serve tier.
Following the lightweight-selection line of work (Elafrou et al.,
arXiv 1511.02494 and 1711.05487), this package learns the mapping from
cheap O(nnz) structural features to the winning plan class, so a matrix
that *looks like* one we already tuned skips the sweep entirely:

* :mod:`.features` — versioned fixed-order feature extraction;
* :mod:`.model` — the training sample and a dependency-free k-NN
  classifier with confidence;
* :mod:`.sweep` — the measured tuning sweep (labels the samples);
* :mod:`.predictor` — predict-first planning with sweep fallback;
* :mod:`.train` — offline retraining with a stratified holdout report.

Training samples are not stored here: every tuned plan-cache envelope
carries one (:meth:`repro.serve.PlanCache.samples`), and the model
artifact lives in the same directory. The background re-tune that
confirms or overrides a predicted plan on a live entry is part of the
serve tier (:meth:`repro.serve.registry.MatrixRegistry.retune`), and
nothing here imports :mod:`repro.serve`. ``examples/autoplan_smoke.py``
scores the model against the heuristic and the sweep by regret.
"""

from .features import FEATURE_VERSION, FeatureVector, extract_features
from .model import MODEL_VERSION, PlanModel, TrainingSample
from .predictor import (
    CONFIDENCE_THRESHOLD,
    AutoPlanner,
    PlanOutcome,
    Prediction,
    plan_with_autoplan,
)
from .sweep import SweepResult, config_for_label, dominant_format, run_sweep
from .train import holdout_report, stratified_split, train_model

__all__ = [
    "AutoPlanner",
    "CONFIDENCE_THRESHOLD",
    "FEATURE_VERSION",
    "FeatureVector",
    "MODEL_VERSION",
    "PlanModel",
    "PlanOutcome",
    "Prediction",
    "SweepResult",
    "TrainingSample",
    "config_for_label",
    "dominant_format",
    "extract_features",
    "holdout_report",
    "plan_with_autoplan",
    "run_sweep",
    "stratified_split",
    "train_model",
]
