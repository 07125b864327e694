"""Learned one-pass plan selection (autoplan).

The paper's economics are tune-once/run-thousands, but the tuning sweep
itself dominates cold-matrix registration latency in the serve tier.
Following the lightweight-selection line of work (Elafrou et al.,
arXiv 1511.02494 and 1711.05487), this package learns the mapping from
cheap O(nnz) structural features to the winning plan class, so a matrix
that *looks like* one we already tuned skips the sweep entirely:

* :mod:`.features` — versioned fixed-order feature extraction;
* :mod:`.corpus` — JSONL training corpus harvested from the plan cache;
* :mod:`.model` — dependency-free k-NN classifier with confidence;
* :mod:`.sweep` — the measured tuning sweep (labels the corpus);
* :mod:`.predictor` — predict-first planning with sweep fallback;
* :mod:`.train` — offline retraining with a stratified holdout report.

The background re-tune that confirms or overrides a predicted plan on
a live entry is part of the serve tier
(:meth:`repro.serve.registry.MatrixRegistry.retune`).
"""

from .corpus import CORPUS_VERSION, CorpusSample, PlanCorpus
from .features import FEATURE_VERSION, FeatureVector, extract_features
from .model import MODEL_VERSION, PlanModel
from .predictor import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    AutoPlanner,
    PlanOutcome,
    Prediction,
    plan_with_autoplan,
)
from .sweep import SweepResult, config_for_label, dominant_format, run_sweep
from .train import holdout_report, stratified_split, train_model

__all__ = [
    "AutoPlanner",
    "CORPUS_VERSION",
    "CorpusSample",
    "DEFAULT_CONFIDENCE_THRESHOLD",
    "FEATURE_VERSION",
    "FeatureVector",
    "MODEL_VERSION",
    "PlanCorpus",
    "PlanModel",
    "PlanOutcome",
    "Prediction",
    "SweepResult",
    "config_for_label",
    "dominant_format",
    "extract_features",
    "holdout_report",
    "plan_with_autoplan",
    "run_sweep",
    "stratified_split",
    "train_model",
]
