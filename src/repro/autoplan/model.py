"""Dependency-free plan classifier: weighted k-NN over standardized
features.

k-NN is the right shape for this problem: the training set is small
(hundreds of matrices, not millions), grows online, and the decision
boundary follows the training distribution exactly — which also gives
a natural out-of-distribution signal. Confidence is

    vote_fraction × min(1, (d_ref / d_nn)²)

where ``d_ref`` is the 95th percentile of leave-one-out
nearest-neighbor distances over the training set: a query far from
everything it was trained on collapses to low confidence and the
predictor falls back to the measured sweep.

Artifacts are JSON, stamped with :data:`MODEL_VERSION` and the feature
schema version; :meth:`PlanModel.load` returns ``None`` on any
mismatch or corruption rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .._util import read_json, write_json_atomic
from .features import FEATURE_VERSION

#: Bump when the artifact schema changes.
MODEL_VERSION = 1

_EPS = 1e-9


@dataclass(frozen=True)
class TrainingSample:
    """One labeled observation: features → winning plan knobs. The
    plan cache's tuned envelopes are the only store of them
    (:meth:`repro.serve.PlanCache.samples`)."""

    #: Fixed-order feature values (see :data:`~.features.FEATURE_NAMES`).
    features: tuple[float, ...]
    #: Sweep candidate label that won (e.g. ``"bcsr-2x2"``, ``"csr"``).
    label: str
    #: Dominant materialized format, e.g. ``"bcsr-2x2-16bit"``.
    fmt: str
    #: Winning-vs-runner-up time margin (>= 1.0).
    weight: float = 1.0


class PlanModel:
    """Distance-weighted k-NN over standardized features."""

    def __init__(self):
        self.k = 5
        self.classes: list[str] = []
        self.mu: np.ndarray | None = None
        self.sigma: np.ndarray | None = None
        self.X: np.ndarray | None = None  # standardized train matrix
        self.y: np.ndarray | None = None  # class indices
        self.weights: np.ndarray | None = None
        self.d_ref = 1.0
        self.feature_version = FEATURE_VERSION

    @property
    def n_samples(self) -> int:
        return 0 if self.X is None else int(self.X.shape[0])

    def fit(self, samples, k: int = 5) -> "PlanModel":
        """Fit from an iterable of :class:`TrainingSample`."""
        samples = list(samples)
        if not samples:
            raise ValueError("cannot fit a PlanModel on no samples")
        raw = np.array([s.features for s in samples], dtype=np.float64)
        labels = [s.label for s in samples]
        self.classes = sorted(set(labels))
        index = {c: i for i, c in enumerate(self.classes)}
        self.y = np.array([index[l] for l in labels], dtype=np.int64)
        self.weights = np.array(
            [max(float(s.weight), _EPS) for s in samples], dtype=np.float64,
        )
        self.mu = raw.mean(axis=0)
        self.sigma = raw.std(axis=0)
        self.sigma[self.sigma == 0] = 1.0
        self.X = (raw - self.mu) / self.sigma
        self.k = max(1, min(int(k), len(samples)))
        self.d_ref = self._reference_distance()
        return self

    def _reference_distance(self) -> float:
        """p95 of leave-one-out nearest-neighbor distances in train."""
        n = self.n_samples
        if n < 2:
            return 1.0
        d2 = ((self.X[:, None, :] - self.X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        nn = np.sqrt(d2.min(axis=1))
        return float(max(np.percentile(nn, 95), _EPS))

    def predict(self, values) -> tuple[str, float]:
        """Predict ``(label, confidence)`` for one feature vector."""
        if self.X is None:
            raise ValueError("model is not fitted")
        q = (np.asarray(values, dtype=np.float64) - self.mu) / self.sigma
        d = np.sqrt(((self.X - q) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")[: self.k]
        votes = np.zeros(len(self.classes), dtype=np.float64)
        for i in order:
            votes[self.y[i]] += self.weights[i] / (d[i] + _EPS)
        top = int(np.argmax(votes))
        vote_frac = float(votes[top] / max(votes.sum(), _EPS))
        d_nn = float(d[order[0]])
        penalty = 1.0 if d_nn <= self.d_ref else (self.d_ref / d_nn) ** 2
        return self.classes[top], vote_frac * penalty

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "model_version": MODEL_VERSION,
            "feature_version": self.feature_version,
            "k": self.k,
            "classes": self.classes,
            "mu": self.mu.tolist(),
            "sigma": self.sigma.tolist(),
            "X": self.X.tolist(),
            "y": self.y.tolist(),
            "weights": self.weights.tolist(),
            "d_ref": self.d_ref,
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json_atomic(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PlanModel | None":
        """Load an artifact; None on missing/corrupt/version-mismatch."""
        doc = read_json(path)
        if doc is None:
            return None
        if doc.get("model_version") != MODEL_VERSION:
            return None
        if doc.get("feature_version") != FEATURE_VERSION:
            return None
        try:
            model = cls()
            model.k = int(doc["k"])
            model.classes = [str(c) for c in doc["classes"]]
            model.mu = np.array(doc["mu"], dtype=np.float64)
            model.sigma = np.array(doc["sigma"], dtype=np.float64)
            model.X = np.array(doc["X"], dtype=np.float64)
            model.y = np.array(doc["y"], dtype=np.int64)
            model.weights = np.array(doc["weights"], dtype=np.float64)
            model.d_ref = float(doc["d_ref"])
            model.feature_version = int(doc["feature_version"])
        except (KeyError, TypeError, ValueError):
            return None
        if model.X.ndim != 2 or len(model.y) != model.X.shape[0]:
            return None
        return model
