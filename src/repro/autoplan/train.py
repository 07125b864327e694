"""Offline (re)training with a stratified holdout accuracy report.

The report measures the two things that matter operationally:

* **top-1 label accuracy** — would the predicted sweep candidate have
  matched the measured winner;
* **format accuracy** — would the *materialized format family* have
  matched, which is the looser (and more honest) criterion: ``csr``
  and a ``heuristic`` run that chose CSR are the same plan in the end,
  and timing noise between them should not count as a miss.
"""

from __future__ import annotations

import numpy as np

from .features import FEATURE_VERSION
from .model import MODEL_VERSION, PlanModel, TrainingSample


def train_model(samples, k: int = 5) -> PlanModel:
    """Fit a :class:`PlanModel` on the full sample list."""
    return PlanModel().fit(list(samples), k=k)


def stratified_split(
    samples, *, holdout_frac: float = 0.25, seed: int = 0,
) -> tuple[list[TrainingSample], list[TrainingSample]]:
    """Per-label split so every class keeps at least one train sample."""
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[TrainingSample]] = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s)
    train: list[TrainingSample] = []
    test: list[TrainingSample] = []
    for label in sorted(by_label):
        group = list(by_label[label])
        rng.shuffle(group)
        n_test = int(len(group) * holdout_frac)
        n_test = min(n_test, len(group) - 1)  # keep >=1 in train
        test.extend(group[:n_test])
        train.extend(group[n_test:])
    return train, test


def _format_family(fmt: str) -> str:
    """``bcsr-2x2-16bit`` → ``bcsr-2x2`` (drop the index width)."""
    parts = fmt.split("-")
    return "-".join(parts[:2]) if len(parts) >= 2 else fmt


def label_format_map(samples) -> dict[str, str]:
    """Majority materialized-format family per sweep label.

    Used to score format accuracy for labels like ``heuristic`` whose
    format is data-dependent.
    """
    votes: dict[str, dict[str, int]] = {}
    for s in samples:
        fam = _format_family(s.fmt)
        votes.setdefault(s.label, {})[fam] = (
            votes.setdefault(s.label, {}).get(fam, 0) + 1
        )
    return {
        label: max(fams.items(), key=lambda kv: (kv[1], kv[0]))[0]
        for label, fams in votes.items()
    }


def holdout_report(
    samples, *, holdout_frac: float = 0.25, seed: int = 0, k: int = 5,
) -> dict:
    """Train on a stratified split and score the holdout."""
    samples = list(samples)
    train, test = stratified_split(
        samples, holdout_frac=holdout_frac, seed=seed,
    )
    report = {
        "n_samples": len(samples),
        "n_train": len(train),
        "n_test": len(test),
        "labels": sorted({s.label for s in samples}),
        "k": k,
        "feature_version": FEATURE_VERSION,
        "model_version": MODEL_VERSION,
        "top1_label_accuracy": None,
        "format_accuracy": None,
        "per_label": {},
    }
    if not train or not test:
        return report
    model = train_model(train, k=k)
    fmt_of_label = label_format_map(train)
    label_hits = 0
    fmt_hits = 0
    per_label: dict[str, dict[str, int]] = {}
    for s in test:
        pred, _conf = model.predict(np.asarray(s.features))
        stats = per_label.setdefault(s.label, {"n": 0, "hits": 0})
        stats["n"] += 1
        if pred == s.label:
            label_hits += 1
            stats["hits"] += 1
        true_fam = _format_family(s.fmt)
        pred_fam = fmt_of_label.get(pred, _format_family(pred))
        if pred_fam == true_fam:
            fmt_hits += 1
    report["top1_label_accuracy"] = label_hits / len(test)
    report["format_accuracy"] = fmt_hits / len(test)
    report["per_label"] = {
        label: {
            "n": st["n"],
            "accuracy": st["hits"] / st["n"] if st["n"] else None,
        }
        for label, st in sorted(per_label.items())
    }
    return report
