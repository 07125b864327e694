#!/usr/bin/env python3
"""Autoplan smoke test: learn plan selection, then beat the sweep.

The CI autoplan-smoke job runs this end to end:

1. synthesize a 48-matrix suite across stencil / FEM / LP / graph /
   dense families (6 structural variants each),
2. register half of it through a ``plan_mode="tune"`` registry so every
   measured sweep lands in the plan cache, whose tuned envelopes are
   the training samples,
3. train the k-NN model offline and print the stratified-holdout
   report,
4. predict plans for the *unseen* half and score each selector by its
   regret — the chosen plan's SpMV time over the best candidate's,
   every distinct candidate structure timed as the median of
   interleaved rounds. The k-NN's geometric-mean regret must be below
   the one-pass heuristic's, or the learned selector does not earn its
   feature-extraction cost. Format accuracy against the sweep winner
   is reported but not gated: its labels are single timings, so it
   moves with host noise,
5. prove an out-of-distribution matrix refuses to predict (confidence
   fallback to the sweep),
6. write ``AUTOPLAN_REPORT.json`` (holdout report, selector regrets and
   selection costs, per-matrix test verdicts) for the CI artifact
   upload.

Exits 0 on success, 1 (with a traceback) on any failure.

Run: ``PYTHONPATH=src python examples/autoplan_smoke.py``
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.autoplan import AutoPlanner, extract_features, train_model
from repro.autoplan.predictor import plan_with_autoplan
from repro.autoplan.sweep import (
    CANDIDATE_LABELS,
    _structure_key,
    config_for_label,
    dominant_format,
    run_sweep,
)
from repro.autoplan.train import _format_family, holdout_report
from repro.core import SpmvEngine
from repro.formats import COOMatrix
from repro.kernels.registry import spmv_backend
from repro.machines import get_machine
from repro.matrices import generate
from repro.observe.metrics import get_registry
from repro.serve import MatrixRegistry, PlanCache

#: stencil / FEM / LP / graph / dense coverage, 6 variants each.
FAMILIES = ("QCD", "FEM-Har", "FEM-Cant", "LP", "Epidem", "Dense",
            "Circuit", "Webbase")
VARIANTS = 6
N_THREADS = 2
#: Kernel backend every plan, sweep and timing runs on.
BACKEND = "numpy"
#: Interleaved timing rounds per candidate structure.
ROUNDS = 15
REPORT_PATH = Path("AUTOPLAN_REPORT.json")


def suite():
    """(name, coo) pairs: VARIANTS structural variants per family."""
    for family in FAMILIES:
        for seed in range(VARIANTS):
            scale = 0.02 + 0.004 * (seed % 3)
            yield (f"{family}#{seed}",
                   generate(family, scale=scale, seed=seed))


def candidate_times(engine, coo) -> dict[str, float]:
    """Median seconds per SpMV for every sweep candidate label.

    Labels that build the same data structure share one timing. The
    structures are timed round-robin, one SpMV each per round, so host
    noise lands on every candidate alike instead of on whichever one
    ran during a spike.
    """
    structures: dict[str, tuple] = {}
    for label in CANDIDATE_LABELS:
        plan = engine.plan(
            coo, n_threads=N_THREADS, backend=BACKEND,
            config=config_for_label(engine.machine, label, N_THREADS),
        )
        key = _structure_key(plan)
        if key not in structures:
            structures[key] = (plan.materialize(coo), [])
        structures[key][1].append(label)
    x = np.random.default_rng(1).standard_normal(coo.ncols)
    matrices = [matrix for matrix, _ in structures.values()]
    for matrix in matrices:
        spmv_backend(matrix, x, backend=BACKEND)    # warm
    seconds = np.empty((ROUNDS, len(matrices)))
    for i in range(ROUNDS):
        for j, matrix in enumerate(matrices):
            t0 = time.perf_counter()
            spmv_backend(matrix, x, backend=BACKEND)
            seconds[i, j] = time.perf_counter() - t0
    medians = np.median(seconds, axis=0)
    return {label: float(t)
            for (_, labels), t in zip(structures.values(), medians)
            for label in labels}


def summarize(regrets: list[float]) -> dict:
    """Geometric mean and max of per-matrix regrets."""
    r = np.asarray(regrets)
    return {"geomean": round(float(np.exp(np.log(r).mean())), 4),
            "max": round(float(r.max()), 4)}


def main() -> None:
    reg = get_registry()
    engine = SpmvEngine(get_machine("AMD X2"))
    matrices = list(suite())
    # stratified even/odd split: every family appears in both halves
    train_half = matrices[0::2]
    test_half = matrices[1::2]
    print(f"suite: {len(matrices)} matrices "
          f"({len(FAMILIES)} families x {VARIANTS} variants), "
          f"{len(train_half)} tuned / {len(test_half)} predicted")

    with tempfile.TemporaryDirectory() as root:
        planner = AutoPlanner(root)
        cache = PlanCache(root)
        registry = MatrixRegistry(
            engine.machine, n_threads=N_THREADS, plan_mode="tune",
            autoplanner=planner, backend=BACKEND, plan_cache=cache,
        )

        # 1. tune half the suite; each sweep is a tuned envelope
        for name, coo in train_half:
            entry = registry.register(coo)
            assert entry.plan_path == "tune", entry.plan_path
        samples = cache.samples()
        assert len(samples) == len(train_half), \
            f"plan cache has {len(samples)} samples, " \
            f"expected {len(train_half)}"
        sweeps = reg.counter("autoplan.sweeps")
        print(f"tuned {len(train_half)} matrices "
              f"({sweeps} sweeps), plan cache at {root}")

        # 2. offline training + holdout report
        report = holdout_report(samples, holdout_frac=0.25, seed=0, k=5)
        train_model(samples, k=5).save(planner.model_path)
        planner.reload()
        print(f"holdout: top1_label="
              f"{report['top1_label_accuracy']:.2f} "
              f"format={report['format_accuracy']:.2f} "
              f"on {report['n_test']} held out of {report['n_samples']}")

        # 3. predict the unseen half and score every selector's pick
        #    by regret against the best interleaved-median candidate;
        #    accuracy compares format families with the matrix's own
        #    sweep (near-tied labels like heuristic-vs-csr build the
        #    same structure)
        verdicts = []
        hits_before = reg.counter("autoplan.predictions", outcome="hit")
        for name, coo in test_half:
            outcome = plan_with_autoplan(
                engine, coo, n_threads=N_THREADS, mode="auto",
                planner=planner, backend=BACKEND,
            )
            truth = run_sweep(engine, coo, n_threads=N_THREADS,
                              backend=BACKEND)
            if outcome.path == "predict":
                label, predicted_fmt = outcome.label, outcome.fmt
            else:
                # low-confidence fallback already swept; score the
                # model's raw guess anyway so accuracy is honest
                pred = planner.predict(outcome.features)
                label = pred.label if pred else "heuristic"
                plan = engine.plan(
                    coo, n_threads=N_THREADS,
                    config=config_for_label(
                        engine.machine, label, N_THREADS),
                )
                predicted_fmt = dominant_format(plan)
            correct = (_format_family(predicted_fmt)
                       == _format_family(dominant_format(truth.plan)))
            times = candidate_times(engine, coo)
            best = min(times.values())
            t0 = time.perf_counter()
            engine.plan(coo, n_threads=N_THREADS, backend=BACKEND)
            t1 = time.perf_counter()
            extract_features(coo)
            t2 = time.perf_counter()
            verdicts.append({
                "matrix": name, "path": outcome.path,
                "predicted_label": label,
                "predicted_fmt": predicted_fmt,
                "tuned_label": truth.label,
                "tuned_fmt": dominant_format(truth.plan),
                "confidence": round(outcome.confidence, 3),
                "correct": correct,
                "regret": {"heuristic": times["heuristic"] / best,
                           "knn": times[label] / best,
                           "sweep": times[truth.label] / best},
                "select_s": {"plan": t1 - t0, "features": t2 - t1,
                             "sweep": truth.wall_seconds},
            })
        accuracy = sum(v["correct"] for v in verdicts) / len(verdicts)
        n_predicted = sum(v["path"] == "predict" for v in verdicts)
        hits = reg.counter("autoplan.predictions",
                           outcome="hit") - hits_before
        assert hits == n_predicted
        regret = {sel: summarize([v["regret"][sel] for v in verdicts])
                  for sel in ("heuristic", "knn", "sweep")}
        select_s = {
            step: round(float(np.median(
                [v["select_s"][step] for v in verdicts])), 5)
            for step in ("plan", "features", "sweep")
        }
        print(f"predicted half: {n_predicted}/{len(verdicts)} one-pass "
              f"predictions, format accuracy {accuracy:.2f} (not gated)")
        for sel, r in regret.items():
            print(f"  {sel:9s} regret geomean {r['geomean']:.3f} "
                  f"max {r['max']:.2f}")
        print(f"  median selection cost: plan {select_s['plan']:.4f} s, "
              f"features {select_s['features']:.4f} s, "
              f"sweep {select_s['sweep']:.4f} s")
        assert n_predicted > 0, "model never cleared its threshold"
        assert regret["knn"]["geomean"] < regret["heuristic"]["geomean"], \
            f"k-NN regret {regret['knn']} does not beat the " \
            f"heuristic's {regret['heuristic']}"

        # 4. an out-of-distribution matrix must refuse to predict
        n = 4000
        ood = COOMatrix((2, n), np.zeros(n, dtype=np.int64),
                        np.arange(n), np.ones(n))
        fb_before = reg.counter("autoplan.predictions",
                                outcome="fallback")
        outcome = plan_with_autoplan(
            engine, ood, n_threads=1, mode="auto", planner=planner,
        )
        assert outcome.path == "tune", outcome.path
        assert outcome.fallback_reason == "low_confidence", \
            outcome.fallback_reason
        assert reg.counter("autoplan.predictions",
                           outcome="fallback") == fb_before + 1
        print("out-of-distribution matrix fell back to the sweep "
              f"(reason={outcome.fallback_reason})")

    REPORT_PATH.write_text(json.dumps({
        "suite": {"families": list(FAMILIES), "variants": VARIANTS},
        "holdout": report,
        "backend": BACKEND,
        "test_accuracy": accuracy,
        "regret": regret,
        "select_s_median": select_s,
        "one_pass_predictions": n_predicted,
        "verdicts": verdicts,
    }, indent=2))
    print(f"report written to {REPORT_PATH}")
    print("autoplan smoke: OK")


if __name__ == "__main__":
    main()
