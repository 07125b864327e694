"""Versioned on-disk store of tuned SpMV plans.

The paper's economics are "tune once, run thousands of times": the
expensive step is the planning pass, and its output — a
:class:`~repro.core.plan.SpmvPlan` — is a pure function of
``(matrix content, machine model, heuristic code)``. This module makes
that output durable: plans serialize losslessly to JSON (via the
``to_dict``/``from_dict`` pairs on the plan dataclasses) and are stored
keyed by ``(machine, content fingerprint)`` inside an envelope stamped
with ``repro.__version__`` — the same invalidation discipline as the
benchmark disk cache, so a plan computed by older heuristics is never
served silently after the model changes.

A tuned envelope also records how its plan was chosen (features,
winning label, margin, source). Those records are the autoplan
training set: ``repro autoplan train`` reads them through
:meth:`PlanCache.samples`, and no other file holds them. The trained
model sits in the same directory, so ``plan_mode="auto"`` needs a
``plan_cache_dir``.

Counters (``repro.observe.metrics``):

* ``serve.plan_cache_hit`` — a stored plan was loaded and used.
* ``serve.plan_cache_miss`` — no file for the key.
* ``serve.plan_cache_stale`` — a file existed but its version,
  machine, or fingerprint stamp did not match (treated as a miss).
"""

from __future__ import annotations

import os
from pathlib import Path

from .. import __version__
from .._util import read_json, write_json_atomic
from ..core.plan import SpmvPlan
from ..errors import ServeError
from ..observe import metrics as _metrics
from ..observe.trace import span as _span


def _machine_slug(name: str) -> str:
    return "".join(
        ch if ch.isalnum() else "_" for ch in name
    ).strip("_").lower()


class PlanCache:
    """Directory of ``<machine>/<fingerprint>.json`` plan envelopes.

    An envelope stored with tuning provenance (the ``autoplan`` dict of
    a completed sweep or a feedback re-tune) is also a training sample
    for the plan model: :meth:`samples` reads them back, so this
    directory is the one store of tuning results. Re-storing a key
    replaces its sample.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    # ------------------------------------------------------------- keys
    def path_for(self, machine_name: str, fingerprint: str) -> Path:
        if not fingerprint or any(c in fingerprint for c in "/\\."):
            raise ServeError(f"bad fingerprint {fingerprint!r}")
        return self.root / _machine_slug(machine_name) / \
            f"{fingerprint}.json"

    # ------------------------------------------------------ load / store
    def load(self, machine_name: str, fingerprint: str) -> SpmvPlan | None:
        """Return the cached plan for the key, or None on miss/stale."""
        path = self.path_for(machine_name, fingerprint)
        with _span("serve.plancache.load", machine=machine_name,
                   fingerprint=fingerprint) as s:
            if not path.exists():
                _metrics.inc("serve.plan_cache_miss")
                s.set(outcome="miss")
                return None
            envelope = read_json(path)
            if envelope is None:
                _metrics.inc("serve.plan_cache_stale")
                s.set(outcome="unreadable")
                return None
            if (envelope.get("model_version") != __version__
                    or envelope.get("machine") != machine_name
                    or envelope.get("fingerprint") != fingerprint
                    or "plan" not in envelope):
                _metrics.inc("serve.plan_cache_stale")
                s.set(outcome="stale")
                return None
            try:
                plan = SpmvPlan.from_dict(envelope["plan"])
            except (KeyError, TypeError, ValueError):
                _metrics.inc("serve.plan_cache_stale")
                s.set(outcome="undecodable")
                return None
            _metrics.inc("serve.plan_cache_hit")
            s.set(outcome="hit")
            return plan

    def store(self, fingerprint: str, plan: SpmvPlan, *,
              autoplan: dict | None = None) -> Path:
        """Persist a plan under ``(plan.machine, fingerprint)``.

        ``autoplan`` is optional tuning provenance (source, features,
        winning label, sweep wall-clock, winner-vs-runner-up margin)
        recorded in the envelope; :meth:`samples` turns the measured
        ones into training samples. Envelopes without the key load
        exactly as before.
        """
        path = self.path_for(plan.machine.name, fingerprint)
        with _span("serve.plancache.store", machine=plan.machine.name,
                   fingerprint=fingerprint):
            path.parent.mkdir(parents=True, exist_ok=True)
            envelope = {
                "model_version": __version__,
                "machine": plan.machine.name,
                "fingerprint": fingerprint,
                "plan": plan.to_dict(),
            }
            if autoplan is not None:
                envelope["autoplan"] = autoplan
            write_json_atomic(path, envelope, indent=1)
            _metrics.inc("serve.plan_cache_store")
        return path

    # ------------------------------------------------------- maintenance
    def entries(self) -> list[dict]:
        """Summaries of every stored plan (the CLI ``plan-cache
        inspect`` table): machine, fingerprint, version, freshness."""
        out: list[dict] = []
        if not self.root.exists():
            return out
        for path in sorted(self.root.glob("*/*.json")):
            row = {"path": str(path), "bytes": path.stat().st_size,
                   "machine": "?", "fingerprint": path.stem,
                   "model_version": "?", "n_blocks": 0, "n_threads": 0,
                   "fresh": False}
            envelope = read_json(path)
            if envelope is not None:
                row["machine"] = envelope.get("machine", "?")
                row["model_version"] = envelope.get("model_version", "?")
                plan = envelope.get("plan", {})
                row["n_blocks"] = len(plan.get("choices", []))
                row["n_threads"] = plan.get("profile", {}) \
                    .get("n_threads", 0)
                row["fresh"] = (
                    envelope.get("model_version") == __version__
                )
            out.append(row)
        return out

    def samples(self) -> list:
        """One :class:`~repro.autoplan.TrainingSample` per envelope
        whose provenance is a measured verdict (source ``sweep`` or
        ``feedback``) over today's feature schema.

        Predictions, envelopes without provenance and unreadable files
        are skipped. A stale ``model_version`` is not: it invalidates
        the stored plan, not the measurement.
        """
        from ..autoplan import FEATURE_VERSION, TrainingSample

        out = []
        for path in sorted(self.root.glob("*/*.json")):
            ap = (read_json(path) or {}).get("autoplan")
            if (not isinstance(ap, dict) or not ap.get("features")
                    or ap.get("source") not in ("sweep", "feedback")
                    or ap.get("feature_version") != FEATURE_VERSION):
                continue
            try:
                out.append(TrainingSample(
                    features=tuple(float(v) for v in ap["features"]),
                    label=str(ap["label"]),
                    fmt=str(ap.get("fmt", "")),
                    weight=float(ap.get("weight", 1.0)),
                ))
            except (KeyError, TypeError, ValueError):
                continue
        return out

    def clear(self) -> int:
        """Delete every stored plan, and with it the training samples;
        returns the number removed. The model artifact stays."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in list(self.root.glob("*/*.json")):
            path.unlink()
            removed += 1
        for sub in list(self.root.iterdir()):
            if sub.is_dir() and not any(sub.iterdir()):
                sub.rmdir()
        return removed
