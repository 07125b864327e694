"""In-memory matrix registry: fingerprints → tuned, materialized SpMV.

One entry per distinct matrix *content* (COO fingerprint), holding the
tuned plan and its materialized data structure so repeated ``y = A·x``
requests skip both the planning pass and the format conversion. Tuning
results come from (in order): the in-memory entry, the on-disk
:class:`~repro.serve.plancache.PlanCache`, or a fresh planning pass
(which is then written back to the disk cache).

Memory is bounded: ``capacity_bytes`` caps the summed footprint of the
materialized matrices, and registration evicts least-recently-used
entries until the new matrix fits. Eviction drops only the in-memory
materialization — the tuned plan stays on disk, so a re-registration
of an evicted matrix is a plan-cache hit plus one materialization.

Execution: a registered matrix runs as its tuned structure
(``RegistryEntry.matrix``) in this process, through the kernel backend
the registry resolved once (``plan.backend``).
:meth:`MatrixRegistry.swap` is the one way a live entry's plan or
structure changes afterwards, and the background re-tune of a
predicted plan is its one caller.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from ..core.engine import SpmvEngine
from ..core.plan import SpmvPlan
from ..errors import ServeError
from ..formats.base import SparseFormat
from ..formats.coo import COOMatrix
from ..kernels.registry import resolve_backend
from ..machines.model import Machine
from ..observe import metrics as _metrics
from ..observe.trace import span as _span
from .plancache import PlanCache


@dataclass
class RegistryEntry:
    """One registered matrix: identity, tuned plan, live structure."""

    fingerprint: str
    shape: tuple[int, int]
    nnz: int
    plan: SpmvPlan
    matrix: SparseFormat
    footprint_bytes: int
    from_plan_cache: bool     #: tuning came from the disk cache
    hits: int = field(default=0)
    #: True while the plan came from the autoplan predictor and no
    #: background re-tune has claimed it yet.
    predicted: bool = field(default=False)
    #: How the plan was produced: cached | heuristic | predict | tune.
    plan_path: str = field(default="heuristic")
    #: Sweep-candidate label behind the plan ("" for heuristic/cached).
    autoplan_label: str = field(default="")
    autoplan_confidence: float = field(default=0.0)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def describe(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "shape": list(self.shape),
            "nnz": self.nnz,
            "footprint_bytes": self.footprint_bytes,
            "n_threads": self.plan.n_threads,
            "backend": self.plan.backend,
            "plan_cache_hit": self.from_plan_cache,
            "hits": self.hits,
            "plan_path": self.plan_path,
            "predicted": self.predicted,
            "autoplan_label": self.autoplan_label,
            "autoplan_confidence": self.autoplan_confidence,
        }


class MatrixRegistry:
    """LRU registry of tuned matrices for one machine model."""

    def __init__(
        self,
        machine: Machine,
        *,
        n_threads: int | None = None,
        capacity_bytes: int | None = None,
        plan_cache: PlanCache | None = None,
        backend: str = "numpy",
        plan_mode: str = "heuristic",
        autoplanner=None,
    ):
        if plan_mode not in ("heuristic", "auto", "tune"):
            raise ServeError(f"unknown plan_mode {plan_mode!r}")

        self.machine = machine
        self.engine = SpmvEngine(machine)
        self.n_threads = n_threads if n_threads is not None \
            else machine.n_cores
        if self.n_threads < 1:
            raise ServeError("registry needs >= 1 thread")
        #: Execution backend stamped into every plan this registry
        #: produces ("auto" resolves here, once, against this host).
        self.backend = resolve_backend(backend)
        self.capacity_bytes = capacity_bytes
        self.plan_cache = plan_cache
        #: How cold registrations plan: "heuristic" is the paper's
        #: one-pass choice; "auto" consults the learned model and
        #: falls back to the sweep; "tune" always sweeps.
        self.plan_mode = plan_mode
        #: :class:`~repro.autoplan.AutoPlanner` for non-heuristic modes.
        self.autoplanner = autoplanner
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, RegistryEntry]" = OrderedDict()
        self._total_bytes = 0

    # ---------------------------------------------------------- queries
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def get(self, fingerprint: str) -> RegistryEntry:
        """Look up a registered matrix, refreshing its LRU position."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                raise ServeError(
                    f"unknown matrix fingerprint {fingerprint!r}; "
                    f"register it first"
                )
            self._entries.move_to_end(fingerprint)
            entry.hits += 1
            return entry

    # ------------------------------------------------------ registration
    def register(self, coo: COOMatrix,
                 *, n_threads: int | None = None) -> RegistryEntry:
        """Fingerprint, tune (cache-aware), materialize, and admit."""
        fingerprint = coo.content_fingerprint()
        with self._lock:
            existing = self._entries.get(fingerprint)
            if existing is not None:
                self._entries.move_to_end(fingerprint)
                _metrics.inc("serve.registry_rehits")
                return existing
        threads = n_threads if n_threads is not None else self.n_threads
        # A plan needs at least one row per part; tiny matrices clamp.
        threads = max(1, min(threads, coo.nrows, self.machine.n_threads))
        t_start = time.perf_counter()
        with _span("serve.register", fingerprint=fingerprint,
                   nnz=coo.nnz_logical, threads=threads) as s:
            plan = None
            if self.plan_cache is not None:
                plan = self.plan_cache.load(self.machine.name, fingerprint)
                if plan is not None and plan.n_threads != threads:
                    # Cached under the same key but planned for another
                    # thread count (the key is (machine, fingerprint,
                    # version)): replan rather than serve a mismatched
                    # partition.
                    _metrics.inc("serve.plan_cache_thread_mismatch")
                    plan = None
            from_cache = plan is not None
            outcome = None
            path = "cached"
            if plan is None:
                if self.plan_mode == "heuristic":
                    plan = self.engine.plan(coo, n_threads=threads,
                                            backend=self.backend)
                    path = "heuristic"
                else:
                    outcome = self.engine.plan_auto(
                        coo, n_threads=threads, backend=self.backend,
                        mode=self.plan_mode, planner=self.autoplanner,
                    )
                    plan = outcome.plan
                    path = outcome.path
            elif plan.backend != self.backend:
                # A cached plan is structurally valid for any backend —
                # the backend only selects the execution substrate — so
                # restamp rather than replan.
                plan = replace(plan, backend=self.backend)
            with _span("serve.materialize", fingerprint=fingerprint):
                matrix = plan.materialize(coo)
            footprint = matrix.footprint_bytes()
            s.set(plan_cache_hit=from_cache, plan_path=path,
                  footprint_bytes=footprint)
            entry = RegistryEntry(
                fingerprint=fingerprint,
                shape=coo.shape,
                nnz=coo.nnz_logical,
                plan=plan,
                matrix=matrix,
                footprint_bytes=footprint,
                from_plan_cache=from_cache,
                predicted=(path == "predict"),
                plan_path=path,
                autoplan_label=outcome.label if outcome else "",
                autoplan_confidence=outcome.confidence if outcome else 0.0,
            )
            if self.plan_cache is not None and not from_cache:
                self.plan_cache.store(
                    fingerprint, plan,
                    autoplan=self._provenance(entry, outcome),
                )
        with self._lock:
            existing = self._entries.get(fingerprint)
            if existing is None:
                self._admit(entry)
        if existing is not None:
            # Lost a race with a concurrent registration of the same
            # matrix (both passed the check above). The admitted entry
            # serves everyone; this one is dropped.
            _metrics.inc("serve.registry_rehits")
            return existing
        _metrics.inc("serve.matrices_registered")
        _metrics.observe("autoplan.registration_seconds",
                         time.perf_counter() - t_start, path=path)
        return entry

    def _provenance(self, entry: RegistryEntry, outcome) -> dict | None:
        """Envelope provenance for a freshly planned matrix — a
        training sample when it records a sweep (:meth:`retune`
        restamps it as a ``feedback`` sample)."""
        if outcome is None or outcome.features is None:
            return None
        source = "sweep" if outcome.path == "tune" else "predict"
        return {
            "source": source,
            "label": outcome.label,
            "fmt": outcome.fmt,
            "confidence": outcome.confidence,
            "weight": outcome.margin,
            "tuning_seconds": outcome.tuning_seconds,
            "features": outcome.features.to_list(),
            "feature_version": outcome.features.version,
            "n_threads": entry.plan.n_threads,
        }

    # -------------------------------------------------- background retune
    def retune(self, fingerprint: str, coo: COOMatrix) -> bool:
        """Measured re-tune of a predicted plan (the feedback loop).

        Runs the full sweep, records whether the prediction was right
        (``autoplan.predictions{outcome=override}`` when the sweep
        disagrees, ``autoplan.retunes_confirmed`` when it agrees),
        swaps in the tuned plan on an override, and stores the verdict
        in the plan cache as a ``feedback`` sample (replacing the
        prediction's envelope). Returns True when the predicted plan
        was overridden.

        The re-tune claims the prediction under the lock, so one
        prediction gets one sweep and one verdict however many
        re-tunes were queued for it.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or not entry.predicted:
                return False
            entry.predicted = False
        predicted_label = entry.autoplan_label
        outcome = self.engine.plan_auto(
            coo, n_threads=entry.plan.n_threads, backend=self.backend,
            mode="tune",
        )
        overridden = outcome.label != predicted_label
        if overridden:
            # Materialize outside the lock; swap under it.
            matrix = outcome.plan.materialize(coo)
            if self.swap(entry, plan=outcome.plan, matrix=matrix):
                entry.plan_path = "tune"
            _metrics.inc("autoplan.predictions", outcome="override")
        else:
            _metrics.inc("autoplan.retunes_confirmed")
        entry.autoplan_label = outcome.label
        autoplan = self._provenance(entry, outcome)
        if self.plan_cache is not None and autoplan is not None:
            autoplan.update(
                source="feedback",
                confidence=entry.autoplan_confidence,  # the prediction's
                predicted_label=predicted_label,
                overridden=overridden,
            )
            self.plan_cache.store(fingerprint, outcome.plan,
                                  autoplan=autoplan)
        return overridden

    def swap(self, entry: RegistryEntry, *, plan: SpmvPlan,
             matrix: SparseFormat) -> bool:
        """Change how a live entry executes: a new plan and the
        structure it materialized, re-accounted against the memory
        budget.

        Identity-checked under the lock: returns False and changes
        nothing when ``entry`` was evicted or re-registered since the
        caller looked it up (a re-tune runs for a while off the request
        path). A batch that already read the old structure finishes on
        it.
        """
        with self._lock:
            if self._entries.get(entry.fingerprint) is not entry:
                return False
            self._total_bytes -= entry.footprint_bytes
            entry.matrix = matrix
            entry.footprint_bytes = matrix.footprint_bytes()
            self._total_bytes += entry.footprint_bytes
            _metrics.gauge("serve.registry_bytes", self._total_bytes)
            entry.plan = plan
            return True

    def _admit(self, entry: RegistryEntry) -> None:
        """Insert under the memory budget, evicting LRU entries.
        Caller holds the lock."""
        if self.capacity_bytes is not None:
            while (self._entries
                   and self._total_bytes + entry.footprint_bytes
                   > self.capacity_bytes):
                _, victim = self._entries.popitem(last=False)
                self._total_bytes -= victim.footprint_bytes
                _metrics.inc("serve.registry_evictions")
        self._entries[entry.fingerprint] = entry
        self._total_bytes += entry.footprint_bytes
        _metrics.gauge("serve.registry_bytes", self._total_bytes)
        _metrics.gauge("serve.registry_matrices", len(self._entries))

    # -------------------------------------------------------- summaries
    def describe(self) -> dict:
        with self._lock:
            return {
                "machine": self.machine.name,
                "n_threads": self.n_threads,
                "backend": self.backend,
                "matrices": len(self._entries),
                "total_bytes": self._total_bytes,
                "capacity_bytes": self.capacity_bytes,
                "entries": [e.describe() for e in self._entries.values()],
            }
