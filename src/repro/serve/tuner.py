"""Online kernel autotuning from live serve traffic.

Plan-time tuning (the sweep, the predictor) decides from a cold start;
this module closes the remaining gap: once a matrix is *hot* — enough
batches have flowed through the scheduler — a background hill-climb
times the entry's live executor (:mod:`.executor`) against
its neighbors and promotes a measurably better one through
:meth:`~repro.serve.registry.MatrixRegistry.swap`, the same path the
predicted-plan re-tune uses. Two knobs move:

* **backend** — ``numpy`` ↔ ``c`` (the compiled ISA-laddered kernels);
* **thread count** — ×2 / ÷2 steps (never past the host's core count)
  on a :class:`~repro.serve.executor.ThreadedExecutor`, available when
  the entry materialized to a single full-extent CSR block (the
  compiled kernels release the GIL, so threads are a real axis).

The *current* configuration's cost comes from live traffic when
possible: the PR 8 roofline watchdog's EWMA GFLOP/s baseline for this
fingerprint converts straight to seconds per sweep, so the climb starts
from what production actually measures rather than a synthetic re-run.
Candidates are then timed directly — best-of-N ``executor.spmv(x)``,
the exact call that will serve, off the request path on the
scheduler's worker pool.

A promotion swaps the winning executor (and the plan restamped with
its backend) into the entry — a no-op if the entry was evicted while
candidates were being timed — and records the decision in the plan
cache with ``source="online"`` so the next cold start of this matrix
begins from the promoted configuration. Every verdict is counted under
``autoplan.online_promotions{outcome=}`` (``promoted`` | ``kept``).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time

import numpy as np

from ..errors import ServeError
from ..kernels.cbackend import CBackendUnavailable, c_backend_available
from ..observe import metrics as _metrics
from ..observe.trace import span as _span
from .executor import InProcessExecutor, ThreadedExecutor

#: Flops per stored nonzero (one multiply + one add).
_FLOPS_PER_NNZ = 2.0


def _key(executor) -> str:
    """``<backend>/t<threads>`` label of one point in the neighborhood."""
    d = executor.describe()
    return f"{d['backend']}/t{d['exec_threads']}"


class OnlineTuner:
    """Hill-climbing re-tuner fed by the scheduler's batch stream.

    Parameters
    ----------
    registry : MatrixRegistry
        Owner of the live entries; promotions go through its ``swap``.
    scheduler : BatchScheduler
        Supplies :meth:`~repro.serve.scheduler.BatchScheduler.submit_task`
        so tuning runs off the request path but inside the drain
        discipline.
    watchdog : PerfWatchdog | None
        When present, the current configuration's cost is read from its
        live GFLOP/s baseline instead of re-measured.
    hot_threshold : int
        Batches a fingerprint must serve before its first tune.
    min_gain : float
        A candidate must be at least this factor faster to promote
        (guards against promoting timing noise).
    iters : int
        Best-of-N timing repetitions per candidate.
    cooldown : int
        Batches to wait after a verdict before re-tuning the same
        fingerprint (the climb continues, one step per cooldown).
    """

    def __init__(self, registry, scheduler, watchdog=None, *,
                 hot_threshold: int = 32, min_gain: float = 1.1,
                 iters: int = 3, cooldown: int = 256):
        self.registry = registry
        self.scheduler = scheduler
        self.watchdog = watchdog
        self.hot_threshold = max(1, int(hot_threshold))
        self.min_gain = float(min_gain)
        self.iters = max(1, int(iters))
        self.cooldown = max(1, int(cooldown))
        self._lock = threading.Lock()
        self._batches: dict[str, int] = {}
        self._next_due: dict[str, int] = {}
        self._inflight: set[str] = set()
        #: fingerprint -> list of verdict dicts (for /metrics debugging
        #: and the demo).
        self.history: dict[str, list[dict]] = {}

    # ------------------------------------------------------------ intake
    def note_batch(self, entry) -> None:
        """Scheduler hook: one executed batch for ``entry``. Cheap —
        a counter bump; the tune itself runs on the worker pool.
        Shard-backed entries are not tuned (their knobs are the
        group's, fixed at start-up)."""
        if entry.executor.describe()["sharded"]:
            return
        fp = entry.fingerprint
        with self._lock:
            n = self._batches.get(fp, 0) + 1
            self._batches[fp] = n
            due = self._next_due.get(fp, self.hot_threshold)
            if n < due or fp in self._inflight:
                return
            self._inflight.add(fp)
            self._next_due[fp] = n + self.cooldown
        self.scheduler.submit_task(lambda: self._tune(entry))

    # ------------------------------------------------------------- tuning
    def _tune(self, entry) -> None:
        try:
            with _span("autoplan.online_tune",
                       fingerprint=entry.fingerprint):
                self._tune_inner(entry)
        except Exception:  # noqa: BLE001 - tuning is best effort
            pass
        finally:
            with self._lock:
                self._inflight.discard(entry.fingerprint)

    def _current_seconds(self, entry, current,
                         x: np.ndarray) -> tuple[float, str]:
        """Seconds per sweep for the live configuration: watchdog
        baseline when it has one, direct timing otherwise."""
        if self.watchdog is not None:
            baselines = self.watchdog.report().get("baselines", {})
            b = baselines.get(f"{entry.fingerprint}:{entry.watchdog_key}")
            if b is not None and b.get("mean_gflops", 0.0) > 0:
                flops = _FLOPS_PER_NNZ * entry.nnz
                return flops / (b["mean_gflops"] * 1e9), "watchdog"
        return self._time(current, x), "measured"

    def _time(self, executor, x: np.ndarray) -> float:
        """Best-of-N wall seconds for one executor, or inf when it
        cannot run here (no compiler)."""
        best = float("inf")
        for _ in range(self.iters):
            t0 = time.perf_counter()
            try:
                executor.spmv(x)
            except CBackendUnavailable:
                return float("inf")
            best = min(best, time.perf_counter() - t0)
        return best

    def _neighbors(self, entry, current) -> list:
        """Executors one step from ``current``: the other backend at
        the same thread count, and ×2 / ÷2 threads. Thread steps stop
        at the host's core count (past it, threads only time-slice and
        a "win" is timing noise) and exist only when the entry's
        structure is one the threaded executor accepts."""
        d = current.describe()
        backend, threads = d["backend"], d["exec_threads"]
        steps: list[tuple[str, int]] = []
        if backend != "c" and c_backend_available():
            steps.append(("c", threads))
        if backend != "numpy":
            steps.append(("numpy", threads))
        if threads * 2 <= (os.cpu_count() or 1):
            steps.append((backend, threads * 2))
        if threads > 1:
            steps.append((backend, threads // 2))
        out = []
        for cand_backend, n in steps:
            try:
                out.append(
                    InProcessExecutor(entry.matrix, cand_backend) if n == 1
                    else ThreadedExecutor(entry.matrix, cand_backend, n))
            except ServeError:
                pass    # not a full-extent CSR: threads are not an axis
        return out

    def _tune_inner(self, entry) -> None:
        current = entry.executor
        x = np.random.default_rng(0).standard_normal(entry.ncols)
        t_cur, cur_source = self._current_seconds(entry, current, x)
        timings = {_key(current): t_cur}
        best, t_best = current, t_cur
        for cand in self._neighbors(entry, current):
            t = self._time(cand, x)
            timings[_key(cand)] = t
            if t < t_best:
                best, t_best = cand, t
        promoted = (best is not current and t_best > 0
                    and t_cur / t_best >= self.min_gain
                    and self._promote(entry, best))
        verdict = {
            "fingerprint": entry.fingerprint,
            "current": _key(current),
            "current_source": cur_source,
            "best": _key(best),
            "promoted": promoted,
            "gain": (t_cur / t_best) if t_best > 0 else 0.0,
            "timings": timings,
        }
        _metrics.inc("autoplan.online_promotions",
                     outcome="promoted" if promoted else "kept")
        with self._lock:
            self.history.setdefault(entry.fingerprint, []).append(verdict)

    def _promote(self, entry, best) -> bool:
        """Swap the winning executor into the live entry and record it
        in the plan cache; False when the entry was evicted or replaced
        while candidates were being timed."""
        new_plan = dataclasses.replace(
            entry.plan, backend=best.describe()["backend"])
        if not self.registry.swap(entry, plan=new_plan, executor=best):
            return False
        if self.registry.plan_cache is not None:
            self.registry.plan_cache.store(
                entry.fingerprint, new_plan, autoplan={
                    "source": "online",
                    "label": _key(best),
                    "fmt": entry.matrix.format_name,
                    "confidence": 1.0,
                    "weight": 1.0,
                    "tuning_seconds": 0.0,
                    "features": None,
                    "feature_version": 0,
                    "n_threads": new_plan.n_threads,
                    "shards": 0,
                })
        return True

    # ---------------------------------------------------------- summary
    def describe(self) -> dict:
        with self._lock:
            return {
                "hot_threshold": self.hot_threshold,
                "min_gain": self.min_gain,
                "tracked": len(self._batches),
                "verdicts": sum(len(v) for v in self.history.values()),
                "promotions": sum(
                    1 for vs in self.history.values()
                    for v in vs if v["promoted"]
                ),
            }


__all__ = ["OnlineTuner"]
