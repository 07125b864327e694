#!/usr/bin/env python3
"""Online kernel autotuning under live serve traffic.

The matrix registers through the plain *heuristic* path — no tuning
sweep, no learned predictor — with the conservative NumPy backend. The
service then receives a stream of SpMV requests; once the matrix is
hot (``online_hot_threshold`` batches), the :class:`OnlineTuner`
times the entry's executor against its backend / thread-count
neighbors *in the background*, seeded from the roofline watchdog's
live GFLOP/s baseline, and swaps the measured winner into the live
entry (``entry.executor``) and the plan cache.

Watch for: the executor's backend flipping ``numpy → c`` (when a compiler
is present) without any registration-time sweep, the
``autoplan.online_promotions{outcome=...}`` counter, and the per-batch
latency dropping mid-stream.

Run: ``python examples/online_tuning_demo.py``
"""

import time

import numpy as np

from repro.formats.coo import COOMatrix
from repro.kernels.cbackend import c_backend_available
from repro.observe import metrics
from repro.serve.client import ServeClient

HOT_THRESHOLD = 16      #: batches before the first background tune
N_REQUESTS = 120
M = N = 20_000
NNZ = 400_000


def _execution(entry) -> str:
    d = entry.executor.describe()
    return f"backend={d['backend']} threads={d['exec_threads']}"


def main() -> None:
    rng = np.random.default_rng(42)
    coo = COOMatrix(
        (M, N),
        rng.integers(0, M, NNZ),
        rng.integers(0, N, NNZ),
        rng.standard_normal(NNZ),
    )
    client = ServeClient(
        "Clovertown",
        n_threads=1,            # single part → threaded path is open
        backend="numpy",        # deliberately conservative start
        plan_mode="heuristic",  # NO sweep at registration
        perf_watch=True,        # watchdog feeds the tuner's baseline
        online_tune=True,
        online_hot_threshold=HOT_THRESHOLD,
        max_batch=1,
        flush_deadline_s=0.0,
    )
    entry = client.register(coo)
    fp = entry.fingerprint
    print(f"registered {M}x{N}, {NNZ:,} nnz via plan_path="
          f"{entry.plan_path!r}")
    start = entry.executor
    print(f"  start: {_execution(entry)} "
          f"(compiler {'present' if c_backend_available() else 'absent'})")

    x = rng.standard_normal(N)
    window: list[float] = []
    promoted_at = None
    for i in range(1, N_REQUESTS + 1):
        t0 = time.perf_counter()
        client.spmv(fp, x)
        window.append(time.perf_counter() - t0)
        if promoted_at is None and entry.executor is not start:
            promoted_at = i
        if i % 20 == 0:
            mean_ms = 1e3 * sum(window) / len(window)
            print(f"  req {i:4d}: mean latency {mean_ms:7.3f} ms  "
                  f"[{_execution(entry)}]")
            window.clear()
    client.drain()

    print()
    if promoted_at is not None:
        print(f"promotion observed at request #{promoted_at}: "
              f"{_execution(entry)}")
    else:
        print("no promotion: the starting configuration measured best "
              "on this host (expected without a C compiler)")
    for verdicts in client.online_tuner.history.values():
        for v in verdicts:
            print(f"  verdict: {v['current']} -> {v['best']} "
                  f"gain={v['gain']:.2f}x "
                  f"promoted={v['promoted']} "
                  f"(current cost via {v['current_source']})")
    promo_lines = [
        line for line in metrics.render_prometheus().splitlines()
        if "online_promotions" in line and not line.startswith("#")
    ]
    print("counters:", *promo_lines or ["(none)"])
    client.close()


if __name__ == "__main__":
    main()
