#!/usr/bin/env python3
"""Performance-observability smoke test: ceilings → attribution →
watchdog, end to end on whatever machine runs it.

The CI perf-smoke job runs this:

1. measure the runner's machine ceilings with a small STREAM-style
   suite (no cache file — CI runners are ephemeral),
2. boot the HTTP service with perf-watch on,
3. register a small suite of matrices and fire SpMV requests at each;
   assert ``/metrics`` shows ``perf.gflops`` and
   ``perf.roofline_fraction`` series for every served format/backend
   pair and that every observed roofline fraction is finite and in
   (0, 1.5],
4. fetch ``GET /v1/debug/perf`` and assert the ceilings envelope and
   per-matrix fraction EWMAs are reported,
5. throttle the in-process kernel (a sleep-injected wrapper around
   the ``spmv_backend`` a served batch calls) and assert the sustained
   slowdown trips the watchdog: ``perf.regressions`` increments and
   the event names the regressed matrix.

Exits 0 on success, 1 (with a traceback) on any failure.

Run: ``PYTHONPATH=src python examples/perf_smoke.py``
"""

import json
import math
import time
import urllib.request

import numpy as np

from repro.matrices import generate
from repro.observe.perf import measure_ceilings
from repro.observe.perf.attribution import format_label
from repro.serve import ServeClient, start_server, stop_server
from repro.serve import scheduler

SUITE = ["Dense", "FEM-Har", "Epidem"]
N_REQUESTS = 12


def post(url: str, body: dict):
    req = urllib.request.Request(url, data=json.dumps(body).encode())
    with urllib.request.urlopen(req, timeout=30) as r:
        return r.status, json.loads(r.read())


def get(url: str):
    with urllib.request.urlopen(url, timeout=30) as r:
        return r.status, r.read().decode()


def main() -> None:
    # 1. measure this runner's ceilings: small buffers, one repeat —
    # the smoke test checks plumbing, not bandwidth precision.
    ceilings = measure_ceilings(mb=8, repeats=2, probe_spmv=False)
    print(f"ceilings: {ceilings.sustained_gbs:.1f} GB/s sustained, "
          f"{ceilings.peak_gflops:.1f} Gflop/s peak "
          f"({ceilings.n_cores} cores)")
    assert ceilings.sustained_gbs > 0 and ceilings.peak_gflops > 0

    client = ServeClient(flush_deadline_s=0.05, perf_watch=ceilings)
    httpd = start_server(client, port=0)
    base = f"http://127.0.0.1:{httpd.port}"
    print(f"serving on {base}, perf-watch on")

    try:
        rng = np.random.default_rng(0)
        fps, ncols = {}, {}
        for name in SUITE:
            ncols[name] = generate(name, scale=0.05, seed=0).ncols
            _, reg = post(f"{base}/v1/matrices",
                          {"generate": name, "scale": 0.05, "seed": 0})
            fps[name] = reg["fingerprint"]
        for name in SUITE:
            for _ in range(N_REQUESTS):
                x = rng.standard_normal(ncols[name])
                post(f"{base}/v1/spmv",
                     {"fingerprint": fps[name], "x": x.tolist()})
        print(f"{len(SUITE) * N_REQUESTS} requests served")

        # 3. roofline series per served format/backend: the kernel
        # call records them before the request returns
        _, metrics = get(f"{base}/metrics")
        served = set()
        for fp in fps.values():
            entry = client.registry.get(fp)
            served.add((format_label(entry.matrix), entry.plan.backend))
        for fmt, backend in sorted(served):
            labels = f'backend="{backend}",format="{fmt}"'
            for name in ("repro_perf_gflops_bucket",
                         "repro_perf_roofline_fraction_bucket"):
                assert f"{name}{{{labels}" in metrics, (
                    f"{name} has no {labels} series")
        print(f"/metrics shows roofline series for "
              f"{', '.join(f'{f}/{b}' for f, b in sorted(served))}")

        # every recorded fraction is finite and physically plausible:
        # the compulsory-traffic model allows >1.0 only for
        # cache-resident reuse, bounded well under 1.5.
        fractions = [
            v for key, v in client.watchdog.fractions().items()
            if v == v
        ]
        assert fractions, "watchdog saw no roofline fractions"
        for frac in fractions:
            assert math.isfinite(frac) and 0.0 < frac <= 1.5, (
                f"implausible roofline fraction {frac}")
        print(f"{len(fractions)} matrix/plan fraction EWMAs, all in "
              f"(0, 1.5]: max {max(fractions):.3f}")

        # 4. the debug endpoint carries the ceilings + fractions
        _, body = get(f"{base}/v1/debug/perf")
        rpt = json.loads(body)
        assert rpt["perf_watch"] is True
        assert rpt["ceilings"]["copy_gbs_single"] > 0
        assert rpt["host"]["n_cores"] == ceilings.n_cores
        assert rpt["top_fractions"], "no per-matrix fractions reported"
        print("GET /v1/debug/perf reports ceilings + fractions")

        # 5. sleep-injected kernel wrapper around the kernel entry a
        # served batch calls — the sustained slowdown must trip the
        # watchdog within a handful of requests.
        wd = client.watchdog
        wd.min_samples, wd.sustain = 3, 2
        real_spmv = scheduler.spmv_backend

        def throttled(matrix, x, y=None, *, backend="numpy"):
            time.sleep(0.05)
            return real_spmv(matrix, x, y, backend=backend)

        name = SUITE[0]
        n_before = len(wd.events)
        scheduler.spmv_backend = throttled
        try:
            for _ in range(8):
                x = rng.standard_normal(ncols[name])
                post(f"{base}/v1/spmv",
                     {"fingerprint": fps[name], "x": x.tolist()})
                if len(wd.events) > n_before:
                    break
        finally:
            scheduler.spmv_backend = real_spmv
        fired = [e for e in wd.events[n_before:]
                 if e.fingerprint == fps[name]]
        assert fired, "throttled backend never tripped the watchdog"
        event = fired[-1]
        _, body = get(f"{base}/v1/debug/perf")
        rpt = json.loads(body)
        assert rpt["regressions"] >= 1
        print(f"watchdog fired: {event.key} "
              f"{event.baseline_gflops:.3f} -> "
              f"{event.observed_gflops:.3f} Gflop/s "
              f"({event.drop_fraction:.0%} drop)")
        print("PERF SMOKE OK")
    finally:
        stop_server(httpd)
        client.close()


if __name__ == "__main__":
    main()
