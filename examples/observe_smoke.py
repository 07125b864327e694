#!/usr/bin/env python3
"""Observability smoke test: trace a request across processes.

The CI observe-smoke job runs this end to end:

1. boot the HTTP service over a 2-shard group with every matrix forced
   onto the sharded path,
2. register a suite matrix and fire 50 SpMV requests, one of which
   carries an explicit ``X-Repro-Trace`` header (sampled),
3. assert the header is echoed back, the answers are correct, and the
   merged ``/metrics`` page shows *shard-side* counters — they ride
   home on every shard's compute reply, so no waiting is needed,
4. fetch ``/v1/debug/trace/<id>`` and assert the merged span tree has
   one root spanning the parent process, the scheduler/worker hop, and
   compute spans from both shard children,
5. drain and stop cleanly.

Exits 0 on success, 1 (with a traceback) on any failure.

Run: ``PYTHONPATH=src python examples/observe_smoke.py``
"""

import json
import urllib.request

import numpy as np

from repro.formats import coo_to_csr
from repro.matrices import generate
from repro.observe import new_trace
from repro.observe.context import TRACE_HEADER
from repro.serve import ServeClient, start_server, stop_server

N_REQUESTS = 50


def post(url: str, body: dict, headers: dict | None = None):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers=headers or {},
    )
    with urllib.request.urlopen(req, timeout=30) as r:
        return r.status, dict(r.headers), json.loads(r.read())


def get(url: str):
    with urllib.request.urlopen(url, timeout=30) as r:
        return r.status, r.read().decode()


def walk(nodes):
    for node in nodes:
        yield node
        yield from walk(node["children"])


def main() -> None:
    coo = generate("FEM-Har", scale=0.05, seed=0)
    csr = coo_to_csr(coo)
    rng = np.random.default_rng(0)

    client = ServeClient(
        "AMD X2", shards=2, shard_threshold_bytes=1,
        flush_deadline_s=0.05, trace_sample_rate=0.0,
    )
    httpd = start_server(client, port=0)
    base = f"http://127.0.0.1:{httpd.port}"
    print(f"serving on {base} with 2 shards")

    try:
        _, _, reg = post(f"{base}/v1/matrices",
                         {"generate": "FEM-Har", "scale": 0.05,
                          "seed": 0})
        fp = reg["fingerprint"]
        print(f"registered {fp} nnz={reg['nnz']}")

        # 49 plain requests + 1 carrying an explicit sampled trace
        # context; every answer checked against the local CSR kernel.
        ctx = new_trace(sampled=True)
        traced_at = N_REQUESTS // 2
        for i in range(N_REQUESTS):
            x = rng.standard_normal(coo.ncols)
            headers = (
                {TRACE_HEADER: ctx.to_header()} if i == traced_at
                else None
            )
            _, resp_headers, body = post(
                f"{base}/v1/spmv", {"fingerprint": fp,
                                    "x": x.tolist()}, headers,
            )
            np.testing.assert_allclose(
                np.asarray(body["y"]), csr.spmv(x), rtol=1e-10,
                atol=1e-12,
            )
            if i == traced_at:
                echoed = resp_headers.get(TRACE_HEADER, "")
                assert echoed.startswith(ctx.trace_id + "-"), (
                    f"trace header not echoed: {echoed!r}"
                )
        print(f"{N_REQUESTS} requests served, answers correct, "
              f"traced {ctx.trace_id}")

        # Each shard's compute reply carried its counters home, so both
        # shards' series are on the *parent's* scrape page already.
        _, metrics = get(f"{base}/metrics")
        for shard in (0, 1):
            assert f'repro_dist_child_computes{{shard="{shard}"}}' \
                in metrics, f"shard {shard} counters missing from /metrics"
        assert "repro_slo_request_seconds_bucket{" in metrics, \
            "SLO latency histogram missing from /metrics"
        print("merged /metrics shows both shards' counters")

        # The merged span tree: one root, spans from >1 process,
        # the serve hop and both shards' computes all present.
        status, body = get(f"{base}/v1/debug/trace/{ctx.trace_id}")
        tree = json.loads(body)["spans"]
        spans = list(walk(tree))
        names = {s["name"] for s in spans}
        pids = {s["pid"] for s in spans}
        shard_ids = {
            s["args"].get("shard") for s in spans
            if s["name"] == "shard.compute"
        }
        assert len(tree) == 1, f"expected 1 root, got {len(tree)}"
        assert {"serve.scheduler.enqueue", "serve.batch",
                "shard.compute"} <= names, names
        assert len(pids) >= 3, f"expected >=3 pids, got {pids}"
        assert shard_ids == {0, 1}, (
            f"expected computes from both shards, got {shard_ids}"
        )
        print(f"merged trace: {len(spans)} spans across "
              f"{len(pids)} processes, shards {sorted(shard_ids)}")
    finally:
        stop_server(httpd)
    print("OK: observe smoke passed")


if __name__ == "__main__":
    main()
