#!/usr/bin/env python3
"""Observability smoke test: trace a request across processes.

The CI observe-smoke job runs this end to end, client → router → node:

1. spawn one ``repro cluster node`` subprocess and put an in-process
   :class:`~repro.cluster.ClusterRouter` in front of it,
2. register a suite matrix through the router and fire 50 JSON SpMV
   requests at it, one of which carries an explicit ``X-Repro-Trace``
   header (sampled),
3. assert the header is echoed back, the answers are correct, and the
   node's ``/metrics`` page shows the SLO latency histogram,
4. fetch the router's merged ``/v1/debug/trace/<id>`` and assert the
   span tree has one root, carries the router's ``cluster.request``
   and the node's ``serve.scheduler.enqueue`` / ``serve.batch``, and
   spans at least two processes (router and node), then fetch the same
   trace with ``?format=chrome`` and assert Chrome trace events from
   at least two pids,
5. stop the router and the node cleanly.

Exits 0 on success, 1 (with a traceback) on any failure.

Run: ``PYTHONPATH=src python examples/observe_smoke.py``
"""

import json
import os
import subprocess
import sys
import urllib.request

import numpy as np

from repro.cluster import ClusterRouter
from repro.formats import coo_to_csr
from repro.matrices import generate
from repro.observe import new_trace
from repro.observe.context import TRACE_HEADER

N_REQUESTS = 50
NODE_ARGS = ["cluster", "node", "--port", "0", "--threads", "1",
             "--flush-deadline-ms", "50"]


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


def spawn_node() -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *NODE_ARGS],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True)
    line = proc.stdout.readline().strip()     # "READY host:port"
    if not line.startswith("READY "):
        proc.kill()
        raise RuntimeError(f"node did not come up: {line!r}")
    return proc, line.split(" ", 1)[1]


def main() -> None:
    coo = generate("FEM-Har", scale=0.05, seed=0)
    csr = coo_to_csr(coo)
    rng = np.random.default_rng(0)

    proc, node_addr = spawn_node()
    router = ClusterRouter([node_addr], replication=1,
                           health_interval_s=60.0).start()
    base = f"http://{router.address}"
    print(f"router on {base} in front of node {node_addr} "
          f"(pid {proc.pid})")

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
        print(f"{N_REQUESTS} requests served through the router, "
              f"answers correct, traced {ctx.trace_id}")

        _, metrics = get(f"http://{node_addr}/metrics")
        assert "repro_slo_request_seconds_bucket{" in metrics, \
            "SLO latency histogram missing from the node's /metrics"
        print("node /metrics shows the SLO latency histogram")

        # The merged span tree: one root, the router hop and the
        # node's scheduler/batch spans, from more than one process.
        status, body = get(f"{base}/v1/debug/trace/{ctx.trace_id}")
        tree = json.loads(body)["spans"]
        spans = list(walk(tree))
        names = {s["name"] for s in spans}
        pids = {s["pid"] for s in spans}
        assert len(tree) == 1, f"expected 1 root, got {len(tree)}"
        assert {"cluster.request", "serve.scheduler.enqueue",
                "serve.batch"} <= names, names
        assert len(pids) >= 2, f"expected >=2 pids, got {pids}"
        print(f"merged trace: {len(spans)} spans across "
              f"{len(pids)} processes")

        # The router's Chrome export of the same merged trace.
        _, body = get(f"{base}/v1/debug/trace/{ctx.trace_id}"
                      f"?format=chrome")
        events = json.loads(body)["traceEvents"]
        chrome_pids = {e["pid"] for e in events}
        assert len(chrome_pids) >= 2, \
            f"expected Chrome events from >=2 pids, got {chrome_pids}"
        print(f"router Chrome export: {len(events)} events from "
              f"{len(chrome_pids)} pids")
    finally:
        router.close()
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
        proc.stdout.close()
    print("OK: observe smoke passed")


if __name__ == "__main__":
    main()
