#!/usr/bin/env python3
"""Serve smoke test: boot the SpMV service, exercise it, drain it.

The CI serve-smoke job runs this end to end:

1. start the HTTP service on an ephemeral port with an on-disk plan
   cache,
2. register a suite matrix over HTTP (tune + materialize),
3. fire concurrent batched SpMV requests through the in-process client
   and verify coalescing happened (fewer ``serve.batches`` than
   requests) and every answer is correct,
4. POST once on a raw socket the way curl sends a large body —
   lowercase header names, ``Expect: 100-continue``, body held back
   until the interim response — and require ``200`` within 0.5 s,
5. check ``/healthz`` and ``/metrics``,
6. re-register in a second client to prove the persistent plan cache
   hit, then drain and stop cleanly.

Exits 0 on success, 1 (with a traceback) on any failure.

Run: ``PYTHONPATH=src python examples/serve_smoke.py``
"""

import json
import socket
import tempfile
import time
import urllib.request

import numpy as np

from repro.matrices import generate
from repro.observe.metrics import get_registry
from repro.serve import ServeClient, start_server, stop_server

BATCH = 4


def http_json(url: str, body: dict | None = None) -> dict:
    req = urllib.request.Request(
        url, data=None if body is None else json.dumps(body).encode()
    )
    with urllib.request.urlopen(req, timeout=30) as r:
        return r.status, r.read().decode()


def curl_style_post(port: int, path: str, body: bytes):
    """POST with lowercase headers and ``Expect: 100-continue``: the
    body is sent on ``100 Continue`` or, like curl, after a 1 s expect
    timeout. Returns (status, response body, seconds)."""
    t0 = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(f"POST {path} HTTP/1.1\r\nhost: smoke\r\n"
                  f"content-type: application/json\r\n"
                  f"content-length: {len(body)}\r\n"
                  f"expect: 100-continue\r\n"
                  f"connection: close\r\n\r\n".encode())
        s.settimeout(1.0)
        data = b""
        try:
            while b"\r\n\r\n" not in data:
                data += s.recv(65536)
        except socket.timeout:
            pass
        if data.startswith(b"HTTP/1.1 100 "):
            data = data.partition(b"\r\n\r\n")[2]
        s.settimeout(30)
        s.sendall(body)
        while chunk := s.recv(65536):      # server closes when done
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    return (int(head.split()[1]), payload.decode(),
            time.perf_counter() - t0)


def main() -> None:
    reg = get_registry()
    coo = generate("FEM-Har", scale=0.05, seed=0)
    rng = np.random.default_rng(0)

    with tempfile.TemporaryDirectory() as plan_dir:
        client = ServeClient(
            "AMD X2", plan_cache_dir=plan_dir, max_batch=BATCH,
            flush_deadline_s=0.05,
        )
        httpd = start_server(client, port=0)
        base = f"http://127.0.0.1:{httpd.port}"
        print(f"serving on {base}, plan cache in {plan_dir}")

        # Register over HTTP by generator name.
        status, body = http_json(
            f"{base}/v1/matrices",
            {"generate": "FEM-Har", "scale": 0.05, "seed": 0},
        )
        assert status == 200, body
        fp = json.loads(body)["fingerprint"]
        print(f"registered {fp} ({coo.nnz_logical:,} nnz)")

        # Concurrent requests coalesce into one SpMM batch.
        k0 = reg.counter("serve.batches")
        xs = [rng.standard_normal(coo.ncols) for _ in range(BATCH)]
        futures = [client.submit(fp, x) for x in xs]
        ys = [f.result(timeout=30) for f in futures]
        batches = reg.counter("serve.batches") - k0
        dense = coo.toarray()
        for x, y in zip(xs, ys):
            np.testing.assert_allclose(y, dense @ x, rtol=1e-9,
                                       atol=1e-12)
        assert batches < BATCH, f"no coalescing: {batches} batches"
        print(f"{BATCH} concurrent requests -> {batches:g} batch(es), "
              f"all results verified")

        # One more over HTTP for the route itself.
        x = rng.standard_normal(coo.ncols)
        status, body = http_json(
            f"{base}/v1/spmv", {"fingerprint": fp, "x": x.tolist()}
        )
        assert status == 200
        np.testing.assert_allclose(
            np.asarray(json.loads(body)["y"]), dense @ x,
            rtol=1e-9, atol=1e-12,
        )

        # And once the way curl users hit it.
        status, body, seconds = curl_style_post(
            httpd.port, "/v1/spmv",
            json.dumps({"fingerprint": fp, "x": x.tolist()}).encode())
        assert status == 200, body
        assert seconds < 0.5, f"Expect: 100-continue stalled {seconds:.2f}s"
        np.testing.assert_allclose(
            np.asarray(json.loads(body)["y"]), dense @ x,
            rtol=1e-9, atol=1e-12,
        )
        print(f"curl-style POST (lowercase headers, Expect) ok in "
              f"{seconds * 1e3:.0f} ms")

        status, body = http_json(f"{base}/healthz")
        health = json.loads(body)
        assert status == 200 and health["status"] == "ok", health
        assert health["matrices"] == 1
        print(f"healthz ok: {health['matrices']} matrix, "
              f"queue depth {health['queued']}")

        status, metrics = http_json(f"{base}/metrics")
        assert status == 200
        assert "# TYPE repro_serve_batches counter" in metrics
        print(f"metrics ok: {len(metrics.splitlines())} exposition lines")

        stop_server(httpd)          # graceful drain
        client.close()
        assert client.describe()["status"] == "closed"

        # A fresh client on the same machine hits the persistent cache.
        with ServeClient("AMD X2", plan_cache_dir=plan_dir) as second:
            entry = second.register(coo)
            assert entry.from_plan_cache, "expected a plan-cache hit"
            print("second client: plan-cache hit, no re-tuning")

    print("serve smoke: OK")


if __name__ == "__main__":
    main()
