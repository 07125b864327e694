"""Transport-layer contracts after the server split.

The satellite fix under test: an oversized ``Content-Length`` must be
rejected with 413 *before* the body is read — the old handler slurped
``rfile.read()`` first and size-checked after, so a hostile client
could make the server buffer an arbitrary body.
"""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.serve import start_server, stop_server
from repro.serve.client import ServeClient
from repro.serve.transport import MAX_BODY_BYTES

from tests.conftest import random_coo


@pytest.fixture
def served():
    client = ServeClient("AMD X2", n_threads=1, max_batch=2)
    httpd = start_server(client, port=0)
    yield httpd
    stop_server(httpd)
    client.close()


def _conn(httpd):
    return http.client.HTTPConnection("127.0.0.1", httpd.port,
                                      timeout=30)


def test_oversized_content_length_rejected_before_read(served):
    """Declare a huge body but send only a sliver: the server must
    answer 413 from the header alone, never blocking on the body."""
    conn = _conn(served)
    conn.putrequest("POST", "/v1/spmv")
    conn.putheader("Content-Type", "application/json")
    conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
    conn.endheaders()
    conn.send(b"{")   # a full body never arrives
    resp = conn.getresponse()
    assert resp.status == 413
    body = json.loads(resp.read())
    assert "exceeds" in body["error"]
    conn.close()


def test_missing_content_length_is_400(served):
    conn = _conn(served)
    conn.putrequest("POST", "/v1/spmv")
    conn.putheader("Content-Type", "application/json")
    conn.endheaders()
    resp = conn.getresponse()
    assert resp.status == 400
    conn.close()


def test_malformed_content_length_is_400(served):
    conn = _conn(served)
    conn.putrequest("POST", "/v1/spmv")
    conn.putheader("Content-Length", "banana")
    conn.endheaders()
    resp = conn.getresponse()
    # a non-numeric length is treated as invalid, not as zero
    assert resp.status in (400, 413)
    conn.close()


def test_normal_request_still_works(served, rng):
    coo = random_coo(20, 20, 0.15, seed=21)
    fp = served.client.register(coo).fingerprint
    x = rng.standard_normal(20)
    conn = _conn(served)
    body = json.dumps({"fingerprint": fp, "x": x.tolist()}).encode()
    conn.request("POST", "/v1/spmv", body,
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    assert resp.status == 200
    y = np.asarray(json.loads(resp.read())["y"])
    assert np.array_equal(y, served.client.spmv(fp, x))
    conn.close()


def test_debug_spans_route(served, rng):
    """The flat span export a cluster router merges from."""
    from repro.observe import context as _context

    coo = random_coo(20, 20, 0.15, seed=22)
    fp = served.client.register(coo).fingerprint
    ctx = _context.new_trace(sampled=True)
    with _context.use(ctx):
        served.client.spmv(fp, rng.standard_normal(20))

    conn = _conn(served)
    conn.request("GET", f"/v1/debug/spans/{ctx.trace_id}")
    resp = conn.getresponse()
    assert resp.status == 200
    events = json.loads(resp.read())["events"]
    assert events
    assert all(e["trace_id"] == ctx.trace_id for e in events)
    assert {"serve.request"} <= {e["name"] for e in events}
    conn.close()
