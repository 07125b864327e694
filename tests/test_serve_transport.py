"""HTTP framing contracts of the front end behind ``start_server``.

An oversized ``Content-Length`` must be rejected with 413 *before* the
body is read, so a hostile client cannot make the server buffer an
arbitrary body; header names are case-insensitive; and a client that
sent ``Expect: 100-continue`` is told to go ahead instead of being left
to its expect timeout (1 s in curl, which sends the header on its own
for bodies over 1 MB).
"""

from __future__ import annotations

import http.client
import json
import socket
import time

import numpy as np
import pytest

from repro.serve import start_server, stop_server
from repro.serve.client import ServeClient
from repro.serve.transport import MAX_BODY_BYTES

from tests.conftest import (NONFINITE_COO, NONFINITE_SPMV,
                            assert_same_floats, random_coo)


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


@pytest.mark.parametrize("x,expected", NONFINITE_SPMV)
def test_nonfinite_values_keep_their_tokens(served, x, expected):
    """``NaN``/``Infinity`` in x are accepted, and a non-finite y comes
    back as those tokens, never as ``null``."""
    fp = served.client.register(NONFINITE_COO).fingerprint
    conn = _conn(served)
    conn.request("POST", "/v1/spmv",
                 json.dumps({"fingerprint": fp, "x": x}).encode(),
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    assert resp.status == 200
    assert_same_floats(json.loads(resp.read())["y"], expected)
    conn.close()


def _spmv_body(served, rng, seed):
    coo = random_coo(20, 20, 0.15, seed=seed)
    fp = served.client.register(coo).fingerprint
    x = rng.standard_normal(20)
    body = json.dumps({"fingerprint": fp, "x": x.tolist()}).encode()
    return body, served.client.spmv(fp, x)


def _read_response(sock) -> tuple[bytes, bytes]:
    """Read one response off a raw socket: (head, body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            while len(body) < int(value):
                chunk = sock.recv(65536)
                assert chunk, "connection closed mid-body"
                body += chunk
    return head, body


def test_expect_100_continue_is_answered_before_the_body(served, rng):
    body, expected = _spmv_body(served, rng, seed=23)
    with socket.create_connection(("127.0.0.1", served.port),
                                  timeout=5) as sock:
        t0 = time.perf_counter()
        sock.sendall(b"POST /v1/spmv HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: %d\r\n"
                     b"Expect: 100-continue\r\n\r\n" % len(body))
        # The body is held back, as curl does: only the interim
        # response can release it.
        interim, rest = _read_response(sock)
        assert time.perf_counter() - t0 < 0.2
        assert interim == b"HTTP/1.1 100 Continue" and rest == b""
        sock.sendall(body)
        head, payload = _read_response(sock)
    assert head.startswith(b"HTTP/1.1 200 ")
    assert np.array_equal(np.asarray(json.loads(payload)["y"]), expected)


def test_expect_with_oversized_length_gets_413_and_no_100(served):
    with socket.create_connection(("127.0.0.1", served.port),
                                  timeout=5) as sock:
        sock.sendall(b"POST /v1/spmv HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: %d\r\n"
                     b"Expect: 100-continue\r\n\r\n"
                     % (MAX_BODY_BYTES + 1))
        data = b""
        while chunk := sock.recv(65536):   # server closes after 413
            data += chunk
    assert data.startswith(b"HTTP/1.1 413 ")
    assert b"100 Continue" not in data


def test_lowercase_header_names(served, rng):
    """What most non-Python HTTP stacks (and HTTP/2 gateways) emit."""
    body, expected = _spmv_body(served, rng, seed=24)
    with socket.create_connection(("127.0.0.1", served.port),
                                  timeout=5) as sock:
        sock.sendall(b"POST /v1/spmv HTTP/1.1\r\nhost: t\r\n"
                     b"content-type: application/json\r\n"
                     b"content-length: %d\r\n"
                     b"connection: close\r\n\r\n" % len(body) + body)
        head, payload = _read_response(sock)
    assert head.startswith(b"HTTP/1.1 200 ")
    assert b"Connection: close" in head
    assert np.array_equal(np.asarray(json.loads(payload)["y"]), expected)


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
