"""Router end-to-end: 2 in-process nodes, failover, merged traces."""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.cluster import ClusterClient, ClusterNode, ClusterRouter
from repro.dist.fault import RetryPolicy
from repro.errors import ClusterError
from repro.formats import COOMatrix
from repro.observe import context as _context
from repro.serve.client import ServeClient

from tests.conftest import (NONFINITE_COO, NONFINITE_SPMV,
                            assert_same_floats, random_coo)


@pytest.fixture
def cluster():
    """Two nodes + a router; health scans kept slow so tests control
    exactly when a dead node is noticed."""
    nodes = [ClusterNode(machine="AMD X2", n_threads=1,
                         max_batch=4).start()
             for _ in range(2)]
    router = ClusterRouter(
        [n.address for n in nodes], replication=2,
        retry=RetryPolicy(max_retries=3, backoff_s=0.01),
        health_interval_s=60.0).start()
    try:
        yield nodes, router
    finally:
        router.close()
        for n in nodes:
            n.close()


def register_through_router(router, coo):
    body = json.dumps({
        "shape": list(coo.shape),
        "row": coo.row.tolist(),
        "col": coo.col.tolist(),
        "val": coo.val.tolist(),
    }).encode()
    req = urllib.request.Request(
        f"http://{router.address}/v1/matrices", data=body,
        method="POST", headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def test_spmv_through_router_matches_local(cluster, rng):
    nodes, router = cluster
    coo = random_coo(60, 60, 0.08, seed=3)
    x = rng.standard_normal(60)

    with ServeClient("AMD X2", n_threads=1) as local:
        y_ref = local.spmv(local.register(coo).fingerprint, x)

    reply = register_through_router(router, coo)
    assert len(reply["owners"]) == 2       # replication=2, both nodes
    assert reply["failed_owners"] == {}

    with ClusterClient(router.address) as cc:
        y = cc.spmv(reply["fingerprint"], x)
    assert np.array_equal(y, y_ref)        # bit-identical, not approx


def test_json_spmv_through_router(cluster, rng):
    nodes, router = cluster
    coo = random_coo(40, 40, 0.1, seed=4)
    x = rng.standard_normal(40)
    reply = register_through_router(router, coo)

    body = json.dumps({"fingerprint": reply["fingerprint"],
                       "x": x.tolist()}).encode()
    req = urllib.request.Request(
        f"http://{router.address}/v1/spmv", data=body,
        method="POST", headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        y = np.asarray(json.loads(resp.read())["y"])

    with ServeClient("AMD X2", n_threads=1) as local:
        y_ref = local.spmv(local.register(coo).fingerprint, x)
    assert np.array_equal(y, y_ref)


@pytest.mark.parametrize("x,expected", NONFINITE_SPMV)
def test_json_spmv_through_router_keeps_nonfinite_tokens(
        cluster, x, expected):
    nodes, router = cluster
    reply = register_through_router(router, NONFINITE_COO)
    body = json.dumps({"fingerprint": reply["fingerprint"],
                       "x": x}).encode()
    req = urllib.request.Request(
        f"http://{router.address}/v1/spmv", data=body,
        method="POST", headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert_same_floats(json.loads(resp.read())["y"], expected)


def test_infinite_matrix_value_registers_unchanged(cluster):
    """An Infinity in ``val`` reaches every owner as Infinity, so the
    nodes hold the fingerprint the router answered with."""
    nodes, router = cluster
    coo = COOMatrix((2, 2), [0, 1], [0, 1], [float("inf"), 1.0])
    x = np.array([1.0, 2.0])
    with ClusterClient(router.address) as cc:
        fp = cc.register(coo)["fingerprint"]
        assert fp == coo.content_fingerprint()
        assert cc.spmv(fp, x).tolist() == [float("inf"), 2.0]


def test_failover_on_node_death(cluster, rng):
    nodes, router = cluster
    coo = random_coo(50, 50, 0.1, seed=5)
    x = rng.standard_normal(50)
    reply = register_through_router(router, coo)
    fingerprint = reply["fingerprint"]

    # The router walks owners in ring order, so the node that must
    # die for a failover to happen is the *primary* owner — which of
    # the two nodes that is depends on how the ephemeral ports hash.
    primary_addr = router.placement.owners(fingerprint)[0]
    primary = next(n for n in nodes if n.address == primary_addr)

    with ClusterClient(router.address) as cc:
        y_before = cc.spmv(fingerprint, x)
        # Kill the primary. The health interval is 60s, so the router
        # still believes it's up — the very next request must hit the
        # dead socket, count a failover, and serve from the replica.
        from repro.observe.metrics import get_registry
        before = get_registry().counter("cluster.failovers")
        primary.close()
        y_after = cc.spmv(fingerprint, x)
        after = get_registry().counter("cluster.failovers")

    assert np.array_equal(y_before, y_after)
    assert after > before
    assert router._states[primary_addr].up is False


def test_all_replicas_down_is_503(cluster, rng):
    nodes, router = cluster
    coo = random_coo(30, 30, 0.1, seed=6)
    reply = register_through_router(router, coo)
    for n in nodes:
        n.close()
    with ClusterClient(router.address) as cc:
        with pytest.raises(ClusterError) as err:
            cc.spmv(reply["fingerprint"],
                    np.ones(30))
    assert err.value.status == 503


def test_unknown_fingerprint_is_404(cluster):
    nodes, router = cluster
    with ClusterClient(router.address) as cc:
        with pytest.raises(ClusterError) as err:
            cc.spmv("no-such-fingerprint", np.ones(8))
    assert err.value.status == 404


def test_unparseable_trace_is_neither_forwarded_nor_echoed(cluster, rng):
    # 3 Mi two-byte characters fit the inbound header bound as UTF-8
    # but not once JSON-escaped into the forward header: forwarding it
    # would fail the send and mark a healthy node down.
    import socket

    from repro.cluster import wire
    from repro.observe.metrics import get_registry

    nodes, router = cluster
    coo = random_coo(40, 40, 0.1, seed=8)
    fp = register_through_router(router, coo)["fingerprint"]
    x = rng.standard_normal(40)
    header = json.dumps({"fingerprint": fp, "n": 40,
                         "trace": "é" * (3 << 20)},
                        ensure_ascii=False).encode()
    _, view = wire.vector_payload(x)
    preamble = wire._PREAMBLE.pack(wire.MAGIC, wire.VERSION,
                                   wire.KIND_SPMV, len(header),
                                   view.nbytes)
    failovers = get_registry().counter("cluster.failovers")
    with socket.create_connection(("127.0.0.1", router.port),
                                  timeout=10.0) as sock:
        sock.sendall(preamble + header + bytes(view))
        kind, reply, payload = wire.recv_frame(sock)
    assert kind == wire.KIND_RESULT
    assert "trace" not in reply
    assert get_registry().counter("cluster.failovers") == failovers
    assert len(router.live_nodes()) == len(nodes)
    with ClusterClient(router.address) as cc:
        np.testing.assert_array_equal(
            wire.payload_vector(payload, reply["n"]), cc.spmv(fp, x))


def test_merged_trace_spans_router_and_node(cluster, rng):
    nodes, router = cluster
    coo = random_coo(40, 40, 0.1, seed=7)
    x = rng.standard_normal(40)
    reply = register_through_router(router, coo)

    ctx = _context.new_trace(sampled=True)
    with ClusterClient(router.address) as cc:
        with _context.use(ctx):
            cc.spmv(reply["fingerprint"], x)

    with urllib.request.urlopen(
            f"http://{router.address}/v1/debug/trace/{ctx.trace_id}",
            timeout=30) as resp:
        tree = json.loads(resp.read())["spans"]

    def names(spans):
        out = []
        for s in spans:
            out.append(s["name"])
            out.extend(names(s.get("children", [])))
        return out

    all_names = names(tree)
    # one merged tree: router spans AND the node's serve span in it
    assert "cluster.request" in all_names
    assert "cluster.forward" in all_names
    assert "serve.request" in all_names
    forward = next(s for s in _walk(tree)
                   if s["name"] == "cluster.forward")
    child_names = [c["name"] for c in forward.get("children", [])]
    assert "serve.request" in child_names


def test_router_and_node_answer_chrome_format(cluster, rng):
    """``?format=chrome`` is Chrome trace-event JSON on a router as on
    a node; without the query both keep the nested tree."""
    nodes, router = cluster
    coo = random_coo(40, 40, 0.1, seed=8)
    fp = register_through_router(router, coo)["fingerprint"]
    ctx = _context.new_trace(sampled=True)
    with ClusterClient(router.address) as cc:
        with _context.use(ctx):
            cc.spmv(fp, rng.standard_normal(40))

    def fetch(address: str, query: str = "") -> dict:
        with urllib.request.urlopen(
                f"http://{address}/v1/debug/trace/{ctx.trace_id}{query}",
                timeout=30) as resp:
            return json.loads(resp.read())

    owner = router.placement.owners(fp)[0]
    for address in (router.address, owner):
        doc = fetch(address, "?format=chrome")
        assert set(doc) == {"traceEvents", "displayTimeUnit"}, address
        names = {e["name"] for e in doc["traceEvents"]}
        assert "serve.request" in names, address
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert set(fetch(address)) == {"trace_id", "spans"}, address
    assert "cluster.forward" in {
        e["name"] for e in fetch(router.address,
                                 "?format=chrome")["traceEvents"]}


def _walk(spans):
    for s in spans:
        yield s
        yield from _walk(s.get("children", []))


def test_router_healthz_and_metrics(cluster):
    nodes, router = cluster
    with urllib.request.urlopen(
            f"http://{router.address}/healthz", timeout=30) as resp:
        desc = json.loads(resp.read())
    assert desc["role"] == "router"
    assert set(desc["nodes"]) == {n.address for n in nodes}

    with urllib.request.urlopen(
            f"http://{router.address}/metrics", timeout=30) as resp:
        text = resp.read().decode()
    assert "cluster_nodes_up" in text
