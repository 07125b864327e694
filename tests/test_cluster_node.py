"""The node's wire path: an SPMV frame runs on a handler thread through
the synchronous entry (``ServeClient.spmv``), never on the event loop,
and every frame gets an answer.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.cluster import AsyncFrontEnd, ClusterClient, ClusterNode
from repro.cluster import wire
from repro.kernels.reference import spmv_reference
from repro.observe.metrics import get_registry
from repro.serve import ServeClient

from tests.conftest import random_coo

LOOP_THREAD = "cluster-node-loop"


def batches() -> float:
    return get_registry().counter("serve.batches")


@pytest.fixture
def served():
    """A node over a client whose flusher would hold a queued request
    for 5 s, with one registered matrix."""
    coo = random_coo(300, 300, 0.03, seed=4)
    client = ServeClient(machine="AMD X2", flush_deadline_s=5.0)
    node = ClusterNode(client).start()
    try:
        yield node, client, coo, client.register(coo)
    finally:
        node.close()
        client.close()


class TestLoneWireRequest:
    def test_never_waits_for_the_flusher(self, served, rng):
        node, client, coo, entry = served
        x = rng.standard_normal(coo.ncols)
        with ClusterClient(node.address) as cc:
            cc.spmv(entry.fingerprint, x)      # connect outside the clock
            t0 = time.perf_counter()
            y = cc.spmv(entry.fingerprint, x)
            elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"lone wire request took {elapsed:.2f} s"
        np.testing.assert_array_equal(y, client.spmv(entry.fingerprint, x))
        np.testing.assert_allclose(y, spmv_reference(coo, x),
                                   rtol=0, atol=1e-12)

    def test_runs_on_a_handler_thread(self, served, rng, kernel_seam):
        node, client, coo, entry = served
        rec = kernel_seam.watch(entry.matrix)
        with ClusterClient(node.address) as cc:
            for _ in range(3):
                cc.spmv(entry.fingerprint, rng.standard_normal(coo.ncols))
        assert len(rec.calls) == 3
        for name, k in rec.calls:
            assert k == 1
            assert name.startswith("cluster-node_"), name
            assert name != LOOP_THREAD

    def test_reply_y_is_a_private_writable_vector(self, served, rng):
        node, client, coo, entry = served
        x = rng.standard_normal(coo.ncols)
        with ClusterClient(node.address) as cc:
            y1 = cc.spmv(entry.fingerprint, x)
            expected = y1.copy()
            y2 = cc.spmv(entry.fingerprint, 2 * x)
            y1[:] = 0.0
        assert not np.shares_memory(y1, y2)
        np.testing.assert_array_equal(y2, 2 * expected)


class TestCoalescingUnderConcurrency:
    def test_concurrent_wire_clients_share_batches(self, rng,
                                                   kernel_seam):
        coo = random_coo(400, 400, 0.02, seed=9)
        client = ServeClient(machine="AMD X2")
        node = ClusterNode(client).start()
        n_clients, rounds = 8, 3
        xs = [[rng.standard_normal(coo.ncols) for _ in range(rounds)]
              for _ in range(n_clients)]
        try:
            entry = client.register(coo)
            fp = entry.fingerprint
            lone = [[client.spmv(fp, x) for x in row] for row in xs]
            rec = kernel_seam.watch(entry.matrix, delay_s=0.05)
            ys: list[list] = [[] for _ in range(n_clients)]
            errors: list[BaseException] = []
            start = threading.Barrier(n_clients)

            def run(i: int) -> None:
                try:
                    with ClusterClient(node.address) as cc:
                        cc.ping()
                        start.wait(10.0)
                        for x in xs[i]:
                            ys[i].append(cc.spmv(fp, x))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            before = batches()
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            client.drain()
            n_requests = n_clients * rounds
            assert batches() - before < n_requests
            assert sum(k for _, k in rec.calls) == n_requests
            assert any(k > 1 for _, k in rec.calls)
            assert all(name != LOOP_THREAD for name, _ in rec.calls)
            for got, want in zip(ys, lone):
                for y, y_lone in zip(got, want):
                    np.testing.assert_array_equal(y, y_lone)
        finally:
            node.close()
            client.close()


class TestEveryFrameIsAnswered:
    def test_unencodable_reply_becomes_an_error_frame(self):
        # A header past the 16 MiB bound cannot be framed. Whether the
        # app answers at once or through a future, the client must get
        # an ERROR frame, not silence until its timeout.
        huge = {"junk": "j" * (wire.MAX_HEADER_BYTES + 1)}

        class App:
            def handle_frame(self, kind, header, payload):
                if header.get("later"):
                    fut: Future = Future()
                    threading.Timer(
                        0.01, fut.set_result,
                        ((wire.KIND_RESULT, huge, b""),)).start()
                    return fut
                return (wire.KIND_RESULT, huge, b"")

        front = AsyncFrontEnd(App()).start()
        try:
            with socket.create_connection(("127.0.0.1", front.port),
                                          timeout=5.0) as sock:
                for later in (False, True):
                    wire.send_frame(sock, wire.KIND_SPMV,
                                    {"later": later})
                    kind, reply, _ = wire.recv_frame(sock)
                    assert kind == wire.KIND_ERROR
                    assert "exceeds" in reply["error"]
                    assert reply["status"] == 400
        finally:
            front.close()

    def test_unparseable_trace_is_not_echoed(self, served, rng):
        # 7 Mi two-byte characters: 14 MiB of UTF-8, inside the header
        # bound, but 44 MB once JSON-escaped into a reply header.
        node, client, coo, entry = served
        x = rng.standard_normal(coo.ncols)
        header = json.dumps({"fingerprint": entry.fingerprint,
                             "n": coo.ncols, "trace": "é" * (7 << 20)},
                            ensure_ascii=False).encode()
        assert len(header) <= wire.MAX_HEADER_BYTES
        _, view = wire.vector_payload(x)
        preamble = wire._PREAMBLE.pack(wire.MAGIC, wire.VERSION,
                                       wire.KIND_SPMV, len(header),
                                       view.nbytes)
        with socket.create_connection(("127.0.0.1", node.port),
                                      timeout=5.0) as sock:
            sock.sendall(preamble + header)
            sock.sendall(view)
            kind, reply, payload = wire.recv_frame(sock)
        assert kind == wire.KIND_RESULT
        assert "trace" not in reply
        np.testing.assert_array_equal(
            wire.payload_vector(payload, reply["n"]),
            client.spmv(entry.fingerprint, x))
