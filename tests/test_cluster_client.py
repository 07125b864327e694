"""Client lifecycle contracts: close() is idempotent everywhere.

The serving tier now has two client classes (``ServeClient``,
``ClusterClient``); both follow the same context-manager protocol:
``close()`` twice is a no-op, and any operation after ``close()``
raises a clear error instead of hanging on a dead resource; a
constructor that rejects an argument leaves nothing running. Also the
only tests of the same-host shared-memory handoff.
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterClient, ClusterNode, wire
from repro.cluster.bench import banded_matrix
from repro.cluster.client import http_fetch
from repro.errors import ClusterError, ReproError, ServeError
from repro.observe.metrics import get_registry
from repro.serve.client import ServeClient
from repro.serve.scheduler import BatchScheduler

from tests.conftest import random_coo


@pytest.fixture
def node():
    n = ClusterNode(machine="AMD X2", n_threads=1, max_batch=2).start()
    yield n
    n.close()


class TestServeClientClose:
    def test_close_is_idempotent(self):
        """Regression: double ``close()`` must be a no-op, not an
        error or a hang on already-joined workers."""
        client = ServeClient("AMD X2", n_threads=1)
        client.close()
        client.close()

    def test_context_manager_then_close(self):
        with ServeClient("AMD X2", n_threads=1) as client:
            pass
        client.close()  # after __exit__ already closed it

    @pytest.mark.parametrize("bad", [
        {"trace_sample_rate": 2.0},
        {"max_batch": 0},
        {"flush_deadline_s": -1.0},
        {"max_queue": -1},
        {"plan_mode": "no-such-mode"},
        {"max_queue": -1, "profile_dir": "profiles"},
        # "auto" trains from and stores its model in the plan cache
        {"plan_mode": "auto", "plan_cache_dir": None},
    ], ids=lambda kw: ",".join(kw))
    def test_rejected_argument_leaks_nothing(self, bad, tmp_path,
                                             monkeypatch):
        """Regression: the argument checks ran after the worker pool
        (and, with ``profile_dir=``, the stack sampler) had started,
        so every rejected constructor left its threads behind. No
        constructor starts a child process."""
        monkeypatch.chdir(tmp_path)     # profile_dir is relative
        threads = threading.active_count()
        children = len(multiprocessing.active_children())
        with pytest.raises(ReproError):
            ServeClient("AMD X2", n_threads=1, **bad)
        assert threading.active_count() == threads
        assert len(multiprocessing.active_children()) == children

    def test_drain_timeout_still_stops_the_workers(self, monkeypatch,
                                                   kernel_seam):
        """Regression: a drain that timed out raised out of ``close()``
        before the pool was shut down, and the closed flag made every
        later ``close()`` a no-op, so the workers outlived the client."""
        before = set(threading.enumerate())
        client = ServeClient("AMD X2", n_threads=1)
        workers = [t for t in set(threading.enumerate()) - before
                   if t.name.startswith("serve-worker-")]
        assert workers
        entry = client.register(banded_matrix(64))
        kernel_seam.watch(entry.matrix, hold=True)
        fut = client.submit(entry.fingerprint, np.ones(64))
        monkeypatch.setattr(client.scheduler, "drain", functools.partial(
            BatchScheduler.drain, client.scheduler, timeout=0.2))
        try:
            with pytest.raises(ServeError, match="drain timed out"):
                client.close()
            client.close()          # a no-op, not a second timeout
        finally:
            kernel_seam.release()
        fut.result(timeout=10)
        deadline = time.monotonic() + 5.0
        for t in workers:
            t.join(timeout=max(deadline - time.monotonic(), 0.0))
        assert not [t.name for t in workers if t.is_alive()]


class TestSharedMemoryHandoff:
    """``ClusterClient(shm=True)``: a same-host request names two
    segments instead of carrying its vectors."""

    N = 4096

    @pytest.fixture
    def shm_client(self, node):
        with ClusterClient(node.address, shm=True) as cs:
            fp = cs.register(banded_matrix(self.N))["fingerprint"]
            yield cs, fp

    @staticmethod
    def _wire_bytes_in(call) -> float:
        reg = get_registry()
        before = reg.counter("cluster.wire_bytes", dir="in")
        call()
        return reg.counter("cluster.wire_bytes", dir="in") - before

    def test_shm_inline_and_json_agree(self, node, shm_client, rng):
        cs, fp = shm_client
        x = rng.standard_normal(self.N)
        y_shm = cs.spmv(fp, x)
        with ClusterClient(node.address) as cc:
            y_wire = cc.spmv(fp, x)
        y_json = np.asarray(http_fetch(
            f"http://{node.address}/v1/spmv", method="POST",
            body={"fingerprint": fp, "x": x.tolist()})["y"])
        assert fp in cs._segments       # the handoff really ran
        assert np.array_equal(y_shm, y_wire)
        assert np.array_equal(y_shm, y_json)

    def test_vectors_stay_off_the_socket(self, node, shm_client, rng):
        cs, fp = shm_client
        x = rng.standard_normal(self.N)
        with ClusterClient(node.address) as cc:
            cs.spmv(fp, x)      # first calls connect and map segments
            cc.spmv(fp, x)
            shm = self._wire_bytes_in(lambda: cs.spmv(fp, x))
            inline = self._wire_bytes_in(lambda: cc.spmv(fp, x))
        assert 0 < shm < 1024
        assert inline >= 8 * self.N

    def test_node_that_cannot_attach_gets_the_vector_inline(
            self, node, shm_client, rng):
        cs, fp = shm_client
        x = rng.standard_normal(self.N)
        expected = cs.spmv(fp, x)
        x_view, x_spec, y_view, y_spec = cs._segments[fp]
        missing = dataclasses.replace(x_spec, name="repro-dist-0-0")
        # what the node answers: its failure (>= 500), not the request's
        kind, reply, _ = cs._roundtrip(wire.KIND_SPMV, {
            "fingerprint": fp, "shm_x": dataclasses.asdict(missing)})
        assert kind == wire.KIND_ERROR and reply["status"] >= 500
        cs._segments[fp] = (x_view, missing, y_view, y_spec)
        inline = self._wire_bytes_in(
            lambda: np.testing.assert_array_equal(cs.spmv(fp, x),
                                                  expected))
        assert inline >= 8 * self.N     # refused handoff + inline resend
        assert fp not in cs._segments   # fresh segments on the next call
        assert np.array_equal(cs.spmv(fp, x), expected)

    def test_close_unlinks_every_segment(self, node):
        before = set(glob.glob("/dev/shm/repro-*"))
        with ClusterClient(node.address, shm=True) as cs:
            fp = cs.register(banded_matrix(256))["fingerprint"]
            cs.spmv(fp, np.ones(256))
            assert set(glob.glob("/dev/shm/repro-*")) - before
        assert set(glob.glob("/dev/shm/repro-*")) == before


class TestClusterClientLifecycle:
    def test_context_manager_protocol(self, node, rng):
        coo = random_coo(24, 24, 0.1, seed=11)
        fp = node.client.register(coo).fingerprint
        x = rng.standard_normal(24)
        with ClusterClient(node.address) as cc:
            y = cc.spmv(fp, x)
        assert np.array_equal(y, node.client.spmv(fp, x))

    def test_double_close_is_noop(self, node):
        cc = ClusterClient(node.address)
        cc.close()
        cc.close()

    def test_use_after_close_raises(self, node):
        cc = ClusterClient(node.address)
        cc.close()
        with pytest.raises(ClusterError, match="closed"):
            cc.spmv("whatever", np.ones(4))
        with pytest.raises(ClusterError, match="closed"):
            cc.ping()
        with pytest.raises(ClusterError, match="closed"):
            cc.healthz()

    def test_close_inside_with_block_is_safe(self, node):
        with ClusterClient(node.address) as cc:
            cc.close()   # __exit__ will close again: still a no-op

    def test_bad_address_rejected_early(self):
        with pytest.raises(ClusterError, match="address"):
            ClusterClient("not-an-address")

    def test_operator_follows_solver_protocol(self, node, rng):
        coo = random_coo(16, 16, 0.2, seed=12)
        with ClusterClient(node.address) as cc:
            fp = cc.register(coo)["fingerprint"]
            op = cc.operator(fp)
            assert op.shape == (16, 16)
            assert op.nrows == op.ncols == 16
            x = rng.standard_normal(16)
            y = op(x)
            out = np.zeros(16)      # spmv(x, y=) accumulates: y += A·x
            y2 = op.spmv(x, y=out)
            assert y2 is out
            assert np.array_equal(y, out)

    def test_transport_failure_is_cluster_error(self, node, rng):
        coo = random_coo(16, 16, 0.2, seed=13)
        fp = node.client.register(coo).fingerprint
        cc = ClusterClient(node.address)
        try:
            cc.spmv(fp, np.ones(16))
            node.close()
            with pytest.raises(ClusterError):
                cc.spmv(fp, np.ones(16))
        finally:
            cc.close()

    def test_error_is_repro_error(self):
        assert issubclass(ClusterError, ReproError)
