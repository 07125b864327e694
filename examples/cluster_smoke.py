#!/usr/bin/env python3
"""Cluster smoke test: 2 node processes + 1 router, kill one mid-CG.

The CI cluster-smoke job runs this end to end:

1. spawn two ``repro cluster node`` subprocesses on ephemeral ports
   and parse their READY lines,
2. start an in-process router with replication=2 and register two
   matrices whose fingerprints hash to *different* primary nodes,
3. run conjugate gradients through the router over the binary wire
   protocol and check the solution is bit-identical to a single-node
   ``ServeClient`` with the same configuration,
4. SIGKILL the primary owner of the second matrix mid-solve: the
   router must fail over to the replica and the CG result must still
   be bit-identical (every replica tuned the same matrix),
5. fetch one sampled trace and check the merged span tree covers the
   router and a node — at least two distinct processes.

Exits 0 on success, 1 (with a traceback) on any failure.

Run: ``PYTHONPATH=src python examples/cluster_smoke.py``
"""

import os
import signal
import subprocess
import sys

import numpy as np

from repro.cluster import ClusterClient, ClusterRouter
from repro.dist.fault import RetryPolicy
from repro.formats import COOMatrix
from repro.observe import context, new_trace
from repro.observe.metrics import get_registry
from repro.serve import ServeClient
from repro.solvers import conjugate_gradient

N = 400
NODE_ARGS = ["cluster", "node", "--port", "0", "--threads", "1",
             "--max-batch", "4", "--trace-sample-rate", "1.0"]


def spd_matrix(n: int, jitter_seed: int) -> COOMatrix:
    """A tridiagonal SPD matrix; the jitter makes each seed's
    fingerprint (and therefore its placement) distinct."""
    rng = np.random.default_rng(jitter_seed)
    main = np.arange(n)
    off = np.arange(n - 1)
    row = np.concatenate([main, off, off + 1])
    col = np.concatenate([main, off + 1, off])
    val = np.concatenate([
        4.0 + 0.1 * rng.random(n),          # diagonally dominant
        -np.ones(n - 1), -np.ones(n - 1),
    ])
    return COOMatrix((n, n), row, col, val, dedupe=False)


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


class KillMidSolve:
    """Operator wrapper that SIGKILLs a node process at call #k —
    the next forward hits a dead socket and must fail over."""

    def __init__(self, op, victim: subprocess.Popen, at_call: int):
        self._op, self._victim, self._at = op, victim, at_call
        self.calls = 0

    @property
    def shape(self):
        return self._op.shape

    @property
    def nrows(self):
        return self._op.nrows

    @property
    def ncols(self):
        return self._op.ncols

    def spmv(self, x, y=None):
        self.calls += 1
        if self.calls == self._at:
            self._victim.send_signal(signal.SIGKILL)
            self._victim.wait(timeout=10)
            print(f"  SIGKILLed node pid {self._victim.pid} "
                  f"at spmv #{self.calls}")
        return self._op.spmv(x, y)

    def __call__(self, x):
        return self.spmv(x)


def span_stats(spans, names=None, pids=None):
    names = set() if names is None else names
    pids = set() if pids is None else pids
    for s in spans:
        names.add(s["name"])
        pids.add(s.get("pid", 0))
        span_stats(s.get("children", []), names, pids)
    return names, pids


def main() -> None:
    reg = get_registry()
    procs, addrs = [], []
    for _ in range(2):
        proc, addr = spawn_node()
        procs.append(proc)
        addrs.append(addr)
    print(f"nodes up: {addrs[0]} (pid {procs[0].pid}), "
          f"{addrs[1]} (pid {procs[1].pid})")

    # Health probes stay slow on purpose: the mid-solve kill below
    # must be *discovered by a failing forward*, not by the scanner.
    router = ClusterRouter(
        addrs, replication=2,
        retry=RetryPolicy(max_retries=3, backoff_s=0.05),
        health_interval_s=60.0).start()
    cc = ClusterClient(router.address)

    # The same engine configuration as the nodes, for bit-identical
    # reference solves (same tuned plans).
    local = ServeClient("AMD X2", n_threads=1, max_batch=4)
    try:
        # -- two matrices with different primary owners ---------------
        coos, fps = [], []
        primaries = set()
        seed = 0
        while len(coos) < 2:
            coo = spd_matrix(N, jitter_seed=seed)
            seed += 1
            fp = coo.content_fingerprint()
            primary = router.placement.owners(fp)[0]
            if coos and primary in primaries:
                continue        # hash onto distinct primaries
            coos.append(coo)
            fps.append(fp)
            primaries.add(primary)
        for coo, fp in zip(coos, fps):
            reply = cc.register(coo)
            assert reply["fingerprint"] == fp, reply
            assert sorted(reply["owners"]) == sorted(addrs), reply
            assert reply["failed_owners"] == {}, reply
            local.register(coo)
        print(f"registered {fps[0]} (primary "
              f"{router.placement.owners(fps[0])[0]}) and {fps[1]} "
              f"(primary {router.placement.owners(fps[1])[0]})")

        rng = np.random.default_rng(42)
        b = rng.standard_normal(N)

        # -- CG through the router vs the local engine ----------------
        res_cluster = conjugate_gradient(cc.operator(fps[0]), b)
        res_local = conjugate_gradient(local.operator(fps[0]), b)
        assert res_cluster.converged and res_local.converged
        assert res_cluster.iterations == res_local.iterations
        assert np.array_equal(res_cluster.x, res_local.x), \
            "cluster CG diverged from the single-node solve"
        print(f"CG through router: {res_cluster.iterations} "
              f"iterations, bit-identical to the local engine")

        # -- SIGKILL the primary owner mid-solve ----------------------
        victim_addr = router.placement.owners(fps[1])[0]
        victim = procs[addrs.index(victim_addr)]
        failovers0 = reg.counter("cluster.failovers")
        op = KillMidSolve(cc.operator(fps[1]), victim, at_call=3)
        res_kill = conjugate_gradient(op, b)
        res_ref = conjugate_gradient(local.operator(fps[1]), b)
        failovers = reg.counter("cluster.failovers") - failovers0
        assert res_kill.converged
        assert np.array_equal(res_kill.x, res_ref.x), \
            "failover solve diverged from the single-node solve"
        assert failovers >= 1, f"no failover counted ({failovers})"
        assert op.calls > 3, "solve ended before the kill"
        print(f"killed {victim_addr} mid-solve: {failovers:g} "
              f"failover(s), {res_kill.iterations} iterations, "
              f"result still bit-identical")

        # -- one merged trace across ≥2 processes ---------------------
        ctx = new_trace(sampled=True)
        with context.use(ctx):
            cc.spmv(fps[0], b)
        spans = cc.trace(ctx.trace_id)
        assert spans, "sampled request produced no merged trace"
        names, pids = span_stats(spans)
        for expected in ("cluster.request", "cluster.forward",
                         "serve.request", "serve.batch"):
            assert expected in names, (expected, sorted(names))
        pids.discard(0)
        assert len(pids) >= 2, f"trace covers too few processes: {pids}"
        print(f"merged trace {ctx.trace_id}: {len(names)} span names "
              f"across {len(pids)} processes")

        metrics = cc.metrics_text()
        for needle in ("repro_cluster_forwards", "repro_cluster_failovers",
                       "repro_cluster_nodes_up"):
            assert needle in metrics, needle
        print(f"metrics ok: {len(metrics.splitlines())} exposition lines")
    finally:
        cc.close()
        router.close()
        local.close()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            proc.stdout.close()

    print("cluster smoke: OK")


if __name__ == "__main__":
    main()
