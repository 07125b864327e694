"""Metric-name drift guard.

The observability plane is only useful if the names the code emits,
the names ``render_prometheus()`` exposes, and the names the README
documents are the *same* names. This test pins the documented set:

* ``DOCUMENTED`` is the canonical contract — every name here must be
  emitted by one smoke run of the serve tier, a shard group driven
  directly and a one-node cluster, and must appear in the README's
  Observability/Serving/Distributed sections;
* the Prometheus rendering of each name must appear on ``/metrics``.

Adding a metric? Emit it, document it in README.md, then add it here.
Renaming one? This test is the list of places that must change
together.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.dist.group import ShardGroup
from repro.observe import context, new_trace
from repro.observe.hub import uninstall_hub
from repro.observe.metrics import (
    MetricsRegistry,
    get_registry,
    render_prometheus,
    sample_process_gauges,
)
from repro.observe.perf import MachineCeilings, PerfWatchdog
from repro.serve.client import ServeClient

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

#: The documented metric contract: name -> kind. Histogram names are
#: also required to expose ``_bucket`` series on /metrics (real
#: fixed-bucket histograms, not summaries).
DOCUMENTED = {
    # serve tier (scheduler.py / worker.py / registry.py)
    "serve.requests": "counter",
    "serve.batches": "counter",
    "serve.batched_requests": "counter",
    "serve.rejected": "counter",
    "serve.batch_size": "histogram",
    "serve.worker_tasks": "counter",
    "serve.worker_busy_seconds": "counter",
    # dist tier (group.py / fault.py / shard.py)
    "dist.spmv_calls": "counter",
    "dist.compute_dispatches": "counter",
    "dist.shards_alive": "gauge",
    "dist.shards_spawned": "counter",
    "dist.shard_busy_seconds": "counter",
    "dist.heartbeat_age": "gauge",
    "dist.phase_seconds": "histogram",
    "dist.compute_imbalance": "gauge",
    "dist.child_computes": "counter",
    "dist.child_compute_seconds": "histogram",
    # SLO accounting (observe/slo.py, fed by the scheduler)
    "slo.request_seconds": "histogram",
    "slo.phase_seconds": "histogram",
    # learned plan selection (autoplan/, fed by registry.register)
    "autoplan.predictions": "counter",
    "autoplan.registration_seconds": "histogram",
    # kernel dispatch (kernels/registry.py + cbackend/loader.py):
    # every spmv/spmm records which ISA variant actually ran
    "kernels.variant_selected": "counter",
    # roofline attribution + watchdog (observe/perf/)
    "perf.gflops": "histogram",
    "perf.gbs": "histogram",
    "perf.roofline_fraction": "histogram",
    "perf.regressions": "counter",
    # cluster tier (cluster/router.py / node.py / aserver.py)
    "cluster.requests": "counter",
    "cluster.forwards": "counter",
    "cluster.forward_seconds": "histogram",
    "cluster.failovers": "counter",
    "cluster.nodes_up": "gauge",
    "cluster.wire_bytes": "counter",
    "cluster.connections": "gauge",
    # standard process gauges (observe/metrics.py, sampled on scrape)
    "process.rss_bytes": "gauge",
    "process.open_fds": "gauge",
    "process.uptime_seconds": "gauge",
}


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


@pytest.fixture(scope="module")
def smoke_registry(tmp_path_factory):
    """One smoke run of the serve, dist and cluster tiers; yields the
    registry and its Prometheus text."""
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("needs the fork start method")
    rng = np.random.default_rng(7)
    n = 120
    from repro.formats.coo import COOMatrix

    coo = COOMatrix(
        (n, n), rng.integers(0, n, 1200), rng.integers(0, n, 1200),
        rng.standard_normal(1200),
    )
    ceilings = MachineCeilings(
        copy_gbs_single=10.0, triad_gbs_single=12.0,
        copy_gbs_all=20.0, triad_gbs_all=24.0,
        peak_gflops_single=5.0, peak_gflops_all=20.0,
        n_cores=2, spmv_probe_gflops={},
    )
    client = ServeClient(
        trace_sample_rate=1.0,
        plan_mode="auto",   # no model yet: emits the fallback outcome
        plan_cache_dir=tmp_path_factory.mktemp("plans"),
        perf_watch=ceilings,  # hand-built: no measurement in tests
    )
    # The dist tier's names come from a shard group of its own: the
    # serve tier runs every matrix in-process.
    group = ShardGroup(2)
    try:
        fp = client.register(coo).fingerprint
        x = rng.standard_normal(n)
        with context.use(new_trace(sampled=True)):
            client.spmv(fp, x)
        for _ in range(3):
            client.spmv(fp, x)
        # a lone spmv runs on its caller's thread; submit() queues, so
        # this one runs on a worker (serve.worker_*)
        client.submit(fp, x).result(timeout=10)
        assert any(k.startswith("perf.gflops")
                   for k in get_registry().snapshot()["histograms"])
        gfp = group.register(coo)
        with context.use(new_trace(sampled=True)):
            group.spmv(gfp, x)
        group.spmv(gfp, x)
        # every shard reply carries the child's counters, so they are
        # home the moment spmv returns
        assert {f"dist.child_computes{{shard={i}}}" for i in range(2)} \
            <= set(get_registry().snapshot()["counters"])
        # exercise admission control so serve.rejected exists
        from repro.errors import ServeAdmissionError
        from repro.serve.scheduler import BatchScheduler
        from repro.serve.worker import WorkerPool

        pool = WorkerPool(1)
        sched = BatchScheduler(pool, max_queue=0)
        with pytest.raises(ServeAdmissionError):
            sched.submit(client.registry.get(fp), x)
        sched.close()
        pool.shutdown()
        # a regression is an *event*, not steady-state: drive a
        # watchdog directly (same precedent as serve.rejected above)
        wd = PerfWatchdog(slo=client.slo)
        wd.min_samples, wd.sustain = 2, 2
        for _ in range(4):
            wd.observe("fp-reg", "csr/numpy", 1.0)
        for _ in range(2):
            wd.observe("fp-reg", "csr/numpy", 0.1)
        # cluster tier: one node behind a router, one good request
        # (forwards/forward_seconds/wire_bytes/connections), then kill
        # the node and request again so the failover path runs (the
        # health interval is long, so the router still trusts the dead
        # node and must fail over on the live socket error).
        from repro.cluster import ClusterClient, ClusterNode, ClusterRouter
        from repro.dist.fault import RetryPolicy
        from repro.errors import ClusterError

        node = ClusterNode(machine="AMD X2", n_threads=1,
                           max_batch=2).start()
        router = ClusterRouter(
            [node.address], replication=1,
            retry=RetryPolicy(max_retries=1, backoff_s=0.001),
            health_interval_s=60.0).start()
        cc = ClusterClient(router.address)
        try:
            cfp = cc.register(coo)["fingerprint"]
            cc.spmv(cfp, x)
            node.close()
            with pytest.raises(ClusterError):
                cc.spmv(cfp, x)
        finally:
            cc.close()
            router.close()
            node.close()
        # process gauges are scrape-sampled; mirror the /metrics path
        sample_process_gauges()
        # the heartbeat monitor exports its gauges on an interval; run
        # one scan rather than wait for it
        group._heartbeat_scan()
        yield get_registry(), render_prometheus()
    finally:
        group.close()
        client.close()
        uninstall_hub()


def test_documented_names_are_emitted(smoke_registry):
    registry, _ = smoke_registry
    snap = registry.snapshot()
    emitted = {
        key.split("{", 1)[0]
        for section in ("counters", "gauges", "histograms")
        for key in snap[section]
    }
    missing = sorted(n for n in DOCUMENTED if n not in emitted)
    assert not missing, f"documented metrics never emitted: {missing}"


def test_documented_kinds_match(smoke_registry):
    registry, _ = smoke_registry
    snap = registry.snapshot()
    by_kind = {"counter": "counters", "gauge": "gauges",
               "histogram": "histograms"}
    for name, kind in DOCUMENTED.items():
        section = snap[by_kind[kind]]
        assert any(k.split("{", 1)[0] == name for k in section), \
            f"{name} documented as {kind} but absent from that section"


def test_prometheus_exposition_has_documented_names(smoke_registry):
    _, text = smoke_registry
    for name, kind in DOCUMENTED.items():
        prom = _prom_name(name)
        assert f"# TYPE {prom} " in text, f"{prom} missing TYPE line"
        if kind == "histogram":
            assert f"{prom}_bucket{{" in text, \
                f"{prom} renders without _bucket series"


def test_readme_documents_the_same_names():
    with open(README, encoding="utf-8") as f:
        readme = f.read()
    missing = sorted(n for n in DOCUMENTED if f"`{n}" not in readme)
    assert not missing, \
        f"metrics emitted+tested but undocumented in README: {missing}"


def test_shard_children_reach_parent_metrics(smoke_registry):
    registry, text = smoke_registry
    snap = registry.snapshot()
    child = [k for k in snap["counters"]
             if k.startswith("dist.child_computes")]
    # both shards' replies merged, and the series render for scraping
    assert len(child) >= 2, f"expected per-shard series, got {child}"
    assert 'repro_dist_child_computes{shard="0"}' in text
    assert 'repro_dist_child_computes{shard="1"}' in text


def test_registry_merge_roundtrip_prefixes():
    """Cross-process names survive a child drain (snapshot + reset)
    and the parent's merge unchanged (a shard reply must not rename
    anything)."""
    src, dst = MetricsRegistry(), MetricsRegistry()
    src.inc("dist.child_computes", 3, shard=1)
    src.observe("dist.child_compute_seconds", 0.25, shard=1)
    dst.merge_flat(src.drain_flat())
    assert src.drain_flat() == {}       # the drain emptied the child
    snap = dst.snapshot()
    assert snap["counters"]["dist.child_computes{shard=1}"] == 3
    assert "dist.child_compute_seconds{shard=1}" in snap["histograms"]
