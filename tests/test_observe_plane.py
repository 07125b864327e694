"""The cross-process observability plane, unit by unit and end to end:
trace-context propagation, the bounded trace hub, registry drains, SLO
accounting, one served request's span tree, and a shard group's spans
and metrics riding its replies — including the fault path where a
respawned shard must keep counting."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import threading

import numpy as np
import pytest

from repro.observe import context, new_trace
from repro.observe.context import TraceContext, from_header
from repro.observe.hub import TraceHub, install_hub, uninstall_hub
from repro.observe.metrics import MetricsRegistry, get_registry
from repro.observe.slo import SloTracker
from repro.observe.trace import SpanEvent
from tests.conftest import random_coo

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


# ----------------------------------------------------------------------
# Trace context
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_header_round_trip(self):
        ctx = new_trace(sampled=True)
        back = from_header(ctx.to_header())
        assert back == ctx
        off = TraceContext(ctx.trace_id, ctx.span_id, sampled=False)
        assert from_header(off.to_header()) == off

    @pytest.mark.parametrize("header", [
        None, "", "garbage", "a-b", "a-b-c-d", "xyz-123-01",
        "deadbeef--01",
    ])
    def test_malformed_headers_are_none(self, header):
        assert from_header(header) is None

    def test_dict_round_trip(self):
        ctx = new_trace()
        assert context.from_dict(ctx.to_dict()) == ctx
        assert context.from_dict(None) is None
        assert context.from_dict({}) is None

    def test_child_keeps_trace_changes_span(self):
        ctx = new_trace()
        kid = ctx.child()
        assert kid.trace_id == ctx.trace_id
        assert kid.span_id != ctx.span_id

    def test_use_installs_and_restores(self):
        assert context.current() is None
        ctx = new_trace()
        with context.use(ctx) as installed:
            assert installed is ctx
            assert context.current() is ctx
            with context.use(None):
                assert context.current() is None
            assert context.current() is ctx
        assert context.current() is None


# ----------------------------------------------------------------------
# Trace hub
# ----------------------------------------------------------------------
def _event(name: str, trace_id: str, span_id: str = "aa00bb11",
           parent_id: str = "") -> SpanEvent:
    return SpanEvent(
        name=name, start_us=123.0, duration_us=2.0, thread_id=0,
        trace_id=trace_id, span_id=span_id,
        parent_id=parent_id, pid=os.getpid(),
    )


class TestTraceHub:
    def test_add_events_respects_max_traces(self):
        hub = TraceHub(max_traces=4)
        hub.add_events([_event("x", f"t{i:02d}") for i in range(50)])
        # the newest traces survive, as they do through record()
        assert hub.trace_ids() == ["t46", "t47", "t48", "t49"]

    def test_record_and_add_events_share_the_bounds(self):
        hub = TraceHub(max_traces=2, max_spans_per_trace=2)
        hub.record(_event("a", "t1", "s1"))
        assert hub.add_events([_event("a", "t1", "s1"),    # duplicate
                               _event("b", "t1", "s2"),
                               _event("c", "t1", "s3")]) == 1
        assert [e.name for e in hub.get("t1")] == ["a", "b"]
        hub.record(_event("d", "t2"))
        hub.record(_event("e", "t3"))
        assert hub.trace_ids() == ["t2", "t3"]


# ----------------------------------------------------------------------
# Registry drains (what a shard reply carries home)
# ----------------------------------------------------------------------
class TestReplyTelemetry:
    def test_drains_are_increments_not_totals(self):
        child, parent, local = (MetricsRegistry(), MetricsRegistry(),
                                MetricsRegistry())
        for seconds in (0.5, 0.003, 0.5):
            child.inc("dist.child_computes", 2, shard=1)
            child.observe("dist.child_compute_seconds", seconds, shard=1)
            local.observe("dist.child_compute_seconds", seconds, shard=1)
            parent.merge_flat(child.drain_flat())
        snap = parent.snapshot()
        assert snap["counters"]["dist.child_computes{shard=1}"] == 6
        # the merged histogram is the one the child would have kept
        assert snap["histograms"]["dist.child_compute_seconds{shard=1}"] \
            == local.histogram("dist.child_compute_seconds", shard=1)

    def test_drain_histogram_holds_only_new_observations(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        reg.drain_flat()
        reg.observe("h", 3.0)
        drained = reg.drain_flat()
        assert drained["hists"]["h"][0] == 1       # one new observation
        assert drained["hists"]["h"][1] == pytest.approx(3.0)
        assert reg.drain_flat() == {}              # nothing since

    @needs_fork
    def test_fork_image_is_never_sent_home(self):
        from repro.dist import ShardGroup

        reg = get_registry()
        reg.inc("test.parent_only", 5)
        before = reg.counter("test.parent_only")
        with ShardGroup(2, compute_timeout_s=10.0) as group:
            fp = group.register(random_coo(80, 80, 0.1, seed=46))
            group.spmv(fp, np.ones(80))
        # the children inherited the counter and reset it at start
        assert reg.counter("test.parent_only") == before


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------
class TestSloTracker:
    def test_slow_request_sampled_and_armed(self):
        reg = MetricsRegistry()
        slo = SloTracker(slo_s=0.010, registry=reg, force_samples=2)
        assert not slo.record(op="spmv", fingerprint="fp",
                              total_s=0.002)
        assert slo.record(
            op="spmv", fingerprint="fp", total_s=0.5,
            phases={"queue": 0.4, "compute": 0.1}, trace_id="t1",
        )
        samples = slo.slow_samples()
        assert [s.trace_id for s in samples] == ["t1"]
        assert samples[0].to_json()["phases_ms"]["queue"] == 400.0
        # Two units of force-sampling debt, then the arm clears.
        assert slo.should_force_sample("fp")
        assert slo.should_force_sample("fp")
        assert not slo.should_force_sample("fp")
        assert not slo.should_force_sample("other")

    def test_phase_histograms_recorded(self):
        reg = MetricsRegistry()
        slo = SloTracker(registry=reg)
        slo.record(op="spmv", fingerprint="fp", total_s=0.004,
                   phases={"queue": 0.001, "compute": 0.003})
        snap = reg.snapshot()
        assert ("slo.phase_seconds{matrix=fp,op=spmv,phase=queue}"
                in snap["histograms"])
        assert "slo.request_seconds{op=spmv}" in snap["histograms"]

    def test_summary_digest(self):
        reg = MetricsRegistry()
        slo = SloTracker(registry=reg)
        for ms in (1, 2, 3):
            slo.record(op="spmv", fingerprint="fp", total_s=ms / 1e3)
        out = slo.summary()
        assert out["spmv"]["count"] == 3
        assert out["spmv"]["slow"] == 0


# ----------------------------------------------------------------------
# End to end: one request, one merged tree; faults rejoin the plane
# ----------------------------------------------------------------------
def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node["children"])


class TestEndToEnd:
    def test_served_request_yields_one_tree(self):
        from repro.serve.client import ServeClient

        coo = random_coo(150, 150, 0.05, seed=40)
        client = ServeClient(trace_sample_rate=1.0)
        try:
            fp = client.register(coo).fingerprint
            x = np.random.default_rng(41).standard_normal(150)
            ctx = new_trace(sampled=True)
            with context.use(ctx):
                client.spmv(fp, x)
            tree = client.hub.tree(ctx.trace_id)
            assert len(tree) == 1, f"one root expected: {tree}"
            spans = list(_walk(tree))
            names = {s["name"] for s in spans}
            assert {"serve.request", "serve.scheduler.enqueue",
                    "serve.batch"} <= names
            # the serve tier forks nothing: one process recorded it all
            assert {s["pid"] for s in spans} == {os.getpid()}
        finally:
            client.close()
            uninstall_hub()

    @needs_fork
    def test_shard_telemetry_is_home_when_spmv_returns(self):
        from repro.dist import ShardGroup

        reg = get_registry()
        hub = install_hub(TraceHub())
        group = ShardGroup(2, compute_timeout_s=10.0)
        try:
            fp = group.register(random_coo(150, 150, 0.05, seed=44))
            x = np.random.default_rng(45).standard_normal(150)

            def counts() -> list[float]:
                return [reg.counter("dist.child_computes", shard=i)
                        for i in range(2)]

            before = counts()
            group.spmv(fp, x)
            assert counts() == [c + 1 for c in before]
            ctx = new_trace(sampled=True)
            with context.use(ctx):
                group.spmv(fp, x)
            shards = sorted(e.args["shard"] for e in hub.get(ctx.trace_id)
                            if e.name == "shard.compute")
            assert shards == [0, 1]
        finally:
            group.close()
            uninstall_hub()

    @needs_fork
    def test_one_channel_per_shard(self, tmp_path, monkeypatch):
        from repro.dist import ShardGroup

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with ShardGroup(2) as group:
            fp = group.register(random_coo(60, 60, 0.1, seed=47))
            group.spmv(fp, np.ones(60))
            names = {t.name for t in threading.enumerate()}
            assert "dist-telemetry" not in names
            assert not list(tmp_path.glob("repro-dist-spool-*"))

    @needs_fork
    def test_respawned_shard_rejoins_metrics_flushing(self):
        from repro.dist import RetryPolicy, ShardGroup

        reg = get_registry()
        group = ShardGroup(
            2, heartbeat_interval_s=0.05, compute_timeout_s=10.0,
            retry=RetryPolicy(max_retries=3, backoff_s=0.01),
        )
        try:
            coo = random_coo(150, 150, 0.05, seed=42)
            fp = group.register(coo)
            x = np.random.default_rng(43).standard_normal(150)

            def child_count(shard: int) -> float:
                return reg.counter("dist.child_computes", shard=shard)

            before = child_count(1)
            group.spmv(fp, x)
            assert child_count(1) == before + 1

            os.kill(group.shard_pids()[1], signal.SIGKILL)
            # The next dispatch revives the shard; its replacement's
            # replies carry its counters like the first one's did.
            group.spmv(fp, x)
            assert child_count(1) == before + 2
            from repro.formats import coo_to_csr
            assert np.array_equal(group.spmv(fp, x),
                                  coo_to_csr(coo).spmv(x))
            assert child_count(1) == before + 3
        finally:
            group.close()


class TestTraceRoutes:
    def test_chrome_export_is_one_event_list(self):
        from repro.serve.client import ServeClient
        from repro.serve.routes import Request, Router

        client = ServeClient(n_workers=1)
        try:
            fp = client.register(random_coo(60, 60, 0.1, seed=48)).fingerprint
            ctx = new_trace(sampled=True)
            with context.use(ctx):
                client.spmv(fp, np.ones(60))
            router = Router(client)
            resp = router.handle(Request(
                "GET", f"/v1/debug/trace/{ctx.trace_id}?format=chrome"))
            assert resp.status == 200
            events = json.loads(resp.body)["traceEvents"]
            assert "serve.scheduler.enqueue" in {e["name"] for e in events}
            assert router.handle(Request(
                "GET", "/v1/debug/trace/nope?format=chrome")).status == 404
        finally:
            client.close()
            uninstall_hub()
