"""Tests for the observability layer (repro.observe)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import OptimizationLevel, SpmvEngine
from repro.machines import get_machine
from repro.matrices import generate
from repro.observe import NULL_SPAN, context, new_trace
from repro.observe import metrics as metrics_mod
from repro.observe import trace as trace_mod
from repro.observe.hub import install_hub, recording
from repro.observe.metrics import MetricsRegistry, get_registry
from repro.observe.trace import (
    encode_chrome,
    encode_jsonl,
    read_trace,
    span,
)
from repro.simulator import (
    BottleneckAttribution,
    attribute,
    bottleneck_shares,
)
from tests.conftest import random_coo


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts and ends with metrics empty."""
    get_registry().reset()
    yield
    get_registry().reset()


def _depth(event, by_id) -> int:
    """Nesting depth of ``event``, read from the parent ids."""
    parent = by_id.get(event.parent_id)
    return 0 if parent is None else 1 + _depth(parent, by_id)


class TestTracer:
    """The one recorder: spans under :func:`recording`'s sampled root
    trace land in the trace hub."""

    def test_spans_nest_and_record_depth(self):
        with recording("root") as events:
            with span("outer", kind="test"):
                with span("inner"):
                    pass
        # recorded at span exit: children precede parents
        assert [e.name for e in events] == ["inner", "outer", "root"]
        by_name = {e.name: e for e in events}
        by_id = {e.span_id: e for e in events}
        assert {e.trace_id for e in events} == {by_name["root"].trace_id}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == by_name["root"].span_id
        assert [_depth(by_name[n], by_id)
                for n in ("root", "outer", "inner")] == [0, 1, 2]
        assert by_name["inner"].start_us >= by_name["outer"].start_us
        assert by_name["outer"].duration_us >= by_name["inner"].duration_us
        assert by_name["outer"].args == {"kind": "test"}

    def test_set_attaches_args(self):
        with recording() as events:
            with span("s") as s:
                s.set(n_blocks=4)
        assert events[0].name == "s"
        assert events[0].args == {"n_blocks": 4}

    def test_exception_is_annotated_and_propagates(self):
        with pytest.raises(ValueError):
            with recording() as events:
                with span("boom"):
                    raise ValueError("x")
        assert [e.args["error"] for e in events] == ["ValueError"] * 2

    def test_old_depth_schema_is_refused_by_name(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({
            "name": "plan.partition", "ts_us": 247722.3, "dur_us": 6413.3,
            "tid": 1, "depth": 1, "args": {}}) + "\n")
        with pytest.raises(ValueError, match="older schema"):
            read_trace(path)

    def test_jsonl_round_trip(self, tmp_path):
        with recording() as events:
            with span("a", matrix="Dense"):
                with span("b"):
                    pass
        path = tmp_path / "trace.jsonl"
        path.write_text(encode_jsonl(events))
        back = read_trace(path)
        assert [e.name for e in back] == ["b", "a", "repro"]
        assert back[1].args == {"matrix": "Dense"}
        assert back[0].duration_us >= 0.0
        assert [(e.trace_id, e.span_id, e.parent_id, e.pid)
                for e in back] == [(e.trace_id, e.span_id, e.parent_id,
                                    e.pid) for e in events]
        # Every line is standalone JSON with ids and no depth.
        for line in path.read_text().splitlines():
            assert set(json.loads(line)) == {
                "name", "ts_us", "dur_us", "tid", "trace_id", "span_id",
                "parent_id", "pid", "args"}

    def test_chrome_export(self, tmp_path):
        with recording() as events:
            with span("phase"):
                pass
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(encode_chrome(events)))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        root, ev = doc["traceEvents"]       # ordered by start time
        assert ev["ph"] == "X" and ev["name"] == "phase"
        assert ev["ts"] >= root["ts"] > 0 and ev["dur"] >= 0
        assert ev["args"]["parent_id"] == root["args"]["span_id"]

    def test_disabled_tracer_is_noop(self):
        sink = trace_mod.get_span_sink()
        try:
            trace_mod.set_span_sink(None)
            with context.use(new_trace(sampled=True)):
                assert span("no sink") is NULL_SPAN
            spans = []
            trace_mod.set_span_sink(spans.append)
            assert span("no context", big=1) is NULL_SPAN
            with context.use(new_trace(sampled=False)):
                s = span("unsampled")
            assert s is NULL_SPAN
            with s as inner:
                inner.set(ignored=True)
            assert spans == []
        finally:
            trace_mod.set_span_sink(sink)
        # Recording afterwards starts from a clean slate: nothing from
        # the disabled period leaked anywhere.
        with recording() as events:
            pass
        assert [e.name for e in events] == ["repro"]

    def test_disabled_instrumented_pipeline_emits_nothing(self):
        engine = SpmvEngine(get_machine("AMD X2"))
        coo = generate("Dense", scale=0.02, seed=0)
        with recording() as events:
            with context.use(None):
                engine.simulate(engine.plan(coo, n_threads=1))
        assert [e.name for e in events] == ["repro"]

    def test_unsampled_requests_inside_recording_add_no_span(self):
        """Requests that arrive unsampled (an ``X-Repro-Trace`` header
        ending ``-00``) leave nothing in the hub, even while a command
        records: the recorder is bounded by sampling."""
        from repro.serve.client import ServeClient

        client = ServeClient(n_workers=1)
        try:
            fp = client.register(random_coo(60, 60, 0.1, seed=3)).fingerprint
            x = np.ones(60)
            with recording() as events:
                hub = install_hub()
                with context.use(new_trace(sampled=False)):
                    for _ in range(1000):
                        client.spmv(fp, x)
                assert hub.trace_ids() == []    # the root is still open
        finally:
            client.close()
        assert [e.name for e in events] == ["repro"]
        assert get_registry().counter("serve.requests") == 1000


class TestMetrics:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("plan.calls")
        reg.inc("plan.calls", 2)
        reg.inc("heuristic.format_chosen", 3, fmt="bcsr")
        reg.gauge("bench.sweep_progress", 0.5, machine="AMD X2")
        reg.observe("slo.request_seconds", 0.1)
        reg.observe("slo.request_seconds", 0.3)
        assert reg.counter("plan.calls") == 3
        assert reg.counter("heuristic.format_chosen", fmt="bcsr") == 3
        assert reg.counter("heuristic.format_chosen", fmt="csr") == 0
        assert reg.gauge_value("bench.sweep_progress",
                               machine="AMD X2") == 0.5
        h = reg.histogram("slo.request_seconds")
        assert h.count == 2 and h.min == 0.1 and h.max == 0.3
        assert h.mean == pytest.approx(0.2)

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.inc("m", b=1, a=2)
        assert reg.counter("m", a=2, b=1) == 1

    def test_reset_clears_everything(self):
        reg = get_registry()
        reg.inc("a")
        reg.gauge("b", 1.0)
        reg.observe("c", 2.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_registry_resets_between_tests_1(self):
        get_registry().inc("leak.check")
        assert get_registry().counter("leak.check") == 1

    def test_registry_resets_between_tests_2(self):
        # Runs after _1 under -p no:randomly default ordering, but the
        # autouse fixture guarantees isolation in any order.
        assert get_registry().counter("leak.check") == 0

    def test_render(self):
        reg = MetricsRegistry()
        assert reg.render() == "(no metrics recorded)"
        reg.inc("plan.calls", 5)
        reg.observe("t", 1.0)
        out = reg.render()
        assert "plan.calls" in out and "5" in out and "n=1" in out
        assert reg.render(prefix="nope") == "(no metrics recorded)"


class TestAttribution:
    def test_shares_sum_to_one(self):
        for comp, mem, kind in [(1.0, 3.0, "memory"), (2.0, 0.5, "memory"),
                                (1.0, 4.0, "latency"), (0.0, 1.0, "memory")]:
            s = bottleneck_shares(comp, mem, kind)
            assert s.memory + s.compute + s.latency == pytest.approx(1.0)

    def test_latency_kind_routes_memory_component(self):
        s = bottleneck_shares(1.0, 3.0, "latency")
        assert s.memory == 0.0
        assert s.latency == pytest.approx(0.75)
        assert s.dominant == "latency"

    def test_degenerate_zero_time(self):
        s = bottleneck_shares(0.0, 0.0)
        assert s.compute == 1.0
        assert s.memory + s.compute + s.latency == pytest.approx(1.0)

    def test_attribute_real_simulation(self):
        engine = SpmvEngine(get_machine("AMD X2"))
        coo = generate("Econom", scale=0.05, seed=0)
        res = engine.simulate(engine.plan(coo, n_threads=4))
        shares = attribute(res)
        assert shares.memory + shares.compute + shares.latency == \
            pytest.approx(1.0)
        att = res.extras["attribution"]
        assert att["memory_share"] + att["compute_share"] + \
            att["latency_share"] == pytest.approx(1.0)
        assert res.extras["phase_seconds"]["memory_model"] >= 0.0
        assert res.extras["phase_seconds"]["compute_model"] >= 0.0

    def test_attribute_without_extras_recomputes(self):
        engine = SpmvEngine(get_machine("Niagara"))
        coo = generate("Dense", scale=0.02, seed=0)
        res = engine.simulate(engine.plan(coo, n_threads=1))
        stripped = type(res)(**{
            **{f: getattr(res, f) for f in (
                "machine_name", "time_s", "gflops", "traffic",
                "sustained_gbs", "compute_time_s", "memory_time_s",
                "bottleneck", "cache_resident", "sockets",
                "cores_per_socket", "threads_per_core", "imbalance",
            )},
            "extras": {},
        })
        s = attribute(stripped)
        assert s.memory + s.compute + s.latency == pytest.approx(1.0)

    def test_aggregation_rows_and_table(self):
        engine = SpmvEngine(get_machine("AMD X2"))
        att = BottleneckAttribution()
        for name in ["Econom", "Circuit"]:
            coo = generate(name, scale=0.05, seed=0)
            for t in (1, 4):
                att.add(engine.simulate(engine.plan(coo, n_threads=t)),
                        matrix=name, label=f"{t}t")
        rows = att.rows()
        assert len(rows) == 2  # grouped by (machine, matrix)
        for row in rows:
            assert row["n"] == 2
            total = (row["memory_share"] + row["compute_share"]
                     + row["latency_share"])
            assert total == pytest.approx(1.0)
            assert row["bound"] in ("memory", "compute", "latency")
            assert row["max_imbalance"] >= 1.0
        by_label = att.rows(group_by=("label",))
        assert {r["label"] for r in by_label} == {"1t", "4t"}
        table = att.table()
        assert "mem%" in table and "Econom" in table

    def test_niagara_single_thread_is_latency_bound(self):
        # The paper's signature case: 1-thread in-order Niagara exposes
        # full memory latency; attribution must say "latency", not
        # "memory".
        engine = SpmvEngine(get_machine("Niagara"))
        coo = generate("Econom", scale=0.05, seed=0)
        res = engine.simulate(engine.plan(
            coo, level=OptimizationLevel.NAIVE, n_threads=1
        ))
        shares = attribute(res)
        assert shares.latency > 0.1
        assert shares.memory == 0.0


class TestPipelineInstrumentation:
    def test_plan_and_simulate_emit_phase_spans(self):
        engine = SpmvEngine(get_machine("AMD X2"))
        coo = generate("Econom", scale=0.05, seed=0)
        with recording() as events:
            plan = engine.plan(coo, n_threads=2)
            engine.simulate(plan)
        names = {e.name for e in events}
        for expected in ["engine.plan", "plan.partition",
                         "plan.cache_block", "plan.format_select",
                         "engine.simulate", "sim.memory", "sim.compute"]:
            assert expected in names, expected
        # plan's span knows how many blocks it created
        plan_ev = next(e for e in events if e.name == "engine.plan")
        assert plan_ev.args["n_blocks"] == len(plan.profile.blocks)
        assert plan_ev.args["machine"] == "AMD X2"

    def test_plan_metrics(self):
        reg = get_registry()
        engine = SpmvEngine(get_machine("AMD X2"))
        coo = generate("Econom", scale=0.05, seed=0)
        plan = engine.plan(coo, n_threads=2)
        assert reg.counter("plan.calls") == 1
        assert reg.counter("plan.blocks_created") == \
            len(plan.profile.blocks)
        snap = reg.snapshot()["counters"]
        fmt_total = sum(
            v for k, v in snap.items()
            if k.startswith("heuristic.format_chosen{")
        )
        assert fmt_total == len(plan.choices)
        engine.simulate(plan)
        assert reg.counter("sim.runs", machine="AMD X2") == 1

    def test_tune_records_materialize_span(self):
        engine = SpmvEngine(get_machine("Clovertown"))
        coo = generate("Dense", scale=0.02, seed=0)
        with recording() as events:
            engine.tune(coo, n_threads=1)
        assert "engine.materialize" in {e.name for e in events}
        assert get_registry().counter("engine.tunes") == 1


class TestBaselineInstrumentation:
    def test_oski_spans_and_counters(self):
        from repro.baselines import OskiTuner
        from repro.baselines.oski import machine_profile

        # The install profile is memoized per machine for the whole
        # process; start from an empty memo so the build is counted here.
        machine_profile.cache_clear()
        tuner = OskiTuner(get_machine("AMD X2"))
        coo = generate("Circuit", scale=0.05, seed=0)
        with recording() as events:
            tuner.simulate(coo)
        names = {e.name for e in events}
        assert "oski.machine_profile" in names
        assert "oski.choose_blocking" in names
        reg = get_registry()
        assert reg.counter("oski.profile_builds", machine="AMD X2") == 1
        assert reg.counter("oski.fill_estimates") > 0
        # A second tune, even by a fresh tuner, reuses the profile.
        OskiTuner(get_machine("AMD X2")).simulate(coo)
        assert reg.counter("oski.profile_builds", machine="AMD X2") == 1

    def test_petsc_spans_and_comm_fraction(self):
        from repro.baselines.petsc import petsc_spmv_model

        coo = generate("Econom", scale=0.05, seed=0)
        with recording() as events:
            res = petsc_spmv_model(coo, get_machine("AMD X2"), 2)
        names = {e.name for e in events}
        assert "petsc.tune_ranks" in names
        assert "petsc.comm_model" in names
        h = get_registry().histogram("petsc.comm_fraction")
        assert h.count == 1
        assert h.max == pytest.approx(res.comm_fraction)


class TestPrometheusRendering:
    def test_counters_and_types(self):
        reg = MetricsRegistry()
        reg.inc("serve.batches", 3)
        reg.inc("heuristic.format_chosen", 2, fmt="bcsr")
        text = reg.render_prometheus()
        assert "# TYPE repro_serve_batches counter" in text
        assert "repro_serve_batches 3" in text
        assert 'repro_heuristic_format_chosen{fmt="bcsr"} 2' in text
        assert text.endswith("\n")

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("serve.registry_bytes", 1234.0)
        text = reg.render_prometheus()
        assert "# TYPE repro_serve_registry_bytes gauge" in text
        assert "repro_serve_registry_bytes 1234" in text

    def test_histogram_with_buckets(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("serve.batch_size", v)
        text = reg.render_prometheus()
        assert "# TYPE repro_serve_batch_size histogram" in text
        assert 'repro_serve_batch_size_bucket{le="1"} 1' in text
        assert 'repro_serve_batch_size_bucket{le="+Inf"} 3' in text
        assert "repro_serve_batch_size_count 3" in text
        assert "repro_serve_batch_size_sum 6" in text
        assert "repro_serve_batch_size_min 1" in text
        assert "repro_serve_batch_size_max 3" in text

    def test_histogram_buckets_with_labels(self):
        reg = MetricsRegistry()
        reg.observe("slo.request_seconds", 0.01, op="spmv")
        text = reg.render_prometheus()
        assert 'op="spmv",le="+Inf"} 1' in text
        # Cumulative count at the last finite bound covers everything.
        h = reg.histogram("slo.request_seconds", op="spmv")
        assert sum(h.bucket_counts) == 1

    def test_name_sanitization(self):
        reg = MetricsRegistry()
        reg.inc("weird-name.with/slash")
        text = reg.render_prometheus()
        assert "repro_weird_name_with_slash 1" in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.inc("serve.http_requests", route='GET /metrics')
        text = reg.render_prometheus()
        assert 'route="GET /metrics"' in text

    def test_label_value_escaping_special_chars(self):
        # Exposition format 0.0.4: label values escape backslash,
        # double-quote, and newline — in that order, so an original
        # backslash never doubles an escape we just inserted.
        reg = MetricsRegistry()
        reg.inc("serve.http_requests", route='GET /a"b\\c\nd')
        text = reg.render_prometheus()
        assert 'route="GET /a\\"b\\\\c\\nd"' in text
        # the rendered exposition stays one line per sample
        sample_lines = [ln for ln in text.splitlines()
                        if "serve_http_requests{" in ln]
        assert len(sample_lines) == 1

    def test_process_gauges(self):
        from repro.observe import get_registry, sample_process_gauges

        sample_process_gauges()
        snap = get_registry().snapshot()
        up = snap["gauges"]["process.uptime_seconds"]
        assert up >= 0
        # Linux /proc paths present in CI; values must be sane.
        if "process.rss_bytes" in snap["gauges"]:
            assert snap["gauges"]["process.rss_bytes"] > 1 << 20
        if "process.open_fds" in snap["gauges"]:
            assert snap["gauges"]["process.open_fds"] >= 3

    def test_custom_prefix_and_empty(self):
        reg = MetricsRegistry()
        assert reg.render_prometheus() == ""
        reg.inc("x")
        assert "spmv_x 1" in reg.render_prometheus(prefix="spmv_")

    def test_one_type_line_per_labeled_family(self):
        reg = MetricsRegistry()
        reg.inc("serve.worker_tasks", worker=0)
        reg.inc("serve.worker_tasks", worker=1)
        text = reg.render_prometheus()
        assert text.count("# TYPE repro_serve_worker_tasks counter") == 1
        assert 'repro_serve_worker_tasks{worker="0"} 1' in text
        assert 'repro_serve_worker_tasks{worker="1"} 1' in text

    def test_module_level_function(self):
        from repro.observe import render_prometheus

        get_registry().inc("serve.requests", 5)
        assert "repro_serve_requests 5" in render_prometheus()
