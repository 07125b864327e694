"""Observability: tracing, metrics, and roofline attribution.

The paper's central output is an *explanation* of where SpMV time goes
on each platform; this package makes the reproduction explain itself
the same way:

* :mod:`.trace` — spans (context-manager API, recorded only under a
  sampled trace context, near-zero overhead otherwise) with JSONL and
  Chrome ``about://tracing`` encoders, wired through the plan →
  simulate → materialize pipeline and every serving tier.
* :mod:`.metrics` — a process-wide registry of counters, gauges, and
  histograms (``plan.blocks_created``,
  ``heuristic.format_chosen{fmt=...}``, ``oski.profile_builds``, ...).

The simulator's own explanation — per-machine/per-matrix bottleneck
tables of memory vs compute vs latency time shares, the paper's §6
narrative as data — lives with the simulator, in
:mod:`repro.simulator.bottleneck`.

The cross-process observability plane (v2) adds:

* :mod:`.context` — :class:`TraceContext` carried on serve requests
  (HTTP header, control messages) so one request yields one span tree;
* :mod:`.hub` — the process's bounded per-trace span store (the one
  span sink) with its tree export, and :func:`recording`, which runs a
  block under one sampled root trace (the CLI's ``--trace``);
* :mod:`.slo` — fixed-bucket phase latency accounting and the p99
  slow-request sampler.

Shard children need no plane of their own: each reply on a shard's
control pipe carries the child's drained registry
(:meth:`MetricsRegistry.drain_flat`) and its completed spans, which the
parent merges into its registry and span sink (:mod:`repro.dist`).

The live roofline plane (v3) adds :mod:`.perf` — measured machine
ceilings (STREAM-style microbenchmarks, cached per host), per-kernel
roofline attribution (``perf.gflops``/``perf.roofline_fraction``
histograms from every engine/serve/dist/threaded invocation), a
GFLOP/s regression watchdog that arms force-sampling, and an opt-in
collapsed-stack sampling profiler.
"""

from .context import TRACE_HEADER, TraceContext, from_header, new_trace
from .hub import TraceHub, install_hub, recording, uninstall_hub
from .metrics import (
    DEFAULT_BUCKETS,
    HistogramSummary,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    sample_process_gauges,
)
from .perf import (
    MachineCeilings,
    PerfAttributor,
    PerfWatchdog,
    StackSampler,
    get_ceilings,
    measure_ceilings,
    observe_kernel,
)
from .slo import SloTracker, SlowSample
from .trace import (
    NULL_SPAN,
    SpanEvent,
    encode_chrome,
    encode_jsonl,
    read_trace,
    set_span_sink,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "HistogramSummary",
    "MachineCeilings",
    "MetricsRegistry",
    "PerfAttributor",
    "PerfWatchdog",
    "NULL_SPAN",
    "SloTracker",
    "SlowSample",
    "SpanEvent",
    "StackSampler",
    "TRACE_HEADER",
    "TraceContext",
    "TraceHub",
    "encode_chrome",
    "encode_jsonl",
    "from_header",
    "get_ceilings",
    "get_registry",
    "install_hub",
    "measure_ceilings",
    "new_trace",
    "observe_kernel",
    "read_trace",
    "recording",
    "render_prometheus",
    "sample_process_gauges",
    "set_span_sink",
    "span",
    "uninstall_hub",
]
