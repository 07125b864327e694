"""Parent-side trace hub: collect sampled spans, merge, build trees.

The hub is the serving parent's span sink (:func:`install_hub` wires
it into :func:`repro.observe.trace.set_span_sink`). Every span
completed under a sampled :class:`~repro.observe.context.TraceContext`
lands here, keyed by ``trace_id`` — shard children's spans too, which
arrive on their compute replies and are handed to this sink by the
shard group. Spans exported by *other* nodes (a cluster router pulls
each node's ``/v1/debug/spans/{id}``) are merged in with
:meth:`TraceHub.add_events`. Because every v2 span carries explicit
``span_id``/``parent_id`` links and an absolute wall-clock stamp,
merging needs no cross-process clock agreement: trees come from the
ids, ordering from ``wall_us``.

The store is bounded two ways: at most ``max_traces`` live traces
(oldest evicted first) and at most ``max_spans_per_trace`` spans per
trace (a runaway solver loop under one context cannot grow without
bound — excess spans are dropped and counted in
``observe.spans_dropped``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from . import metrics as _metrics
from . import trace as _trace
from .trace import SpanEvent


class TraceHub:
    """Bounded per-trace span store with tree/Chrome exports."""

    def __init__(self, *, max_traces: int = 256,
                 max_spans_per_trace: int = 2048):
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[SpanEvent]]" = OrderedDict()

    # -------------------------------------------------------- recording
    def record(self, event: SpanEvent) -> None:
        """Span-sink entry point; must never raise."""
        if not event.trace_id:
            return
        with self._lock:
            if self._insert_locked(event):
                _metrics.inc("observe.spans_recorded")

    def add_events(self, events: list[SpanEvent]) -> int:
        """Merge externally collected spans (other nodes' exports),
        skipping exact duplicates (same span id) already present."""
        added = 0
        with self._lock:
            for e in events:
                if not e.trace_id or any(
                        s.span_id == e.span_id
                        for s in self._traces.get(e.trace_id, ())):
                    continue
                added += self._insert_locked(e)
        return added

    def _insert_locked(self, event: SpanEvent) -> bool:
        """The one bounded insert: a new trace evicts the oldest past
        ``max_traces``, a full trace drops the span."""
        spans = self._traces.get(event.trace_id)
        if spans is None:
            spans = self._traces[event.trace_id] = []
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
                _metrics.inc("observe.traces_evicted")
        if len(spans) >= self.max_spans_per_trace:
            _metrics.inc("observe.spans_dropped")
            return False
        spans.append(event)
        return True

    # ---------------------------------------------------------- queries
    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def get(self, trace_id: str) -> list[SpanEvent]:
        with self._lock:
            return list(self._traces.get(trace_id, []))

    def __contains__(self, trace_id: str) -> bool:
        with self._lock:
            return trace_id in self._traces

    # ---------------------------------------------------------- exports
    def tree(self, trace_id: str) -> list[dict]:
        """The trace as a forest of nested span dicts (usually one
        root): ``{"name", "span_id", "parent_id", "pid", "wall_us",
        "dur_us", "args", "children": [...]}``. Spans whose parent
        never completed (or was dropped) surface as extra roots rather
        than disappearing."""
        spans = sorted(self.get(trace_id), key=lambda e: e.wall_us)
        nodes = {
            e.span_id: {
                "name": e.name,
                "span_id": e.span_id,
                "parent_id": e.parent_id,
                "pid": e.pid,
                "wall_us": e.wall_us,
                "dur_us": e.duration_us,
                "args": e.args,
                "children": [],
            }
            for e in spans
        }
        roots: list[dict] = []
        for node in nodes.values():
            parent = nodes.get(node["parent_id"])
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def to_chrome(self, trace_id: str) -> dict:
        """One merged Chrome trace (``about://tracing`` / Perfetto);
        timestamps are absolute wall-clock microseconds, processes keep
        their real pids so parent and shard rows separate."""
        events = [
            {
                "name": e.name,
                "cat": "repro",
                "ph": "X",
                "ts": e.wall_us,
                "dur": e.duration_us,
                "pid": e.pid,
                "tid": e.thread_id,
                "args": {**e.args, "span_id": e.span_id,
                         "parent_id": e.parent_id},
            }
            for e in sorted(self.get(trace_id), key=lambda e: e.wall_us)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


# ---------------------------------------------------------------------
# Process-global hub (the serving parent installs exactly one).
# ---------------------------------------------------------------------
_HUB: TraceHub | None = None


def install_hub(hub: TraceHub | None = None) -> TraceHub:
    """Install (and return) the process-global hub as the span sink.
    Idempotent: an already-installed hub is reused unless an explicit
    ``hub`` is passed."""
    global _HUB
    if hub is None and _HUB is not None:
        return _HUB
    _HUB = hub if hub is not None else TraceHub()
    _trace.set_span_sink(_HUB.record)
    return _HUB


def uninstall_hub() -> None:
    global _HUB
    _HUB = None
    _trace.set_span_sink(None)
