"""Trace hub: the process's one span sink, merged into bounded trees.

:func:`install_hub` wires the hub into
:func:`repro.observe.trace.set_span_sink`. Every span completed under a
sampled :class:`~repro.observe.context.TraceContext` lands here, keyed
by ``trace_id`` — shard children's spans too, which arrive on their
compute replies and are handed to this sink by the shard group. Spans
exported by *other* nodes (a cluster router pulls each node's
``/v1/debug/spans/{id}``) are merged in with
:meth:`TraceHub.add_events`. Every span carries explicit
``span_id``/``parent_id`` links and a wall-clock start, so merging
needs no cross-process clock agreement: trees come from the ids,
ordering from the start times.

The store is bounded two ways: at most ``max_traces`` live traces
(oldest evicted first) and at most ``max_spans_per_trace`` spans per
trace (a runaway solver loop under one context cannot grow without
bound — excess spans are dropped and counted in
``observe.spans_dropped``).

:func:`recording` runs a block under one sampled root trace in a fresh
hub — the CLI's ``--trace`` / ``--trace-chrome``, and the way tests
read what a piece of code records.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict

from . import context as _context
from . import metrics as _metrics
from . import trace as _trace
from .trace import SpanEvent


class TraceHub:
    """Bounded per-trace span store with a tree export."""

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

    # ---------------------------------------------------------- exports
    def tree(self, trace_id: str) -> list[dict]:
        """The trace as a forest of nested span dicts (usually one
        root): ``{"name", "span_id", "parent_id", "pid", "wall_us",
        "dur_us", "args", "children": [...]}``. Spans whose parent
        never completed (or was dropped) surface as extra roots rather
        than disappearing."""
        spans = sorted(self.get(trace_id), key=lambda e: e.start_us)
        nodes = {
            e.span_id: {
                "name": e.name,
                "span_id": e.span_id,
                "parent_id": e.parent_id,
                "pid": e.pid,
                "wall_us": e.start_us,
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


# ---------------------------------------------------------------------
# Process-global hub (a process installs exactly one).
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


@contextlib.contextmanager
def recording(name: str = "repro"):
    """Record the block as one sampled trace in a fresh hub.

    Installs a new :class:`TraceHub` as the process hub and span sink,
    opens the root span ``name`` under a new sampled context, and
    yields a list. When the block exits, the previous hub and sink come
    back and the list holds every span the block's hub kept: the root
    trace first, then any request traces sampled meanwhile (a server
    run inside the block), within the hub's bounds. Threads that do not
    carry the root context (a server's handlers) record only their
    sampled requests.
    """
    global _HUB
    prev_hub, prev_sink = _HUB, _trace.get_span_sink()
    hub = install_hub(TraceHub())
    root = _context.new_trace(sampled=True)
    events: list[SpanEvent] = []
    try:
        with _context.use(root), _trace.span(name):
            yield events
    finally:
        _HUB = prev_hub
        _trace.set_span_sink(prev_sink)
        for trace_id in sorted(hub.trace_ids(),
                               key=lambda t: t != root.trace_id):
            events.extend(hub.get(trace_id))
