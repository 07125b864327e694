"""Span recording for the SpMV pipeline and the serving tiers.

:func:`span` records only when a span sink is installed
(:func:`set_span_sink`: the process's
:class:`~repro.observe.hub.TraceHub`, or a shard child's list that its
next reply empties) *and* a sampled
:class:`~repro.observe.context.TraceContext` is current. Otherwise it
returns the shared :data:`NULL_SPAN` — no allocation, no lock, no clock
read — so instrumented hot paths stay within noise of uninstrumented
code.

A recorded span carries ``trace_id``/``span_id``/``parent_id`` and
re-binds the current context to itself, so nested spans — and spans in
other processes that receive the propagated context — link into one
tree by their ids. Start times are wall-clock epoch microseconds, so
merging spans from several processes needs no clock agreement.

Exports are two functions over a list of events: :func:`encode_jsonl`
(one :meth:`SpanEvent.to_json` object per line, read back by
:func:`read_trace`) and :func:`encode_chrome` (Chrome trace events for
``about://tracing`` / Perfetto).

Usage::

    from repro.observe import recording, span

    with recording() as events:
        with span("engine.plan", matrix="dense2") as s:
            ...
            s.set(n_blocks=12)
    # events: the block's spans, nested by parent_id
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

from . import context as _context


@dataclass(frozen=True)
class SpanEvent:
    """One completed span."""

    name: str
    start_us: float        #: wall-clock start, epoch microseconds
    duration_us: float
    thread_id: int         #: OS thread ident
    trace_id: str
    span_id: str
    parent_id: str         #: the enclosing span ("" for a root)
    pid: int               #: recording process (cross-process merges)
    args: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ts_us": round(self.start_us, 3),
            "dur_us": round(self.duration_us, 3),
            "tid": self.thread_id,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "args": self.args,
        }

    @classmethod
    def from_json(cls, d: dict) -> "SpanEvent":
        if "span_id" not in d:
            raise ValueError(
                f"span {d.get('name')!r} has no trace/span/parent ids: "
                "a trace in the older schema (with 'depth'), which "
                "read_trace no longer reads; record it again")
        return cls(
            name=d["name"], start_us=d["ts_us"], duration_us=d["dur_us"],
            thread_id=d["tid"], trace_id=d["trace_id"],
            span_id=d["span_id"], parent_id=d["parent_id"],
            pid=d["pid"], args=d.get("args", {}),
        )


class _NullSpan:
    """Shared do-nothing span returned when nothing records."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """A live span under a sampled context; hands a
    :class:`SpanEvent` to the sink on exit."""

    __slots__ = ("name", "args", "_ctx", "_parent_id", "_token",
                 "_wall0", "_start")

    def __init__(self, name: str, args: dict,
                 ctx: "_context.TraceContext"):
        self.name = name
        self.args = args
        self._ctx = ctx

    def __enter__(self) -> "Span":
        # Become the current span: children (this process or a
        # downstream one receiving the context) parent onto us.
        self._parent_id = self._ctx.span_id
        self._ctx = self._ctx.child()
        self._token = _context._set(self._ctx)
        self._wall0 = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_us = (time.perf_counter() - self._start) * 1e6
        _context._reset(self._token)
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        sink, ctx = _SINK, self._ctx
        if sink is not None:
            sink(SpanEvent(
                self.name, self._wall0 * 1e6, dur_us,
                threading.get_ident(), ctx.trace_id, ctx.span_id,
                self._parent_id, os.getpid(), self.args,
            ))
        return False

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (visible in the exports)."""
        self.args.update(attrs)
        return self


def encode_jsonl(events: list[SpanEvent]) -> str:
    """One :meth:`SpanEvent.to_json` object per line."""
    return "".join(json.dumps(e.to_json()) + "\n" for e in events)


def encode_chrome(events: list[SpanEvent]) -> dict:
    """Chrome trace-event JSON (``about://tracing`` / Perfetto): one
    complete ("X") event per span at its wall-clock start. Processes
    keep their real pids, so router, node and shard rows separate, and
    each event's args carry its span and parent ids."""
    return {
        "traceEvents": [
            {
                "name": e.name,
                "cat": "repro",
                "ph": "X",
                "ts": e.start_us,
                "dur": e.duration_us,
                "pid": e.pid,
                "tid": e.thread_id,
                "args": {**e.args, "span_id": e.span_id,
                         "parent_id": e.parent_id},
            }
            for e in sorted(events, key=lambda e: e.start_us)
        ],
        "displayTimeUnit": "ms",
    }


def read_trace(path) -> list[SpanEvent]:
    """Load a JSONL trace written by :func:`encode_jsonl`. A file in
    the older ``depth`` schema raises :class:`ValueError`."""
    with open(path) as f:
        return [SpanEvent.from_json(json.loads(line))
                for line in f if line.strip()]


# ---------------------------------------------------------------------
# The span sink. ``None`` means nothing records: span() then returns
# the shared NULL_SPAN after one module-global read.
# ---------------------------------------------------------------------
_SINK = None        #: Callable[[SpanEvent], None] | None


def set_span_sink(sink) -> None:
    """Install the sampled-span sink (``None`` uninstalls). The sink
    receives every :class:`SpanEvent` completed under a sampled
    :class:`~repro.observe.context.TraceContext`; it must be cheap and
    must never raise."""
    global _SINK
    _SINK = sink


def get_span_sink():
    return _SINK


def span(name: str, **args):
    """Open a span; :data:`NULL_SPAN` unless a sink is installed and
    a sampled trace context is current."""
    if _SINK is None:
        return NULL_SPAN
    ctx = _context.current()
    if ctx is None or not ctx.sampled:
        return NULL_SPAN
    return Span(name, args, ctx)


def emit(name: str, ctx: "_context.TraceContext", start_wall: float,
         duration_s: float, *, as_child: bool = True,
         parent_id: str = "", **args) -> None:
    """Record a completed span directly (cross-thread workers that ran
    outside the context's execution context). ``start_wall`` is a
    ``time.time()`` stamp. With ``as_child`` (default) the span gets a
    fresh id parented onto ``ctx.span_id``; with ``as_child=False`` it
    *is* ``ctx``'s own span (optionally parented onto an explicit
    ``parent_id``) — how a request boundary records the span every
    in-flight child already parented onto."""
    sink = _SINK
    if sink is None or not ctx.sampled:
        return
    if as_child:
        span_id, parent_id = ctx.child().span_id, ctx.span_id
    else:
        span_id = ctx.span_id
    sink(SpanEvent(
        name, start_wall * 1e6, duration_s * 1e6, threading.get_ident(),
        ctx.trace_id, span_id, parent_id, os.getpid(), args,
    ))
