"""Lightweight span tracing for the SpMV pipeline.

Design constraints, in priority order:

1. **Near-zero overhead when disabled** (the default). :func:`span`
   performs one module-global read per gate and returns a shared no-op
   context manager — no allocation, no locking, no clock read.
   Instrumented hot paths therefore stay within noise of the
   un-instrumented code.
2. **Thread-safe when enabled.** Spans may open and close concurrently
   (the native parallel backend, thread pools); completed events
   append under a lock, and per-thread nesting depth lives in
   thread-local storage.
3. **Exportable.** Completed traces serialize to JSONL (one event per
   line, see :meth:`Tracer.write_jsonl` for the schema) and to the
   Chrome trace-event format loadable in ``about://tracing`` / Perfetto.

Two recording paths share the :func:`span` entry point:

* the **process tracer** (:func:`enable` / :func:`disable`) records
  *every* span — the CLI's ``--trace`` flag;
* the **span sink** (:func:`set_span_sink`, installed by
  :class:`repro.observe.hub.TraceHub` in a serving parent, or by a
  shard child as the list its next reply empties) records only spans
  opened under a
  *sampled* :class:`~repro.observe.context.TraceContext`. Spans on
  that path carry ``trace_id``/``span_id``/``parent_id`` and re-bind
  the current context to themselves, so nested spans — and spans in
  other processes that receive the propagated context — link into one
  tree without any global clock agreement.

Usage::

    from repro.observe import trace

    tracer = trace.enable()
    with trace.span("engine.plan", matrix="dense2") as s:
        ...
        s.set(n_blocks=12)
    tracer.write_jsonl("/tmp/plan.jsonl")
    trace.disable()
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from dataclasses import dataclass, field

from . import context as _context

_TOKEN_MISSING = contextvars.Token.MISSING


@dataclass(frozen=True)
class SpanEvent:
    """One completed span."""

    name: str
    start_us: float        #: start, microseconds since tracer creation
    duration_us: float
    thread_id: int         #: OS thread ident
    depth: int             #: nesting depth within the opening thread
    args: dict = field(default_factory=dict)
    trace_id: str = ""     #: request trace (empty: process-local span)
    span_id: str = ""
    parent_id: str = ""
    pid: int = 0           #: recording process (cross-process merges)
    wall_us: float = 0.0   #: absolute wall clock, epoch microseconds

    def to_json(self) -> dict:
        d = {
            "name": self.name,
            "ts_us": round(self.start_us, 3),
            "dur_us": round(self.duration_us, 3),
            "tid": self.thread_id,
            "depth": self.depth,
            "args": self.args,
        }
        if self.trace_id:
            d["trace_id"] = self.trace_id
            d["span_id"] = self.span_id
            d["parent_id"] = self.parent_id
            d["pid"] = self.pid
            d["wall_us"] = round(self.wall_us, 3)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "SpanEvent":
        return cls(
            name=d["name"], start_us=d["ts_us"], duration_us=d["dur_us"],
            thread_id=d.get("tid", 0), depth=d.get("depth", 0),
            args=d.get("args", {}), trace_id=d.get("trace_id", ""),
            span_id=d.get("span_id", ""),
            parent_id=d.get("parent_id", ""), pid=d.get("pid", 0),
            wall_us=d.get("wall_us", 0.0),
        )


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """A live span; records a :class:`SpanEvent` on exit.

    ``tracer`` may be ``None`` when the span exists only for the
    sampled-context sink; ``ctx`` may be ``None`` for plain process
    tracing. At least one of the two is always set (otherwise
    :func:`span` returns :data:`NULL_SPAN`).
    """

    __slots__ = ("_tracer", "name", "args", "_start", "_depth",
                 "_ctx", "_token", "_wall0")

    def __init__(self, tracer: "Tracer | None", name: str, args: dict,
                 ctx: "_context.TraceContext | None" = None):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> "Span":
        if self._ctx is not None:
            # Become the current span: children (this process or a
            # downstream one receiving the context) parent onto us.
            self._ctx = self._ctx.child()
            self._token = _context._set(self._ctx)
        self._depth = (self._tracer._enter_depth()
                       if self._tracer is not None else 0)
        self._wall0 = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        if self._token is not None:
            _context._reset(self._token)
        t = self._tracer
        if t is not None:
            t._exit_depth()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        dur_us = (end - self._start) * 1e6
        if t is not None:
            t._record(
                SpanEvent(
                    name=self.name,
                    start_us=(self._start - t._t0) * 1e6,
                    duration_us=dur_us,
                    thread_id=threading.get_ident(),
                    depth=self._depth,
                    args=self.args,
                )
            )
        sink, ctx = _SINK, self._ctx
        if sink is not None and ctx is not None and ctx.sampled:
            sink(SpanEvent(
                name=self.name,
                start_us=self._wall0 * 1e6,
                duration_us=dur_us,
                thread_id=threading.get_ident(),
                depth=self._depth,
                args=self.args,
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_id=_parent_of(ctx, self._token),
                pid=os.getpid(),
                wall_us=self._wall0 * 1e6,
            ))
        return False

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (visible in the exports)."""
        self.args.update(attrs)
        return self


def _parent_of(ctx, token) -> str:
    """The span id that was current before this span re-bound it."""
    if token is None:
        return ""
    old = token.old_value
    if old is _TOKEN_MISSING or old is None:
        return ""
    return old.span_id


class Tracer:
    """Collects :class:`SpanEvent` records from one process."""

    def __init__(self):
        self._t0 = time.perf_counter()
        self._events: list[SpanEvent] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -------------------------------------------------- span lifecycle
    def span(self, name: str, **args) -> Span:
        return Span(self, name, args, None)

    def _enter_depth(self) -> int:
        d = getattr(self._local, "depth", 0)
        self._local.depth = d + 1
        return d

    def _exit_depth(self) -> None:
        self._local.depth = getattr(self._local, "depth", 1) - 1

    def _record(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    # --------------------------------------------------------- queries
    @property
    def events(self) -> list[SpanEvent]:
        """Snapshot of completed spans (children precede parents —
        events are recorded at span *exit*)."""
        with self._lock:
            return list(self._events)

    def names(self) -> list[str]:
        return [e.name for e in self.events]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # --------------------------------------------------------- exports
    def write_jsonl(self, path) -> int:
        """One JSON object per line:
        ``{"name", "ts_us", "dur_us", "tid", "depth", "args"}``.
        Returns the number of events written."""
        events = self.events
        with open(path, "w") as f:
            for e in events:
                f.write(json.dumps(e.to_json()) + "\n")
        return len(events)

    def to_chrome(self) -> list[dict]:
        """Chrome trace-event format (``about://tracing`` / Perfetto):
        complete ("X") events with microsecond timestamps."""
        return [
            {
                "name": e.name,
                "cat": "repro",
                "ph": "X",
                "ts": e.start_us,
                "dur": e.duration_us,
                "pid": e.pid,
                "tid": e.thread_id,
                "args": e.args,
            }
            for e in self.events
        ]

    def write_chrome(self, path) -> int:
        events = self.to_chrome()
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        return len(events)


def read_trace(path) -> list[SpanEvent]:
    """Load a JSONL trace written by :meth:`Tracer.write_jsonl`."""
    events: list[SpanEvent] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(SpanEvent.from_json(json.loads(line)))
    return events


# ---------------------------------------------------------------------
# Process-global tracer. ``None`` means disabled; span() then returns
# the shared NULL_SPAN without touching a clock or a lock — unless a
# span sink is installed AND a sampled trace context is current.
# ---------------------------------------------------------------------
_TRACER: Tracer | None = None
_SINK = None        #: Callable[[SpanEvent], None] | None


def enable(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the process-global tracer."""
    global _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    return _TRACER


def disable() -> None:
    global _TRACER
    _TRACER = None


def get_tracer() -> Tracer | None:
    return _TRACER


def is_enabled() -> bool:
    return _TRACER is not None


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
    """Open a span; no-op unless the process tracer is enabled or a
    sampled trace context is current with a sink installed."""
    t = _TRACER
    ctx = None
    if _SINK is not None:
        ctx = _context.current()
        if ctx is not None and not ctx.sampled:
            ctx = None
    if t is None and ctx is None:
        return NULL_SPAN
    return Span(t, name, args, ctx)


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
        name=name,
        start_us=start_wall * 1e6,
        duration_us=duration_s * 1e6,
        thread_id=threading.get_ident(),
        depth=0,
        args=args,
        trace_id=ctx.trace_id,
        span_id=span_id,
        parent_id=parent_id,
        pid=os.getpid(),
        wall_us=start_wall * 1e6,
    ))
