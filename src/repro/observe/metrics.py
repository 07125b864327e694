"""Process-wide metrics registry: counters, gauges, histograms.

Instrumented code reports through the module-level convenience
functions (:func:`inc`, :func:`gauge`, :func:`observe`); consumers
(the ``stats`` CLI command, tests) read aggregates back through
:func:`get_registry`. Metrics are always on — a single dict update
under a lock per event — and instrumentation sites batch per-item
counts (e.g. one ``inc`` per format *kind* chosen, not per block) so
the registry never sits on a per-nonzero path.

Metric names are dotted (``plan.blocks_created``); labels attach as a
sorted ``{k=v}`` suffix, Prometheus-style:
``heuristic.format_chosen{fmt=bcsr}``.

Histograms are **fixed-bucket** (log-spaced bounds, see
:data:`DEFAULT_BUCKETS`): each series is a constant-size aggregate —
count, sum, exact min/max, and per-bucket counts — never a list of raw
observations. That makes a histogram (a) bounded in memory no matter
how many requests flow through, (b) *mergeable across processes* by
summing bucket counts (shard children send their registry home with
every reply, :meth:`MetricsRegistry.drain_flat`, and the parent folds
it in with :meth:`MetricsRegistry.merge_flat`), and (c) quantile-queryable
(:meth:`HistogramSummary.quantile`) for the SLO accounting in
:mod:`repro.observe.slo`. :meth:`MetricsRegistry.render_prometheus`
exports real ``_bucket{le=...}`` series.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field

#: Log-spaced histogram bucket upper bounds: four per decade from 1e-6
#: to 1e4 (seconds-scale latencies, batch sizes, byte ratios all fit).
#: Values above the last bound land in the +Inf overflow bucket.
DEFAULT_BUCKETS: tuple = tuple(
    round(10.0 ** (e / 4.0), 10) for e in range(-24, 17)
)


def _key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Hist:
    """Mutable fixed-bucket aggregate for one histogram series."""

    __slots__ = ("count", "total", "vmin", "vmax", "counts")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.counts = [0] * (len(DEFAULT_BUCKETS) + 1)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.counts[bisect_left(DEFAULT_BUCKETS, value)] += 1

    def merge(self, count: int, total: float, vmin: float, vmax: float,
              counts: dict) -> None:
        """Fold another aggregate (a shard child's drained one) in."""
        self.count += count
        self.total += total
        if vmin < self.vmin:
            self.vmin = vmin
        if vmax > self.vmax:
            self.vmax = vmax
        for i, c in counts.items():
            self.counts[i] += c

    def as_flat(self) -> list:
        """``[count, total, min, max, {bucket index: count}]``, empty
        buckets left out: a shard reply usually carries one
        observation per series, not a full row of zeros."""
        return [self.count, self.total, self.vmin, self.vmax,
                {i: c for i, c in enumerate(self.counts) if c}]

    def summary(self) -> "HistogramSummary":
        if not self.count:
            return HistogramSummary(0, 0.0, 0.0, 0.0)
        return HistogramSummary(
            self.count, self.total, self.vmin, self.vmax,
            bounds=DEFAULT_BUCKETS,
            bucket_counts=tuple(self.counts),
        )


@dataclass(frozen=True)
class HistogramSummary:
    """Aggregate view of one histogram series."""

    count: int
    total: float
    min: float
    max: float
    #: Fixed bucket upper bounds (empty for an empty series).
    bounds: tuple = field(default=())
    #: Per-bucket (non-cumulative) counts; one extra overflow bucket.
    bucket_counts: tuple = field(default=())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``0 <= q <= 1``),
        clamped to the exact observed [min, max]."""
        if not self.count:
            return 0.0
        if not self.bucket_counts:
            return self.max if q >= 0.5 else self.min
        target = q * self.count
        cum = 0.0
        for i, c in enumerate(self.bucket_counts):
            if not c:
                continue
            if cum + c >= target:
                lo = self.bounds[i - 1] if 0 < i <= len(self.bounds) \
                    else self.min
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (target - cum) / c
                est = lo + (hi - lo) * max(0.0, min(frac, 1.0))
                return max(self.min, min(est, self.max))
            cum += c
        return self.max


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, _Hist] = {}

    # -------------------------------------------------------- recording
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        k = _key(name, labels)
        with self._lock:
            self._counters[k] = self._counters.get(k, 0.0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        k = _key(name, labels)
        with self._lock:
            h = self._hists.get(k)
            if h is None:
                h = self._hists[k] = _Hist()
            h.add(float(value))

    # ---------------------------------------------------------- reading
    def counter(self, name: str, **labels) -> float:
        return self._counters.get(_key(name, labels), 0.0)

    def gauge_value(self, name: str, default: float = 0.0,
                    **labels) -> float:
        return self._gauges.get(_key(name, labels), default)

    def histogram(self, name: str, **labels) -> HistogramSummary:
        with self._lock:
            h = self._hists.get(_key(name, labels))
            return h.summary() if h is not None \
                else HistogramSummary(0, 0.0, 0.0, 0.0)

    def snapshot(self) -> dict:
        """Point-in-time copy: ``{"counters", "gauges", "histograms"}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.summary() for k, h in self._hists.items()
                    if h.count
                },
            }

    def drain_flat(self) -> dict:
        """Take every series out of the registry, as pure builtins for
        cross-process shipping: ``{"counters": {k: v}, "gauges":
        {k: v}, "hists": {k: [count, total, min, max, {bucket index:
        count}]}}``, empty sections left out (``{}``: nothing
        recorded). Snapshot and reset happen under one lock hold, so a
        shard child that sends this with every reply sends exactly the
        growth since its previous reply."""
        with self._lock:
            flat = {
                "counters": self._counters,
                "gauges": self._gauges,
                "hists": {k: h.as_flat()
                          for k, h in self._hists.items() if h.count},
            }
            self._counters, self._gauges, self._hists = {}, {}, {}
        return {k: v for k, v in flat.items() if v}

    def merge_flat(self, delta: dict) -> None:
        """Fold a :meth:`drain_flat` image (from another process's
        registry) into this one: counters add, gauges overwrite,
        histogram aggregates merge."""
        with self._lock:
            for k, v in delta.get("counters", {}).items():
                self._counters[k] = self._counters.get(k, 0.0) + v
            for k, v in delta.get("gauges", {}).items():
                self._gauges[k] = float(v)
            for k, flat in delta.get("hists", {}).items():
                h = self._hists.get(k)
                if h is None:
                    h = self._hists[k] = _Hist()
                h.merge(int(flat[0]), float(flat[1]), float(flat[2]),
                        float(flat[3]), flat[4])

    def reset(self) -> None:
        """Drop every series (test isolation; a shard child drops the
        image it inherited from the fork)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()

    # -------------------------------------------------------- rendering
    def render(self, prefix: str | None = None) -> str:
        """Aligned plain-text dump, optionally filtered by name prefix."""
        snap = self.snapshot()
        lines: list[str] = []
        rows: list[tuple[str, str]] = []
        for k in sorted(snap["counters"]):
            if prefix and not k.startswith(prefix):
                continue
            v = snap["counters"][k]
            rows.append((k, f"{v:g}"))
        for k in sorted(snap["gauges"]):
            if prefix and not k.startswith(prefix):
                continue
            rows.append((k, f"{snap['gauges'][k]:g}"))
        for k in sorted(snap["histograms"]):
            if prefix and not k.startswith(prefix):
                continue
            h = snap["histograms"][k]
            rows.append((
                k,
                f"n={h.count} mean={h.mean:.3g} "
                f"min={h.min:.3g} max={h.max:.3g} "
                f"p99={h.quantile(0.99):.3g}",
            ))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(k) for k, _ in rows)
        for k, v in rows:
            lines.append(f"{k.ljust(width)}  {v}")
        return "\n".join(lines)


    def render_prometheus(self, *, prefix: str = "repro_") -> str:
        """Prometheus text exposition (format 0.0.4) of every series.

        Dotted names flatten to underscores (``serve.batches`` →
        ``repro_serve_batches``); label suffixes become Prometheus
        label sets. Histograms export as real histograms: cumulative
        ``_bucket{le="..."}`` series over :data:`DEFAULT_BUCKETS`
        (empty leading/trailing buckets elided, ``+Inf`` always
        present) plus ``_count``/``_sum`` and auxiliary
        ``_min``/``_max`` gauges.
        """
        snap = self.snapshot()
        lines: list[str] = []

        def emit(kind: str, series: dict, fmt) -> None:
            by_name: dict[str, list[tuple[str, object]]] = {}
            for key in sorted(series):
                name, labels = _parse_key(key)
                by_name.setdefault(name, []).append((labels, series[key]))
            for name, entries in sorted(by_name.items()):
                full = prefix + _sanitize(name)
                lines.append(f"# TYPE {full} {kind}")
                for labels, value in entries:
                    fmt(full, labels, value)

        def scalar(full: str, labels: str, value) -> None:
            lines.append(f"{full}{labels} {value:g}")

        def histogram(full: str, labels: str, hist) -> None:
            counts = hist.bucket_counts
            bounds = hist.bounds
            if counts:
                # Elide the empty head and tail: emit the populated
                # bucket range (cumulative counts stay correct).
                lo = next(i for i, c in enumerate(counts) if c)
                hi = max(i for i, c in enumerate(counts) if c)
                cum = sum(counts[:lo])
                for i in range(lo, min(hi + 1, len(bounds))):
                    cum += counts[i]
                    lines.append(
                        f"{full}_bucket{_with_le(labels, bounds[i])} "
                        f"{cum:g}"
                    )
            lines.append(
                f"{full}_bucket{_with_le(labels, '+Inf')} "
                f"{hist.count:g}"
            )
            lines.append(f"{full}_count{labels} {hist.count:g}")
            lines.append(f"{full}_sum{labels} {hist.total:g}")
            lines.append(f"{full}_min{labels} {hist.min:g}")
            lines.append(f"{full}_max{labels} {hist.max:g}")

        emit("counter", snap["counters"], scalar)
        emit("gauge", snap["gauges"], scalar)
        emit("histogram", snap["histograms"], histogram)
        return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset."""
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _with_le(labels: str, bound) -> str:
    """Insert the ``le`` label into a rendered Prometheus label set."""
    le = f'le="{bound:g}"' if isinstance(bound, float) else \
        f'le="{bound}"'
    if not labels:
        return "{" + le + "}"
    return labels[:-1] + "," + le + "}"


def _parse_key(key: str) -> tuple[str, str]:
    """Split a registry key back into (name, prometheus label set)."""
    if "{" not in key:
        return key, ""
    name, inner = key.split("{", 1)
    inner = inner.rstrip("}")
    parts = []
    for item in inner.split(","):
        k, _, v = item.partition("=")
        # Exposition-format escaping: backslash first, then quote and
        # newline, so already-escaped sequences aren't double-mangled.
        v = (v.replace("\\", "\\\\").replace('"', '\\"')
             .replace("\n", "\\n"))
        parts.append(f'{_sanitize(k)}="{v}"')
    return name, "{" + ",".join(parts) + "}"


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def inc(name: str, value: float = 1.0, **labels) -> None:
    _REGISTRY.inc(name, value, **labels)


def gauge(name: str, value: float, **labels) -> None:
    _REGISTRY.gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    _REGISTRY.observe(name, value, **labels)


def render_prometheus(*, prefix: str = "repro_") -> str:
    """Prometheus exposition of the process-global registry."""
    return _REGISTRY.render_prometheus(prefix=prefix)


#: Monotonic origin for ``process.uptime_seconds`` (module import time —
#: effectively process start, since observe loads with the package).
_PROCESS_START = time.monotonic()


def _rss_bytes() -> int | None:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(kb) * 1024  # peak, not current — best effort
    except Exception:
        return None


def _open_fds() -> int | None:
    for path in ("/proc/self/fd", "/dev/fd"):
        try:
            return len(os.listdir(path))
        except OSError:
            continue
    return None


def sample_process_gauges() -> None:
    """Refresh the standard process gauges (``process.rss_bytes``,
    ``process.open_fds``, ``process.uptime_seconds``).

    Called on each ``/metrics`` scrape rather than on a timer: the
    gauges are point-in-time by definition and scrape-driven sampling
    costs nothing between scrapes.
    """
    rss = _rss_bytes()
    if rss is not None:
        gauge("process.rss_bytes", float(rss))
    fds = _open_fds()
    if fds is not None:
        gauge("process.open_fds", float(fds))
    gauge("process.uptime_seconds", time.monotonic() - _PROCESS_START)
