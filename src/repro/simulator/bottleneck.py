"""Bottleneck attribution: turn ``SimResult`` streams into tables.

The paper's §6 explains every platform's behaviour as a composition of
three limits — DRAM bandwidth, core compute throughput, and exposed
memory latency — plus two modifiers, thread imbalance and LLC
residency. This module computes those *time shares* per simulation and
aggregates them per (machine, matrix) so a whole Figure-1 sweep reduces
to one explanatory table.

Share semantics: the executor models one SpMV pass as a composition of
``compute_time_s`` and ``memory_time_s``; we report each component's
fraction of total modeled work ``compute + memory`` (shares sum to 1.0
regardless of whether the machine overlaps them). The memory component
is attributed to **memory** (DRAM-bandwidth-limited) or **latency**
(demand-miss-limited, e.g. single-thread in-order Niagara) according to
the bandwidth model's own bottleneck classification.

This module is duck-typed over result objects (anything with
``compute_time_s``, ``memory_time_s``, ``bottleneck``, ... attributes).
The *live* counterpart — achieved GFLOP/s against this host's measured
roofline — is :mod:`repro.observe.perf.attribution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BottleneckShares:
    """Memory/compute/latency time shares of one simulation; sum to 1."""

    memory: float
    compute: float
    latency: float

    @property
    def dominant(self) -> str:
        pairs = [("memory", self.memory), ("compute", self.compute),
                 ("latency", self.latency)]
        return max(pairs, key=lambda p: p[1])[0]

    def as_dict(self) -> dict:
        return {"memory": self.memory, "compute": self.compute,
                "latency": self.latency}


def bottleneck_shares(
    compute_time_s: float,
    memory_time_s: float,
    memory_kind: str = "memory",
) -> BottleneckShares:
    """Split total modeled work into shares summing to 1.0.

    ``memory_kind`` routes the memory component: ``"memory"`` when the
    bandwidth model hit a DRAM/FSB/NUMA-link ceiling, ``"latency"``
    when concurrency-limited demand misses set the rate.
    """
    total = compute_time_s + memory_time_s
    if total <= 0:
        return BottleneckShares(0.0, 1.0, 0.0)
    mem = memory_time_s / total
    comp = compute_time_s / total
    if memory_kind == "latency":
        return BottleneckShares(0.0, comp, mem)
    return BottleneckShares(mem, comp, 0.0)


def _memory_kind(result) -> str:
    """Classify the memory component of a result as dram vs latency."""
    bw = result.extras.get("bw_model") if hasattr(result, "extras") else None
    if bw is not None and getattr(bw, "bottleneck", None) == "latency":
        return "latency"
    if result.bottleneck == "latency":
        return "latency"
    return "memory"


def attribute(result) -> BottleneckShares:
    """Bottleneck shares for one ``SimResult``-like object.

    Prefers the ``attribution`` dict the executor attaches to
    ``result.extras``; recomputes from the time components otherwise,
    so pre-instrumentation results (e.g. deserialized ones) still work.
    """
    extras = getattr(result, "extras", None) or {}
    att = extras.get("attribution")
    if att is not None:
        return BottleneckShares(
            memory=att["memory_share"], compute=att["compute_share"],
            latency=att["latency_share"],
        )
    return bottleneck_shares(
        result.compute_time_s, result.memory_time_s, _memory_kind(result)
    )


@dataclass(frozen=True)
class AttributionRecord:
    """One simulation, annotated for aggregation."""

    machine: str
    matrix: str
    label: str              #: configuration label ("1 Core[PF]", ...)
    time_s: float
    gflops: float
    shares: BottleneckShares
    imbalance: float
    cache_resident: bool


@dataclass
class _Group:
    n: int = 0
    time_s: float = 0.0
    flops: float = 0.0
    mem_time: float = 0.0
    comp_time: float = 0.0
    lat_time: float = 0.0
    max_imbalance: float = 1.0
    any_resident: bool = False


class BottleneckAttribution:
    """Aggregates a stream of simulation results.

    ``add()`` each result (optionally tagging matrix and configuration
    label); ``rows()``/``table()`` reduce to per-group aggregates with
    *time-weighted* shares — a config that takes 10x longer moves the
    aggregate 10x more, matching "where did the sweep's time go".
    """

    def __init__(self):
        self.records: list[AttributionRecord] = []

    def add(self, result, *, matrix: str = "?",
            label: str = "") -> AttributionRecord:
        shares = attribute(result)
        rec = AttributionRecord(
            machine=result.machine_name,
            matrix=matrix,
            label=label,
            time_s=result.time_s,
            gflops=result.gflops,
            shares=shares,
            imbalance=getattr(result, "imbalance", 1.0),
            cache_resident=getattr(result, "cache_resident", False),
        )
        self.records.append(rec)
        return rec

    # ------------------------------------------------------ aggregation
    def rows(self, group_by=("machine", "matrix")) -> list[dict]:
        """Aggregate rows, one per distinct ``group_by`` key tuple."""
        groups: dict[tuple, _Group] = {}
        order: list[tuple] = []
        for rec in self.records:
            key = tuple(getattr(rec, f) for f in group_by)
            g = groups.get(key)
            if g is None:
                g = groups[key] = _Group()
                order.append(key)
            g.n += 1
            g.time_s += rec.time_s
            g.flops += rec.gflops * rec.time_s * 1e9
            g.mem_time += rec.shares.memory * rec.time_s
            g.comp_time += rec.shares.compute * rec.time_s
            g.lat_time += rec.shares.latency * rec.time_s
            g.max_imbalance = max(g.max_imbalance, rec.imbalance)
            g.any_resident = g.any_resident or rec.cache_resident
        out = []
        for key in order:
            g = groups[key]
            denom = g.mem_time + g.comp_time + g.lat_time
            share = (lambda v: v / denom if denom else 0.0)
            row = dict(zip(group_by, key))
            dominant = max(
                [("memory", g.mem_time), ("compute", g.comp_time),
                 ("latency", g.lat_time)], key=lambda p: p[1],
            )[0]
            row.update({
                "n": g.n,
                "time_s": g.time_s,
                "gflops": g.flops / g.time_s / 1e9 if g.time_s else 0.0,
                "memory_share": share(g.mem_time),
                "compute_share": share(g.comp_time),
                "latency_share": share(g.lat_time),
                "bound": dominant,
                "max_imbalance": g.max_imbalance,
                "cache_resident": g.any_resident,
            })
            out.append(row)
        return out

    def table(self, group_by=("machine", "matrix"),
              title: str | None = None) -> str:
        """Render :meth:`rows` as an aligned monospace table."""
        from ..analysis.report import format_table

        rows = self.rows(group_by)
        headers = [*group_by, "n", "GF/s", "mem%", "comp%", "lat%",
                   "bound", "imbal", "LLC-fit"]
        body = [
            [
                *(r[f] for f in group_by), r["n"],
                f"{r['gflops']:.3f}",
                f"{100 * r['memory_share']:.0f}",
                f"{100 * r['compute_share']:.0f}",
                f"{100 * r['latency_share']:.0f}",
                r["bound"],
                f"{r['max_imbalance']:.2f}",
                "yes" if r["cache_resident"] else "no",
            ]
            for r in rows
        ]
        return format_table(headers, body, title=title)
