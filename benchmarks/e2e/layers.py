"""The traced pass: the workload's ladder plus per-layer probes.

Every layer is measured from outside, by timing calls into public
functions; spans inside the program are a later issue.

**Ladder.** Each iteration takes a request id and calls the
workload's public entry points outermost first on the same input —
``http_json``: HTTP round trip → ``Router.handle`` → ``client.spmv``
→ ``spmv_backend``. Every call is a span (name, request id, parent =
the rung above, start, end). A layer's self time is its rung's p50
minus the p50 of the rung below, so the self times sum to the outer
rung exactly. Chunks of traced iterations alternate with chunks of
the plain workload step, and ``trace.overhead_share`` compares the
two under the same host state.

**Probes.** Named per-layer metrics are the p50 of calls interleaved
round-robin inside one group, so that differences between two probes
(``serve.flush_wait_ms`` = request − request with no deadline) are
taken between calls that saw the same seconds of host contention.
All probes run on the traced workload's own matrix; *count* metrics
are exact and repeat from run to run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import SpmvEngine, get_machine
from repro.cluster import wire
from repro.cluster.bench import banded_matrix
from repro.cluster.client import ClusterClient
from repro.cluster.router import start_router
from repro.formats.base import IndexWidth
from repro.formats.convert import coo_to_csr
from repro.kernels.cbackend import spmv_c
from repro.kernels.registry import spmm_backend, spmv_backend
from repro.observe.metrics import get_registry
from repro.observe.perf.attribution import KernelCounts
from repro.parallel.partition import partition_rows_balanced
from repro.parallel.threaded import threaded_spmv
from repro.serve.routes import Request

from . import stats
from .inputs import POOL, Inputs
from .provenance import cache_bytes, cache_sizes
from .run import OUT as OUT_DIR
from .runner import Tally
from .workloads import (BACKEND, MACHINE, WAVE, Stack, Workload, call_http,
                        call_lib, call_serve, call_wire, decode_json,
                        http_bodies, step_wave)

#: Traced ladder iterations, then as many plain workload steps.
CHUNK = 4
#: Share of ``--seconds`` the ladder gets; the probe groups share the
#: rest (their shares are in :func:`run_traced`).
LADDER_SHARE = 0.3
#: Bytes per triad array; the pass prints this next to the cache sizes.
TRIAD_BYTES = 64 << 20
#: Share of a probe group's budget spent on its cache-flushing probes
#: (k=8 SpMM, triad), which run after the group, never inside it.
FLUSHING_SHARE = 0.25

#: Measured only under ``--layers`` and absent from BENCHMARK.json:
#: these start child processes or create /dev/shm segments, which no
#: run the driver makes may do. ``{name: unit}``.
EXTRAS = {
    "cluster.shm_roundtrip_ms": "ms",
    "dist.register_s": "s",
    "dist.spmv_ms": "ms",
    "dist.spmm8_ms": "ms",
    "dist.retries": "count",
}


# ----------------------------------------------------------------------
# Ladders
# ----------------------------------------------------------------------
def _kernel_lib(stack: Stack, i: int):
    t = stack.tuned
    return spmv_backend(t.matrix, stack.inputs.xs[i],
                        backend=t.plan.backend)


def _raw_lib(stack: Stack, i: int):
    """The kernel with no registry wrapper around it."""
    t = stack.tuned
    if t.plan.backend == "c":
        return spmv_c(t.matrix, stack.inputs.xs[i])
    return t.matrix.spmv(stack.inputs.xs[i])


def _kernel_serve(stack: Stack, i: int):
    e = stack.entry
    return spmv_backend(e.matrix, stack.inputs.xs[i],
                        backend=e.plan.backend)


def _kernel_serve_block(stack: Stack, i: int):
    e = stack.entry
    return spmm_backend(e.matrix, stack.x_block, backend=e.plan.backend)


def _client_spmv(stack: Stack, i: int):
    return stack.client.spmv(stack.fp, stack.inputs.xs[i])


def _routes(stack: Stack, i: int):
    resp = stack.router.handle(
        Request("POST", "/v1/spmv", {}, stack.bodies[i]))
    if resp.status != 200:
        raise RuntimeError(f"Router.handle {resp.status}: "
                           f"{resp.body[:200]!r}")
    return resp.body


@dataclass(frozen=True)
class Rung:
    """One public entry point on a workload's path."""

    name: str
    layer: str
    call: Callable[[Stack, int], object]


def as_results(i: int, out) -> list[tuple[int, np.ndarray]]:
    """What a timed call returned, as ``(pool index, y)`` pairs for the
    oracle: a JSON body, a wave of completed requests, an SpMM block
    whose column j answers pool vector j, or y itself."""
    if isinstance(out, bytes):
        return [(i, decode_json(out))]
    if isinstance(out, list):
        return [(j, y) for _, j, y in out]
    if out.ndim == 2:
        return [(j, out[:, j]) for j in range(out.shape[1])]
    return [(i, out)]


_REQUEST = Rung("serve.client.spmv", "serve.scheduler", _client_spmv)
_KERNEL_SERVE = Rung("kernels.spmv_backend", "kernels", _kernel_serve)

_LIB = (
    Rung("core.tuned_call", "core", call_lib),
    Rung("kernels.spmv_backend", "kernels.registry", _kernel_lib),
    Rung("kernels.spmv_c", "kernels.cbackend", _raw_lib),
)

#: Workload name → its public entry points, outermost first.
LADDERS: dict[str, tuple[Rung, ...]] = {
    "lib_fem": _LIB,
    "lib_webbase": _LIB,
    "serve_seq": (
        Rung("serve.operator.spmv", "serve.scheduler", call_serve),
        _KERNEL_SERVE,
    ),
    "serve_burst": (
        Rung("serve.wave8", "serve.scheduler", step_wave),
        Rung("kernels.spmm_backend", "kernels", _kernel_serve_block),
    ),
    "http_json": (
        Rung("http.roundtrip", "serve.transport", call_http),
        Rung("serve.routes.handle", "serve.routes", _routes),
        _REQUEST,
        _KERNEL_SERVE,
    ),
    "wire_epidem": (
        Rung("cluster.client.spmv", "cluster", call_wire),
        _REQUEST,
        _KERNEL_SERVE,
    ),
}


def counter(name: str) -> float:
    """A public-registry counter summed over its label sets."""
    counters = get_registry().snapshot()["counters"]
    return sum(v for k, v in counters.items()
               if k == name or k.startswith(name + "{"))


class Tracer:
    """Times calls, keeps every one as a span, and holds the first
    result of each named call up to the oracle."""

    def __init__(self, inputs: Inputs, tally: Tally):
        self.inputs = inputs
        self.tally = tally
        #: (name, request id, parent, start, end) — written at exit.
        self.spans: list[tuple[str, int, str | None, float, float]] = []

    def timed(self, name: str, request_id: int, parent: str | None,
              fn: Callable, *args) -> tuple[object, float]:
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.spans.append((name, request_id, parent, t0, t1))
        return out, (t1 - t0) * 1e3

    def check(self, i: int, out) -> None:
        """Count one attempted call whose result must match the oracle."""
        self.tally.attempted += 1
        self.tally.failed += not all(
            self.inputs.correct(j, y) for j, y in as_results(i, out))

    def interleave(self, probes: dict[str, Callable[[int], object]],
                   budget_s: float, *, unchecked: tuple[str, ...] = (),
                   min_rounds: int = 3) -> dict[str, float]:
        """Call every probe once per round, in an order reshuffled each
        round (fixed seed), until the budget is spent; returns each
        probe's p50 in milliseconds. The shuffle matters: a call's
        cache state is set by whatever ran just before it, and a fixed
        order would hand one probe a warm matrix every time and its
        neighbour a cold one. Each probe is handed the round number
        and must answer for pool vector ``r % POOL``; its round-0
        answer is checked unless it is ``unchecked``."""
        ms: dict[str, list[float]] = {name: [] for name in probes}
        order = list(probes)
        shuffle = random.Random(0).shuffle
        t_stop = time.perf_counter() + budget_s
        r = 0
        while r < min_rounds or time.perf_counter() < t_stop:
            shuffle(order)
            for name in order:
                out, elapsed = self.timed(name, r, None, probes[name], r)
                ms[name].append(elapsed)
                if r == 0 and name not in unchecked:
                    self.check(0, out)
            r += 1
        return {name: stats.percentile(v, 50.0) for name, v in ms.items()}

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"provenance": header}) + "\n")
            for name, rid, parent, t0, t1 in self.spans:
                f.write(json.dumps({
                    "name": name, "request_id": rid, "parent": parent,
                    "start": t0, "end": t1}) + "\n")


def run_ladder(workload: Workload, stack: Stack, budget_s: float,
               tracer: Tracer) -> dict:
    """Alternate chunks of traced ladder iterations and plain workload
    steps; returns the ladder's numbers (see module docstring)."""
    rungs = LADDERS[workload.name]
    rung_ms: list[list[float]] = [[] for _ in rungs]
    plain_ms: list[float] = []
    counted = ("c_backend.calls", "c_backend.fallbacks", "serve.batches",
               "serve.batched_requests")
    before = {name: counter(name) for name in counted}
    rid = 0
    t_stop = time.perf_counter() + budget_s
    while rid < POOL or time.perf_counter() < t_stop:
        for _ in range(CHUNK):
            i, parent = rid % POOL, None
            for rung, ms in zip(rungs, rung_ms):
                out, elapsed = tracer.timed(rung.name, rid, parent,
                                            rung.call, stack, i)
                ms.append(elapsed)
                if rid < POOL:
                    tracer.check(i, out)
                parent = rung.name
            rid += 1
        for k in range(CHUNK):
            plain_ms.extend(
                done[0] * 1e3 for done in
                tracer.tally.attempt(workload, stack, rid + k))
    p50 = [stats.percentile(ms, 50.0) for ms in rung_ms]
    plain_p50 = stats.percentile(plain_ms, 50.0)
    return {
        "rungs": [{"name": rung.name, "layer": rung.layer, "p50_ms": a,
                   "self_ms": a - b}
                  for rung, a, b in zip(rungs, p50, p50[1:] + [0.0])],
        "iterations": rid,
        "outer_ms": p50[0],
        "plain_p50_ms": plain_p50,
        "overhead_share": (p50[0] - plain_p50) / plain_p50,
        "delta": {name: counter(name) - before[name] for name in counted},
    }


# ----------------------------------------------------------------------
# Probe groups
# ----------------------------------------------------------------------
def kernel_probes(stack: Stack, budget_s: float, tracer: Tracer) -> dict:
    inputs, tuned = stack.inputs, stack.tuned
    matrix, backend = tuned.matrix, tuned.plan.backend
    xs, x_block = inputs.xs, stack.x_block
    csr = coo_to_csr(inputs.coo)
    small = coo_to_csr(banded_matrix(256))
    x_small = np.ones(256)
    p50 = tracer.interleave({
        "kernels.spmv": lambda r: _kernel_lib(stack, r % POOL),
        "kernels.raw_spmv": lambda r: _raw_lib(stack, r % POOL),
        "kernels.spmv_csr": lambda r: spmv_backend(
            csr, xs[r % POOL], backend=backend),
        "kernels.scipy_csr": lambda r: inputs.scipy_csr @ xs[r % POOL],
        "kernels.spmv_numpy": lambda r: spmv_backend(
            csr, xs[r % POOL], backend="numpy"),
        "kernels.small_call": lambda r: spmv_backend(
            small, x_small, backend=backend),
    }, (1.0 - FLUSHING_SHARE) * budget_s, unchecked=("kernels.small_call",))
    # The two probes that sweep far more memory than the matrix run
    # on their own, so they cannot evict it between the calls above.
    p50.update(tracer.interleave({
        "kernels.spmm8": lambda r: spmm_backend(
            matrix, x_block, backend=backend),
    }, FLUSHING_SHARE * budget_s / 2))
    n = TRIAD_BYTES // 8
    a, b, c = np.zeros(n), np.ones(n), np.full(n, 2.0)
    p50.update(tracer.interleave({
        "kernels.triad": lambda r: np.add(b, c, out=a),
    }, FLUSHING_SHARE * budget_s / 2, unchecked=("kernels.triad",)))
    del a, b, c
    spmv_s = p50["kernels.spmv"] / 1e3
    counts = KernelCounts.for_matrix(matrix)
    gbs = counts.total_bytes() / spmv_s / 1e9
    triad_gbs = 3 * TRIAD_BYTES / (p50["kernels.triad"] / 1e3) / 1e9
    return {
        "kernels.spmv_ms": p50["kernels.spmv"],
        "kernels.spmv_csr_ms": p50["kernels.spmv_csr"],
        "kernels.spmv_numpy_ms": p50["kernels.spmv_numpy"],
        "kernels.raw_spmv_ms": p50["kernels.raw_spmv"],
        "kernels.dispatch_overhead_us":
            (p50["kernels.spmv"] - p50["kernels.raw_spmv"]) * 1e3,
        "kernels.small_call_us": p50["kernels.small_call"] * 1e3,
        "kernels.spmm8_ms": p50["kernels.spmm8"],
        "kernels.spmm8_gain":
            WAVE * p50["kernels.spmv"] / p50["kernels.spmm8"],
        "kernels.gflops": counts.total_flops() / spmv_s / 1e9,
        "kernels.gbs_computed": gbs,
        "kernels.triad_gbs": triad_gbs,
        "kernels.triad_fraction": gbs / triad_gbs,
        "kernels.x_vs_scipy":
            p50["kernels.scipy_csr"] / p50["kernels.spmv"],
        "core.plan_regret":
            p50["kernels.spmv"] / p50["kernels.spmv_csr"],
    }


def core_probes(stack: Stack, budget_s: float, tracer: Tracer) -> dict:
    coo = stack.inputs.coo
    engine = SpmvEngine(get_machine(MACHINE))
    plans = []
    names = ("core.plan", "core.materialize", "formats.convert_csr")
    p50 = tracer.interleave(dict(zip(names, (
        lambda r: plans.append(engine.plan(coo, backend=BACKEND)),
        lambda r: plans[-1].materialize(coo),
        lambda r: coo_to_csr(coo),
    ))), budget_s, unchecked=names, min_rounds=2)
    matrix = stack.tuned.matrix
    csr32 = coo_to_csr(coo, index_width=IndexWidth.I32)
    return {
        "core.plan_s": p50["core.plan"] / 1e3,
        "core.materialize_s": p50["core.materialize"] / 1e3,
        "formats.convert_csr_s": p50["formats.convert_csr"] / 1e3,
        "core.n_blocks": float(matrix.n_blocks),
        "formats.footprint_bytes": float(matrix.footprint_bytes()),
        "formats.footprint_ratio":
            matrix.footprint_bytes() / csr32.footprint_bytes(),
        "formats.fill_ratio": float(matrix.fill_ratio),
    }


def timed_register(stack: Stack) -> float:
    """``ServeClient.register`` on a fresh client, in seconds."""
    stack.client
    t0 = time.perf_counter()
    stack.fp
    return time.perf_counter() - t0


def service_probes(stack: Stack, budget_s: float, tracer: Tracer,
                   register_s: float) -> dict:
    """serve, serve.routes, serve.transport and cluster in one group:
    every overhead below is a difference between two of its probes."""
    inputs = stack.inputs
    fp, xs = stack.fp, inputs.xs
    with Stack(inputs, flush_deadline_s=0.0) as eager, \
            Stack(inputs, trace_sample_rate=1.0) as sampled, \
            start_router([stack.node.address], replication=1) as router, \
            ClusterClient(router.address) as via_router:
        registers = [register_s, timed_register(eager),
                     timed_register(sampled)]
        # First calls connect; keep that out of the timed rounds.
        response_bytes = len(call_http(stack, 0))
        call_wire(stack, 0)
        via_router.spmv(fp, xs[0])
        rejected = counter("serve.rejected")
        p50 = tracer.interleave({
            "serve.http": lambda r: call_http(stack, r % POOL),
            "serve.routes": lambda r: _routes(stack, r % POOL),
            "cluster.via_router": lambda r: via_router.spmv(
                fp, xs[r % POOL]),
            "cluster.roundtrip": lambda r: call_wire(stack, r % POOL),
            "serve.request": lambda r: _client_spmv(stack, r % POOL),
            "serve.request_eager":
                lambda r: _client_spmv(eager, r % POOL),
            "serve.request_sampled":
                lambda r: _client_spmv(sampled, r % POOL),
            "serve.kernel": lambda r: _kernel_serve(stack, r % POOL),
        }, (1.0 - FLUSHING_SHARE) * budget_s)
        p50.update(tracer.interleave({
            "serve.wave8": lambda r: step_wave(stack, r),
        }, FLUSHING_SHARE * budget_s))
        rejected = counter("serve.rejected") - rejected
    return {
        "serve.register_s": stats.percentile(registers, 50.0),
        "serve.request_ms": p50["serve.request"],
        "serve.kernel_ms": p50["serve.kernel"],
        "serve.sched_overhead_ms":
            p50["serve.request"] - p50["serve.kernel"],
        "serve.flush_wait_ms":
            p50["serve.request"] - p50["serve.request_eager"],
        "serve.wave8_ms": p50["serve.wave8"],
        "serve.coalesce_gain":
            WAVE * p50["serve.request"] / p50["serve.wave8"],
        "serve.rejected": rejected,
        "serve.routes_ms": p50["serve.routes"],
        "serve.json_overhead_ms":
            p50["serve.routes"] - p50["serve.request"],
        "serve.transport_overhead_ms":
            p50["serve.http"] - p50["serve.routes"],
        "serve.http_request_bytes": float(len(stack.bodies[0])),
        "serve.http_response_bytes": float(response_bytes),
        "cluster.roundtrip_ms": p50["cluster.roundtrip"],
        "cluster.wire_overhead_ms":
            p50["cluster.roundtrip"] - p50["serve.request"],
        "cluster.router_hop_ms":
            p50["cluster.via_router"] - p50["cluster.roundtrip"],
        "observe.sampled_overhead_ms":
            p50["serve.request_sampled"] - p50["serve.request"],
    }


def codec_probes(stack: Stack, budget_s: float, tracer: Tracer) -> dict:
    """``cluster.wire`` on its own: encode one SPMV frame, decode it
    the way the async front end does (64 KiB reads)."""
    x = stack.inputs.xs[0]
    header = {"fingerprint": stack.fp, "n": int(x.shape[0])}
    _, view = wire.vector_payload(x)
    frame = wire.encode_frame(wire.KIND_SPMV, header, view)

    def decode(r: int) -> np.ndarray:
        assembler = wire.FrameAssembler()
        for off in range(0, len(frame), 1 << 16):
            frames = assembler.feed(frame[off:off + (1 << 16)])
        _, head, payload = frames[0]
        return wire.payload_vector(payload, head["n"])

    names = ("cluster.encode", "cluster.decode")
    p50 = tracer.interleave(dict(zip(names, (
        lambda r: wire.encode_frame(wire.KIND_SPMV, header, view),
        decode,
    ))), budget_s, unchecked=names)
    return {
        "cluster.encode_ms": p50["cluster.encode"],
        "cluster.decode_ms": p50["cluster.decode"],
        "cluster.request_bytes": float(len(frame)),
    }


def parallel_probes(stack: Stack, budget_s: float, tracer: Tracer) -> dict:
    """Two kernel threads on two cores: runnable threads = cores, so
    the generator competes with them and the number is not gated."""
    inputs = stack.inputs
    csr = coo_to_csr(inputs.coo)
    backend = stack.tuned.plan.backend
    xs = inputs.xs
    p50 = tracer.interleave({
        "parallel.threaded2": lambda r: threaded_spmv(
            csr, xs[r % POOL], n_threads=2),
        "parallel.serial": lambda r: spmv_backend(
            csr, xs[r % POOL], backend=backend),
    }, budget_s)
    return {
        "parallel.threaded2_ms": p50["parallel.threaded2"],
        "parallel.speedup2":
            p50["parallel.serial"] / p50["parallel.threaded2"],
        "parallel.nnz_imbalance":
            partition_rows_balanced(inputs.coo, 2).imbalance,
    }


def process_extras(stack: Stack, budget_s: float, tracer: Tracer) -> dict:
    """``--layers`` only: the tiers that fork or map /dev/shm."""
    from repro.dist import ShardGroup

    inputs = stack.inputs
    xs, x_block, fp = inputs.xs, stack.x_block, stack.fp
    out = {}
    retries = counter("dist.retries")
    try:
        with ShardGroup(2, backend=BACKEND) as group:
            t0 = time.perf_counter()
            handle = group.register(inputs.coo)
            out["dist.register_s"] = time.perf_counter() - t0
            p50 = tracer.interleave({
                "dist.spmv": lambda r: group.spmv(handle, xs[r % POOL]),
                "dist.spmm8": lambda r: group.spmm(handle, x_block),
            }, budget_s / 2)
        out["dist.spmv_ms"] = p50["dist.spmv"]
        out["dist.spmm8_ms"] = p50["dist.spmm8"]
        out["dist.retries"] = counter("dist.retries") - retries
        with ClusterClient(stack.node.address, shm=True) as shm:
            # The client learns a matrix's shape when it registers it
            # over HTTP; ours went straight onto the node's ServeClient,
            # so hand it over the way repro.cluster.bench does.
            shm._shapes[fp] = inputs.coo.shape
            shm.spmv(fp, xs[0])
            p50 = tracer.interleave({
                "cluster.shm_roundtrip":
                    lambda r: shm.spmv(fp, xs[r % POOL]),
            }, budget_s / 2)
        out["cluster.shm_roundtrip_ms"] = p50["cluster.shm_roundtrip"]
    finally:
        _stop_resource_tracker()
    return out


def _stop_resource_tracker() -> None:
    """multiprocessing starts one helper process the first time shared
    memory is used and keeps it until the interpreter exits; the clean-
    exit guard wants no child at all, so stop it the way the stdlib's
    own test-suite does."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def run_traced(workload: Workload, inputs: Inputs, seconds: float,
               tally: Tally, *, extras: bool, span_path: Path,
               header: dict) -> tuple[dict, dict, dict]:
    """Ladder, then every probe group, on one shared stack. Returns
    (per-layer metrics, ladder report, plan/backend facts)."""
    tracer = Tracer(inputs, tally)
    stack = Stack(inputs, http_bodies(inputs))
    try:
        stack.tuned
        register_s = timed_register(stack)
        ladder = run_ladder(workload, stack, LADDER_SHARE * seconds,
                            tracer)
        metrics = {}
        metrics.update(kernel_probes(stack, 0.15 * seconds, tracer))
        metrics.update(core_probes(stack, 0.05 * seconds, tracer))
        metrics.update(service_probes(stack, 0.25 * seconds, tracer,
                                      register_s))
        metrics.update(codec_probes(stack, 0.03 * seconds, tracer))
        metrics.update(parallel_probes(stack, 0.07 * seconds, tracer))
        if extras:
            metrics.update(process_extras(stack, 0.2 * seconds, tracer))
        facts = header["plans"] = stack.describe()
    finally:
        stack.close()
        tracer.write(span_path, header)
    # Counts taken across the ladder phase, i.e. on the workload's own
    # call pattern: waves on serve_burst, lone requests elsewhere. A
    # path that runs no batch at all (lib_*) reads 0.
    delta = ladder["delta"]
    kernel_calls = delta["c_backend.calls"] + delta["c_backend.fallbacks"]
    metrics["kernels.fallback_share"] = (
        delta["c_backend.fallbacks"] / kernel_calls if kernel_calls
        else 0.0)
    metrics["serve.batch_size_mean"] = (
        delta["serve.batched_requests"] / delta["serve.batches"]
        if delta["serve.batches"] else 0.0)
    metrics["trace.outer_ms"] = ladder["outer_ms"]
    metrics["trace.overhead_share"] = ladder["overhead_share"]
    return metrics, ladder, facts


def triad_note() -> str:
    """Array size against this host's caches, for the printed report."""
    caches = cache_sizes()
    llc = max((cache_bytes(v) for v in caches.values()), default=0)
    reach = ("at least 4x the last-level cache" if TRIAD_BYTES >= 4 * llc
             else "NOT 4x the last-level cache (out of reach on this "
                  f"host: each array would need {4 * llc >> 20} MiB)")
    return (f"triad arrays 3 x {TRIAD_BYTES >> 20} MiB; caches "
            f"{caches}; arrays are {reach}")
