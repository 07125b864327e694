"""Shared machinery for the table/figure regeneration benchmarks.

Every bench in this directory regenerates one table or figure of the
paper. The heavy part — the Figure 1 sweep (every matrix × every
optimization rung × every core count on every machine) — is computed
once per (machine, scale) and memoized in-process; Figure 2 and the
speedup-claim benches reuse it.

Scale: ``REPRO_BENCH_SCALE`` (default 1.0 = the paper's matrix sizes;
smaller values shrink every matrix for quick smoke runs — shapes that
depend on absolute cache sizes, like the Economics superlinearity, only
appear at full scale).
"""

from __future__ import annotations

import os
from typing import Callable

from dataclasses import replace

from repro import __version__ as MODEL_VERSION
from repro._util import read_json, write_json_atomic
from repro.baselines import OskiTuner
from repro.baselines.petsc import best_petsc
from repro.core import OptimizationLevel, SpmvEngine
from repro.core.optimizer import arch_family, optimization_config
from repro.machines import PlacementPolicy, get_machine
from repro.matrices import generate, suite_names
from repro.observe import metrics as _metrics
from repro.observe.trace import span as _span
from repro.simulator.cpu import KernelVariant

L = OptimizationLevel


def plan_point(engine: SpmvEngine, coo, n_threads: int,
               *, full_system: bool):
    """Fully optimized plan for one parallelism point.

    Sub-system points (the '2 Core', '4 Core', '8 SPEs' bars) pack
    threads onto as few sockets as possible with data on that node;
    full-system points use the paper's placement (NUMA-aware on x86,
    page interleave on the Cell blade).
    """
    cfg = optimization_config(engine.machine, L.FULL,
                              parallel=n_threads > 1)
    if not full_system:
        cfg = replace(cfg, fill_order="pack",
                      policy=PlacementPolicy.SINGLE_NODE)
    return engine.plan(coo, n_threads=n_threads, config=cfg)


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def run_once(benchmark, fn: Callable):
    """Run a table-generation function exactly once under
    pytest-benchmark (we are regenerating results, not timing the
    simulator)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1,
                              warmup_rounds=0)


#: Parallel sweep points per machine, in Figure 1's order:
#: (label, n_threads, is_full_system).
PARALLEL_POINTS: dict[str, list[tuple[str, int, bool]]] = {
    "AMD X2": [("2 Core[*]", 2, False),
               ("Dual Socket x 2 Core[*]", 4, True)],
    "Clovertown": [("2 Core[*]", 2, False), ("4 Core[*]", 4, False),
                   ("2 Socket x 4 Core[*]", 8, True)],
    "Niagara": [("8 Cores x 1 Thread[*]", 8, False),
                ("8 Cores x 2 Threads[*]", 16, False),
                ("8 Cores x 4 Threads[*]", 32, True)],
    "Cell (PS3)": [("1 SPE(PS3)", 1, False), ("6 SPEs(PS3)", 6, True)],
    "Cell Blade": [("8 SPEs", 8, False),
                   ("Dual Socket x 8 SPEs", 16, True)],
}

#: Serial ladder labels in Figure 1's order (x86/Niagara only).
LADDER_LABELS = [
    ("1 Core - Naive", L.NAIVE),
    ("1 Core[PF]", L.PF),
    ("1 Core[PF,RB]", L.PF_RB),
    ("1 Core[PF,RB,CB]", L.PF_RB_CB),
]

_FIG1_CACHE: dict[tuple[str, float], dict] = {}

#: On-disk cache of figure1 sweeps (they are deterministic functions of
#: (machine, scale, seed=0) and take minutes at full scale).
_CACHE_DIR = os.path.join(os.path.dirname(__file__), ".bench_cache")


def _cache_path(machine_name: str, scale: float) -> str:
    safe = machine_name.replace(" ", "_").replace("(", "").replace(")", "")
    return os.path.join(_CACHE_DIR, f"fig1_{safe}_{scale}.json")


def _load_disk_cache(machine_name: str, scale: float) -> dict | None:
    """Load a cached sweep, or None on miss.

    Cached files are versioned envelopes
    ``{"model_version": repro.__version__, "data": {...}}``; a file
    whose stamp differs from the running model (or a pre-envelope
    legacy file) is treated as stale — simulator changes bump the
    version, so stale numbers are never served silently. A missing or
    unreadable file is a miss.
    """
    payload = read_json(_cache_path(machine_name, scale))
    if payload is None:
        _metrics.inc("bench.cache_miss")
        return None
    if (payload.get("model_version") != MODEL_VERSION
            or "data" not in payload):
        _metrics.inc("bench.cache_stale")
        return None
    _metrics.inc("bench.cache_hit")
    return payload["data"]


def _save_disk_cache(machine_name: str, scale: float, data: dict) -> None:
    """Publish a sweep atomically: a failed write keeps the old file."""
    os.makedirs(_CACHE_DIR, exist_ok=True)
    envelope = {
        "model_version": MODEL_VERSION,
        "machine": machine_name,
        "scale": scale,
        "data": data,
    }
    write_json_atomic(_cache_path(machine_name, scale), envelope, indent=1)


def figure1_data(machine_name: str, scale: float | None = None,
                 *, with_baselines: bool = True,
                 matrices: list[str] | None = None) -> dict:
    """All Figure 1 bars for one machine: {matrix: {label: gflops}}.

    Baselines (OSKI circle, OSKI-PETSc triangle) are added on the cache
    hierarchies where the paper shows them (x86).
    """
    scale = bench_scale() if scale is None else scale
    key = (machine_name, scale)
    if key in _FIG1_CACHE and matrices is None:
        return _FIG1_CACHE[key]
    if matrices is None:
        disk = _load_disk_cache(machine_name, scale)
        if disk is not None:
            _FIG1_CACHE[key] = disk
            return disk
    machine = get_machine(machine_name)
    engine = SpmvEngine(machine)
    family = arch_family(machine)
    names = matrices if matrices is not None else suite_names()
    data: dict[str, dict[str, float]] = {}
    oski = OskiTuner(machine) if with_baselines and family == "x86" \
        else None
    with _span("bench.figure1", machine=machine_name, scale=scale,
               n_matrices=len(names)):
        for i, name in enumerate(names):
            with _span("bench.matrix", matrix=name,
                       machine=machine_name):
                coo = generate(name, scale=scale, seed=0)
                bars: dict[str, float] = {}
                if family == "cell":
                    for label, t, full in PARALLEL_POINTS[machine_name]:
                        plan = plan_point(engine, coo, t,
                                          full_system=full)
                        bars[label] = engine.simulate(plan).gflops
                else:
                    # Serial ladder. Naive and PF share a data
                    # structure: plan once at PF, simulate naive with
                    # prefetch+codegen off.
                    pf_plan = engine.plan(coo, level=L.PF, n_threads=1)
                    bars["1 Core - Naive"] = engine.simulate(
                        pf_plan, sw_prefetch=False,
                        variant=KernelVariant()
                    ).gflops
                    bars["1 Core[PF]"] = engine.simulate(pf_plan).gflops
                    for label, lvl in LADDER_LABELS[2:]:
                        plan = engine.plan(coo, level=lvl, n_threads=1)
                        bars[label] = engine.simulate(plan).gflops
                    for label, t, full in PARALLEL_POINTS[machine_name]:
                        plan = plan_point(engine, coo, t,
                                          full_system=full)
                        bars[label] = engine.simulate(plan).gflops
                    if oski is not None:
                        bars["OSKI"] = oski.simulate(coo).gflops
                        bars["OSKI-PETSc"] = best_petsc(
                            coo, machine
                        ).gflops
                data[name] = bars
            _metrics.inc("bench.matrices_done")
            _metrics.gauge("bench.sweep_progress", (i + 1) / len(names),
                           machine=machine_name)
    if matrices is None:
        _FIG1_CACHE[key] = data
        _save_disk_cache(machine_name, scale, data)
    return data


def best_serial(bars: dict[str, float]) -> float:
    """Best single-core rate among the ladder bars."""
    return max(
        v for k, v in bars.items()
        if k.startswith("1 Core") or k == "1 SPE(PS3)"
    )


def best_socket(machine_name: str, bars: dict[str, float]) -> float:
    """The Figure 2a "1 socket, all cores" bar.

    Note the Niagara entry: the paper's socket bar is all cores at ONE
    thread each — threads only join in the "all sockets, cores,
    threads" configuration (this is what makes the paper's 12.8x
    blade-vs-Niagara socket ratio work out).
    """
    socket_labels = {
        "AMD X2": "2 Core[*]",
        "Clovertown": "4 Core[*]",
        "Niagara": "8 Cores x 1 Thread[*]",
        "Cell (PS3)": "6 SPEs(PS3)",
        "Cell Blade": "8 SPEs",
    }
    return bars[socket_labels[machine_name]]


def best_system(machine_name: str, bars: dict[str, float]) -> float:
    """Full-system rate."""
    system_labels = {
        "AMD X2": "Dual Socket x 2 Core[*]",
        "Clovertown": "2 Socket x 4 Core[*]",
        "Niagara": "8 Cores x 4 Threads[*]",
        "Cell (PS3)": "6 SPEs(PS3)",
        "Cell Blade": "Dual Socket x 8 SPEs",
    }
    return bars[system_labels[machine_name]]
