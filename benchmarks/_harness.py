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

import functools
import hashlib
import os
from pathlib import Path
from typing import Callable

import repro
from repro._util import read_json, write_json_atomic
from repro.baselines import OskiTuner
from repro.baselines.petsc import best_petsc
from repro.core import Role, SpmvEngine, ladder
from repro.core.optimizer import arch_family
from repro.machines import get_machine
from repro.matrices import generate, suite_names
from repro.observe import metrics as _metrics
from repro.observe.trace import span as _span


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def run_once(benchmark, fn: Callable):
    """Run a table-generation function exactly once under
    pytest-benchmark (we are regenerating results, not timing the
    simulator)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1,
                              warmup_rounds=0)


_FIG1_CACHE: dict[tuple[str, float], dict] = {}

#: On-disk cache of figure1 sweeps (they are deterministic functions of
#: (machine, scale, seed=0) and take minutes at full scale).
_CACHE_DIR = os.path.join(os.path.dirname(__file__), ".bench_cache")


#: Packages whose sources decide a sweep's numbers.
_MODEL_PACKAGES = ("simulator", "core", "formats", "machines",
                   "baselines", "matrices")


@functools.cache
def model_stamp() -> str:
    """Hash of the sources a sweep runs, computed once per process.

    A cached sweep is served only under the stamp it was saved with, so
    any edit to the simulator, the tuner, the formats, the machine
    models, the baselines or the matrix generators makes it stale.
    """
    root = Path(repro.__file__).parent
    h = hashlib.sha256()
    for package in _MODEL_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cache_path(machine_name: str, scale: float) -> str:
    safe = machine_name.replace(" ", "_").replace("(", "").replace(")", "")
    return os.path.join(_CACHE_DIR, f"fig1_{safe}_{scale}.json")


def _load_disk_cache(machine_name: str, scale: float) -> dict | None:
    """Load a cached sweep, or None on miss.

    Cached files are stamped envelopes
    ``{"model_version": model_stamp(), "data": {...}}``; a file whose
    stamp differs from the running sources (or a pre-envelope legacy
    file) is treated as stale, so numbers from older code are never
    served silently. A missing or unreadable file is a miss.
    """
    payload = read_json(_cache_path(machine_name, scale))
    if payload is None:
        _metrics.inc("bench.cache_miss")
        return None
    if (payload.get("model_version") != model_stamp()
            or "data" not in payload):
        _metrics.inc("bench.cache_stale")
        return None
    _metrics.inc("bench.cache_hit")
    return payload["data"]


def _save_disk_cache(machine_name: str, scale: float, data: dict) -> None:
    """Publish a sweep atomically: a failed write keeps the old file."""
    os.makedirs(_CACHE_DIR, exist_ok=True)
    envelope = {
        "model_version": model_stamp(),
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
    names = matrices if matrices is not None else suite_names()
    data: dict[str, dict[str, float]] = {}
    oski = (OskiTuner(machine)
            if with_baselines and arch_family(machine) == "x86" else None)
    with _span("bench.figure1", machine=machine_name, scale=scale,
               n_matrices=len(names)):
        for i, name in enumerate(names):
            with _span("bench.matrix", matrix=name,
                       machine=machine_name):
                coo = generate(name, scale=scale, seed=0)
                bars = {
                    label: res.gflops
                    for label, res in engine.simulate_ladder(coo).items()
                }
                if oski is not None:
                    bars["OSKI"] = oski.simulate(coo).gflops
                    bars["OSKI-PETSc"] = best_petsc(coo, machine).gflops
                data[name] = bars
            _metrics.inc("bench.matrices_done")
            _metrics.gauge("bench.sweep_progress", (i + 1) / len(names),
                           machine=machine_name)
    if matrices is None:
        _FIG1_CACHE[key] = data
        _save_disk_cache(machine_name, scale, data)
    return data


def ladder_labels(machine_name: str) -> list[str]:
    """The machine's Figure 1 bar labels, in the figure's order."""
    return [p.label for p in ladder(get_machine(machine_name))]


def _best(machine_name: str, bars: dict[str, float], role: Role) -> float:
    return max(
        bars[p.label] for p in ladder(get_machine(machine_name))
        if p.role & role and p.label in bars
    )


def best_serial(machine_name: str, bars: dict[str, float]) -> float:
    """Best single-core rate among the ladder bars."""
    return _best(machine_name, bars, Role.SERIAL)


def best_socket(machine_name: str, bars: dict[str, float]) -> float:
    """The Figure 2a "1 socket, all cores" bar."""
    return _best(machine_name, bars, Role.SOCKET)


def best_system(machine_name: str, bars: dict[str, float]) -> float:
    """Full-system rate."""
    return _best(machine_name, bars, Role.SYSTEM)
