"""Measured machine ceilings: STREAM-style bandwidth + peak FLOPs.

The paper reasons against *modeled* 2007 machines; a live service must
reason against the host it actually runs on. This module measures that
host once:

* **copy** — ``a[:] = b`` over arrays far larger than the LLC
  (16 bytes of traffic per element);
* **triad** — ``a = b + c`` (the three-stream STREAM add/triad shape,
  24 bytes per element);
* **peak flops** — a fused multiply-add loop over a cache-resident
  array (2 flops per element per pass), the practical NumPy FLOP
  ceiling rather than the datasheet one;
* optionally a tiny **SpMV probe** per available backend (NumPy, and
  the compiled C kernels when a compiler is present), giving an
  end-to-end sanity rate for the exact kernels the service runs.

Single-thread and all-core variants are both measured (NumPy releases
the GIL inside ufunc inner loops, so a thread pool measures real
aggregate bandwidth). Results cache in a version-stamped JSON envelope
keyed on a host fingerprint (cpu model, core count, ``__version__``);
a mismatch on any key invalidates the cache, so an upgraded package or
a new host re-measures instead of trusting stale ceilings.
"""

from __future__ import annotations

import os
import platform
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ..._util import read_json, write_json_atomic
from .. import metrics as _metrics


def _repro_version() -> str:
    # Imported lazily: this module loads during ``repro`` package init
    # (via the parallel tier), before ``repro.__version__`` exists.
    from ... import __version__

    return __version__

#: Envelope schema version: bump when the measured fields change.
CEILINGS_VERSION = 1

#: Per-array working-set size (MB) for the bandwidth streams. Large
#: enough to defeat any 2020s LLC at the default; override with
#: ``REPRO_CEILINGS_MB`` (tests use tiny sizes — the arithmetic is the
#: same, only the absolute numbers stop meaning DRAM bandwidth).
DEFAULT_STREAM_MB = 64.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_fingerprint() -> dict:
    """What a ceilings measurement is keyed on: change any of these
    and the cached envelope stops applying."""
    return {
        "cpu": _cpu_model(),
        "n_cores": os.cpu_count() or 1,
        "machine": platform.machine(),
        "version": _repro_version(),
        "ceilings_version": CEILINGS_VERSION,
    }


@dataclass(frozen=True)
class MachineCeilings:
    """Measured roofline ceilings for one host."""

    copy_gbs_single: float
    triad_gbs_single: float
    copy_gbs_all: float
    triad_gbs_all: float
    peak_gflops_single: float
    peak_gflops_all: float
    n_cores: int
    #: Per-backend SpMV sanity rates (may be empty when probing off).
    spmv_probe_gflops: dict

    @property
    def sustained_gbs(self) -> float:
        """The bandwidth ceiling attribution divides by: the best
        measured stream rate (generous on purpose — a kernel should
        never be *blamed* for exceeding a pessimistic ceiling)."""
        return max(self.copy_gbs_single, self.triad_gbs_single,
                   self.copy_gbs_all, self.triad_gbs_all)

    @property
    def peak_gflops(self) -> float:
        return max(self.peak_gflops_single, self.peak_gflops_all)

    def attainable_gflops(self, intensity: float) -> float:
        """Roofline value at one arithmetic intensity (flops/byte):
        ``min(peak flops, intensity × sustained bandwidth)``."""
        if intensity <= 0:
            return 0.0
        return min(self.peak_gflops, intensity * self.sustained_gbs)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "MachineCeilings":
        return cls(
            copy_gbs_single=float(d["copy_gbs_single"]),
            triad_gbs_single=float(d["triad_gbs_single"]),
            copy_gbs_all=float(d["copy_gbs_all"]),
            triad_gbs_all=float(d["triad_gbs_all"]),
            peak_gflops_single=float(d["peak_gflops_single"]),
            peak_gflops_all=float(d["peak_gflops_all"]),
            n_cores=int(d["n_cores"]),
            spmv_probe_gflops=dict(d.get("spmv_probe_gflops", {})),
        )


# ----------------------------------------------------------------------
# Microbenchmarks
# ----------------------------------------------------------------------
def _best_rate(fn, units: float, repeats: int) -> float:
    """Best (max) rate over ``repeats`` runs of ``fn``; ``units`` is
    the work per run (bytes or flops). STREAM convention: best-of-N
    filters out scheduler noise, which only ever slows a run down."""
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if dt > 0:
            best = max(best, units / dt)
    return best


def _bandwidth_single(n: int, repeats: int) -> tuple[float, float]:
    rng = np.random.default_rng(0)
    a = np.empty(n, dtype=np.float64)
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    copy = _best_rate(lambda: np.copyto(a, b), 16.0 * n, repeats)
    triad = _best_rate(lambda: np.add(b, c, out=a), 24.0 * n, repeats)
    return copy / 1e9, triad / 1e9


def _bandwidth_all(n: int, repeats: int,
                   n_workers: int) -> tuple[float, float]:
    """Aggregate stream rate with one private working set per worker
    (NumPy drops the GIL inside the ufunc loops, so threads stream
    concurrently)."""
    per = max(n // n_workers, 1)
    rng = np.random.default_rng(1)
    sets = [
        (np.empty(per, dtype=np.float64), rng.standard_normal(per),
         rng.standard_normal(per))
        for _ in range(n_workers)
    ]

    def run(op) -> float:
        best = 0.0
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for _ in range(repeats):
                t0 = time.perf_counter()
                list(pool.map(op, sets))
                dt = time.perf_counter() - t0
                if dt > 0:
                    best = max(best, n_workers * per / dt)
        return best

    copy = run(lambda s: np.copyto(s[0], s[1])) * 16.0
    triad = run(lambda s: np.add(s[1], s[2], out=s[0])) * 24.0
    return copy / 1e9, triad / 1e9


def _peak_single(repeats: int, *, n: int = 1 << 16,
                 iters: int = 64) -> float:
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n)
    a = rng.standard_normal(n)
    y = np.empty(n, dtype=np.float64)

    def run() -> None:
        for _ in range(iters):
            np.multiply(x, a, out=y)     # cache-resident: 1 flop/elem
            np.add(y, x, out=y)          # + 1 flop/elem

    return _best_rate(run, 2.0 * n * iters, repeats) / 1e9


def _peak_all(repeats: int, n_workers: int, *, n: int = 1 << 16,
              iters: int = 64) -> float:
    rng = np.random.default_rng(3)
    sets = [
        (rng.standard_normal(n), rng.standard_normal(n),
         np.empty(n, dtype=np.float64))
        for _ in range(n_workers)
    ]

    def one(s) -> None:
        x, a, y = s
        for _ in range(iters):
            np.multiply(x, a, out=y)
            y += x

    best = 0.0
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for _ in range(repeats):
            t0 = time.perf_counter()
            list(pool.map(one, sets))
            dt = time.perf_counter() - t0
            if dt > 0:
                best = max(best, 2.0 * n * iters * n_workers / dt)
    return best / 1e9


def _probe_band(n: int, half_width: int) -> "object":
    """A dense band of width ``2·half_width + 1`` as CSR — regular
    rows, so the probe measures kernel rate, not structure."""
    from ...formats.convert import coo_to_csr
    from ...formats.coo import COOMatrix

    rows, cols = [], []
    for d in range(-half_width, half_width + 1):
        r = np.arange(max(0, -d), min(n, n - d))
        rows.append(r)
        cols.append(r + d)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.random.default_rng(5).standard_normal(rows.size)
    return coo_to_csr(COOMatrix((n, n), rows, cols, vals))


def _spmv_probe(repeats: int) -> dict:
    """End-to-end SpMV rate per available backend on a small banded
    probe (the exact kernels the service dispatches, raw — not routed
    through the attribution layer this module feeds)."""
    from ...kernels.cbackend import c_backend_available

    n = 20_000
    csr = _probe_band(n, 4)
    x = np.random.default_rng(4).standard_normal(n)
    flops = 2.0 * csr.nnz_logical
    out = {"numpy": _best_rate(lambda: csr.spmv(x), flops,
                               repeats) / 1e9}
    if c_backend_available():
        from ...kernels.cbackend import spmv_c

        out["c"] = _best_rate(lambda: spmv_c(csr, x), flops,
                              repeats) / 1e9
    return out


def measure_ceilings(*, mb: float | None = None, repeats: int = 3,
                     probe_spmv: bool = True) -> MachineCeilings:
    """Run the microbenchmark suite; seconds of wall time at the
    default size, milliseconds at test sizes."""
    if mb is None:
        mb = float(os.environ.get("REPRO_CEILINGS_MB",
                                  DEFAULT_STREAM_MB))
    n = max(int(mb * 2**20 / 8), 1024)
    n_cores = os.cpu_count() or 1
    t0 = time.perf_counter()
    copy_1, triad_1 = _bandwidth_single(n, repeats)
    if n_cores > 1:
        copy_n, triad_n = _bandwidth_all(n, repeats, n_cores)
        peak_n = _peak_all(repeats, n_cores)
    else:
        copy_n, triad_n = copy_1, triad_1
        peak_n = 0.0
    peak_1 = _peak_single(repeats)
    ceilings = MachineCeilings(
        copy_gbs_single=copy_1,
        triad_gbs_single=triad_1,
        copy_gbs_all=copy_n,
        triad_gbs_all=triad_n,
        peak_gflops_single=peak_1,
        peak_gflops_all=max(peak_n, peak_1),
        n_cores=n_cores,
        spmv_probe_gflops=_spmv_probe(repeats) if probe_spmv else {},
    )
    _metrics.observe("perf.ceilings_measure_seconds",
                     time.perf_counter() - t0)
    _metrics.gauge("perf.ceiling_gbs", ceilings.sustained_gbs)
    _metrics.gauge("perf.ceiling_gflops", ceilings.peak_gflops)
    return ceilings


# ----------------------------------------------------------------------
# Cache envelope
# ----------------------------------------------------------------------
def default_cache_path() -> str:
    env = os.environ.get("REPRO_CEILINGS_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "ceilings.json")


def save_ceilings(ceilings: MachineCeilings,
                  path: str | os.PathLike | None = None) -> str:
    """Write the version-stamped envelope (atomic publish)."""
    path = os.fspath(path) if path is not None else default_cache_path()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    envelope = {
        "ceilings_version": CEILINGS_VERSION,
        "repro_version": _repro_version(),
        "host": host_fingerprint(),
        "measured_at": time.time(),
        "ceilings": ceilings.to_json(),
    }
    write_json_atomic(path, envelope, indent=2)
    return path


def load_ceilings(path: str | os.PathLike | None = None
                  ) -> MachineCeilings | None:
    """Load a cached envelope; ``None`` when missing, corrupt,
    version-stale, or measured on a different host."""
    path = os.fspath(path) if path is not None else default_cache_path()
    envelope = read_json(path)
    if envelope is None:
        return None
    try:
        if envelope["ceilings_version"] != CEILINGS_VERSION:
            _metrics.inc("perf.ceilings_cache_stale", reason="version")
            return None
        if envelope["host"] != host_fingerprint():
            _metrics.inc("perf.ceilings_cache_stale", reason="host")
            return None
        return MachineCeilings.from_json(envelope["ceilings"])
    except (KeyError, TypeError, ValueError):
        _metrics.inc("perf.ceilings_cache_stale", reason="corrupt")
        return None


_CACHE_LOCK = threading.Lock()
_CACHED: MachineCeilings | None = None


def get_ceilings(path: str | os.PathLike | None = None, *,
                 remeasure: bool = False,
                 **measure_kwargs) -> MachineCeilings:
    """The host's ceilings: in-process memo → cache file → measure
    (and persist). ``remeasure=True`` forces a fresh measurement."""
    global _CACHED
    with _CACHE_LOCK:
        if _CACHED is not None and not remeasure and path is None:
            return _CACHED
        ceilings = None if remeasure else load_ceilings(path)
        if ceilings is None:
            ceilings = measure_ceilings(**measure_kwargs)
            try:
                save_ceilings(ceilings, path)
            except OSError:
                pass      # read-only home: serve from memory only
        else:
            _metrics.inc("perf.ceilings_cache_hits")
        if path is None or remeasure:
            _CACHED = ceilings
        return ceilings
