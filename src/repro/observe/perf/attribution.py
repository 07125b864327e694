"""Per-kernel roofline attribution: achieved GFLOP/s, GB/s, fraction.

Every kernel invocation — engine ``TunedSpMV`` calls, serve scheduler
batches, dist shard computes, threaded-tier ranges — routes through
:func:`observe_kernel` with the matrix it ran on, the SpMM width, and
the wall seconds it took. From the format's exact stored bytes
(:func:`repro.formats.footprint.spmv_compulsory_bytes`) we derive the
compulsory-traffic model the paper reasons with, turn wall time into
achieved GFLOP/s and effective GB/s, and — when measured ceilings are
configured — the *roofline fraction*: achieved rate over the
``min(peak, intensity × bandwidth)`` bound of the host we actually run
on. Observations land in fixed-bucket histograms
(``perf.gflops{backend,format}``, ``perf.gbs``,
``perf.roofline_fraction``), which merge across processes: a shard
child's observations ride its next reply to the parent, so ``/metrics``
shows per-shard roofline efficiency with no extra plumbing.

Ceilings are held in a module global set by :func:`configure`; a
process that configures them before forking shard children hands the
children the measured roofline, so they tag their own computes.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

from ..._util import VALUE_BYTES
from ..metrics import observe
from .ceilings import MachineCeilings

__all__ = [
    "KernelCounts",
    "PerfAttributor",
    "PerfSample",
    "configure",
    "format_label",
    "observe_kernel",
    "sample_kernel",
]


def format_label(matrix) -> str:
    """``CSRMatrix`` → ``csr``, ``CacheBlockedMatrix`` → ``cacheblocked``."""
    name = type(matrix).__name__.lower()
    if name.endswith("matrix"):
        name = name[: -len("matrix")]
    return name or "unknown"


@dataclass(frozen=True)
class KernelCounts:
    """Flop and compulsory-byte counts for one SpMV pass over a matrix.

    ``matrix_bytes`` is the per-pass traffic independent of the SpMM
    width (stored matrix, streamed once); ``vector_bytes`` is the
    per-RHS vector traffic (source read + write-allocate destination),
    which scales with ``k``. For a k-wide SpMM the compulsory traffic
    is ``matrix_bytes + k · vector_bytes`` and the flop count is
    ``k · flops`` — the fusion economics the paper's multi-vector
    kernels exploit.
    """

    flops: float            # 2·nnz_logical, per RHS column
    matrix_bytes: float     # stored matrix, streamed once per pass
    vector_bytes: float     # 8·ncols + 16·nrows, per RHS column
    fmt: str = "unknown"

    @classmethod
    def for_matrix(cls, matrix) -> "KernelCounts":
        m, n = matrix.shape
        return cls(
            flops=2.0 * matrix.nnz_logical,
            matrix_bytes=float(matrix.footprint_bytes()),
            vector_bytes=float(VALUE_BYTES * n + 2 * VALUE_BYTES * m),
            fmt=format_label(matrix),
        )

    def total_flops(self, k: int = 1) -> float:
        return self.flops * max(int(k), 1)

    def total_bytes(self, k: int = 1) -> float:
        return self.matrix_bytes + self.vector_bytes * max(int(k), 1)

    def intensity(self, k: int = 1) -> float:
        """Arithmetic intensity (flops per compulsory byte) at width k."""
        total = self.total_bytes(k)
        if total <= 0:
            return 0.0
        return self.total_flops(k) / total


@dataclass(frozen=True)
class PerfSample:
    """One attributed kernel invocation."""

    gflops: float
    gbs: float
    intensity: float
    fraction: float          # achieved / attainable; nan when no ceilings
    seconds: float
    k: int
    backend: str
    fmt: str

    @property
    def has_fraction(self) -> bool:
        return self.fraction == self.fraction  # not NaN


class PerfAttributor:
    """Turns (counts, seconds) into :class:`PerfSample` and emits metrics.

    A single process-wide instance (installed by :func:`configure`)
    holds the measured ceilings. ``record`` is the emitting path; ``sample``
    is the pure computation used by callers that must not double-count
    (the serve scheduler observes batches for the watchdog while the
    kernel layer already emitted metrics).
    """

    def __init__(self, ceilings: MachineCeilings | None = None):
        self.ceilings = ceilings

    # -- pure computation -------------------------------------------------

    def sample(self, counts: KernelCounts, seconds: float, *,
               k: int = 1, backend: str = "numpy") -> PerfSample:
        k = max(int(k), 1)
        flops = counts.total_flops(k)
        traffic = counts.total_bytes(k)
        if seconds > 0:
            gflops = flops / seconds / 1e9
            gbs = traffic / seconds / 1e9
        else:
            gflops = float("nan")
            gbs = float("nan")
        intensity = counts.intensity(k)
        fraction = float("nan")
        ceilings = self.ceilings
        if ceilings is not None and seconds > 0:
            bound = ceilings.attainable_gflops(intensity)
            if bound > 0:
                fraction = gflops / bound
        return PerfSample(gflops=gflops, gbs=gbs, intensity=intensity,
                          fraction=fraction, seconds=seconds, k=k,
                          backend=backend, fmt=counts.fmt)

    # -- emitting path ----------------------------------------------------

    def record(self, counts: KernelCounts, seconds: float, *,
               k: int = 1, backend: str = "numpy",
               shard: int | None = None) -> PerfSample | None:
        """Attribute one invocation and feed histograms + watchdog.

        Returns the sample, or None when ``seconds`` is non-positive
        (timer resolution underflow on tiny kernels — nothing useful
        to report, and NaN would poison the histograms).
        """
        if seconds <= 0 or counts.flops <= 0:
            return None
        s = self.sample(counts, seconds, k=k, backend=backend)
        labels = {"backend": backend, "format": counts.fmt}
        if shard is not None:
            labels["shard"] = shard
        observe("perf.gflops", s.gflops, **labels)
        observe("perf.gbs", s.gbs, **labels)
        if s.has_fraction:
            observe("perf.roofline_fraction", s.fraction, **labels)
        return s


_ATTRIBUTOR = PerfAttributor()
_CONF_LOCK = threading.Lock()

#: Per-matrix counts memo. Formats are immutable after construction,
#: so the footprint walk is loop-invariant — recomputing it on every
#: invocation would tax hot kernel loops ~10µs/call. Weak keys keep
#: evicted registry matrices collectable.
_COUNTS_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _counts_for(matrix) -> KernelCounts:
    try:
        counts = _COUNTS_CACHE.get(matrix)
    except TypeError:        # unhashable / no __weakref__: no memo
        return KernelCounts.for_matrix(matrix)
    if counts is None:
        counts = KernelCounts.for_matrix(matrix)
        try:
            _COUNTS_CACHE[matrix] = counts
        except TypeError:
            pass
    return counts


def configure(ceilings: MachineCeilings | None) -> None:
    """Install measured ceilings process-wide.

    Called before a :class:`~repro.dist.group.ShardGroup` forks, it
    lets the workers inherit the roofline and attribute their own
    computes with real fractions.
    """
    with _CONF_LOCK:
        _ATTRIBUTOR.ceilings = ceilings


def observe_kernel(matrix, seconds: float, *, k: int = 1,
                   backend: str = "numpy",
                   shard: int | None = None,
                   counts: KernelCounts | None = None) -> PerfSample | None:
    """Attribute one kernel invocation and emit ``perf.*`` metrics.

    The main instrumentation entry point: callers pass the matrix the
    kernel actually ran on (a shard passes its slab), the SpMM width,
    and wall seconds. ``counts`` short-circuits the footprint walk for
    callers that precomputed it (resident shard slabs).
    """
    if counts is None:
        counts = _counts_for(matrix)
    return _ATTRIBUTOR.record(counts, seconds, k=k, backend=backend,
                              shard=shard)


def sample_kernel(matrix, seconds: float, *, k: int = 1,
                  backend: str = "numpy",
                  counts: KernelCounts | None = None) -> PerfSample:
    """Pure attribution — compute a sample without emitting metrics.

    Used by the serve scheduler to feed the watchdog per-batch without
    double-counting histograms the kernel layer already observed.
    """
    if counts is None:
        counts = _counts_for(matrix)
    return _ATTRIBUTOR.sample(counts, seconds, k=k, backend=backend)
