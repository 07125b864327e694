"""Per-plan memory-traffic accounting.

A :class:`BlockProfile` is the structural summary of one cache block of
an optimized matrix: enough information to compute its exact matrix
traffic and its modeled vector traffic without keeping the nonzeros
around. A :class:`PlanProfile` is a full matrix's worth of them plus a
thread assignment. The planner (:mod:`repro.core`) builds these
directly from COO in one pass; :func:`profile_from_matrix` builds them
from any materialized format (used by tests to cross-check the planner).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .._util import VALUE_BYTES
from ..errors import SimulationError
from ..machines.model import Machine
from .cache_analytic import vector_traffic
from .events import TrafficBreakdown
from .tlb import unique_pages


@dataclass(frozen=True)
class BlockProfile:
    """Structural summary of one cache block of the planned matrix."""

    r0: int
    r1: int
    c0: int
    c1: int
    format_name: str       #: "csr" | "bcsr" | "bcoo" | "gcsr"
    r: int                 #: register-block rows
    c: int                 #: register-block cols
    index_bytes: int       #: 2 or 4
    ntiles: int
    nnz_stored: int
    nnz_logical: int
    n_segments: int        #: row segments with data (CSR rows / tile rows)
    matrix_bytes: int      #: exact stored bytes of this block
    x_unique_lines: int    #: distinct LLC lines of x touched
    x_accesses: int        #: gather count (= nonzero count)
    rows_touched: int      #: rows with >= 1 nonzero
    pages_touched: int     #: distinct x pages (TLB model)
    thread: int = 0        #: owning thread id
    #: Distinct (row-window, line) pairs, where a window is the row span
    #: over which the streaming matrix data turns the cache over once.
    #: This is the *working-set-aware* x traffic estimate: within a
    #: window reuse hits, across windows a line is re-fetched — which
    #: correctly charges banded matrices only their band, not their
    #: global column span. 0 means "not measured" (fits-in-cache case).
    x_window_line_pairs: int = 0
    #: Distinct (row-window, page) pairs — the same working-set idea at
    #: page granularity, driving the TLB-miss model.
    x_window_page_pairs: int = 0
    #: Number of row windows the block was profiled with.
    n_windows: int = 1

    @property
    def extent(self) -> tuple[int, int, int, int]:
        return (self.r0, self.r1, self.c0, self.c1)

    @property
    def x_span(self) -> int:
        return self.c1 - self.c0


@dataclass(frozen=True)
class PlanProfile:
    """A planned matrix: blocks + thread assignment + global shape."""

    shape: tuple[int, int]
    blocks: tuple[BlockProfile, ...]
    n_threads: int

    def __post_init__(self):
        if self.n_threads < 1:
            raise SimulationError("plan needs >= 1 thread")
        for b in self.blocks:
            if not (0 <= b.thread < self.n_threads):
                raise SimulationError(
                    f"block thread {b.thread} outside [0, {self.n_threads})"
                )

    @property
    def nnz_logical(self) -> int:
        return sum(b.nnz_logical for b in self.blocks)

    @property
    def nnz_stored(self) -> int:
        return sum(b.nnz_stored for b in self.blocks)

    @property
    def matrix_bytes(self) -> int:
        return sum(b.matrix_bytes for b in self.blocks)

    def thread_nnz(self) -> np.ndarray:
        out = np.zeros(self.n_threads, dtype=np.int64)
        for b in self.blocks:
            out[b.thread] += b.nnz_logical
        return out

    def retarget_threads(self, n_threads: int) -> "PlanProfile":
        """Re-assign blocks round-robin by cumulative nonzeros onto a new
        thread count (used when sweeping core counts over one plan)."""
        if n_threads < 1:
            raise SimulationError("n_threads must be >= 1")
        order = sorted(range(len(self.blocks)),
                       key=lambda i: self.blocks[i].extent)
        loads = np.zeros(n_threads, dtype=np.int64)
        new_blocks = list(self.blocks)
        for i in order:
            t = int(np.argmin(loads))
            new_blocks[i] = replace(self.blocks[i], thread=t)
            loads[t] += max(self.blocks[i].nnz_logical, 1)
        return PlanProfile(self.shape, tuple(new_blocks), n_threads)


def block_traffic(
    block: BlockProfile, machine: Machine, *, write_allocate: bool = True
) -> TrafficBreakdown:
    """Modeled DRAM traffic of one cache block."""
    llc = machine.last_level_cache
    # Reconstruct a line-granular picture from the stored uniques: the
    # analytic model needs unique lines and access count, both captured
    # at profile build time against this machine's LLC geometry.
    vt = vector_traffic_from_profile(block, machine,
                                     write_allocate=write_allocate)
    return TrafficBreakdown(
        matrix_bytes=float(block.matrix_bytes),
        x_bytes=vt[0],
        y_bytes=vt[1],
    )


def vector_traffic_from_profile(
    block: BlockProfile, machine: Machine, *, write_allocate: bool = True
) -> tuple[float, float]:
    """(x_bytes, y_bytes) for one block profile on one machine."""
    llc = machine.last_level_cache
    if llc is None:
        # Local store: DMA the x span once, stream y once per block.
        x_bytes = float(block.x_span * VALUE_BYTES)
        y_bytes = float(block.rows_touched * 2 * VALUE_BYTES)
        return x_bytes, y_bytes
    line = llc.line_bytes
    compulsory = block.x_unique_lines * line
    eff_lines = (llc.size_bytes * 0.5) / line
    if block.x_unique_lines <= eff_lines:
        # The block's whole x footprint stays resident: compulsory only.
        x_bytes = float(compulsory)
    elif block.x_window_line_pairs > 0:
        # Working-set model: one fetch per (row-window, line) pair,
        # bounded below by compulsory and above by one miss per gather.
        pairs = min(max(block.x_window_line_pairs,
                        block.x_unique_lines), block.x_accesses)
        x_bytes = float(pairs * line)
    else:
        # Fallback (profiles built without window stats): proportional
        # capacity-overflow charge.
        reuse = max(0, block.x_accesses - block.x_unique_lines)
        overflow = 1.0 - eff_lines / block.x_unique_lines
        x_bytes = float(compulsory + reuse * overflow * line)
    y_line_count = max(
        1, -(-block.rows_touched * VALUE_BYTES // line)
    ) if block.rows_touched else 0
    per_line = 2 * line if write_allocate else line
    y_bytes = float(y_line_count * per_line)
    return x_bytes, y_bytes


def plan_traffic(
    plan: PlanProfile, machine: Machine, *, write_allocate: bool = True
) -> tuple[TrafficBreakdown, np.ndarray]:
    """Total traffic plus per-thread byte totals."""
    total = TrafficBreakdown(0.0, 0.0, 0.0)
    per_thread = np.zeros(plan.n_threads, dtype=np.float64)
    for b in plan.blocks:
        t = block_traffic(b, machine, write_allocate=write_allocate)
        total = total + t
        per_thread[b.thread] += t.total
    return total, per_thread


# ----------------------------------------------------------------------
# Building profiles from materialized matrices (test/cross-check path)
# ----------------------------------------------------------------------
def _profile_one(
    r0: int, r1: int, c0: int, c1: int, sub, machine: Machine, thread: int
) -> BlockProfile:
    coo = sub.to_coo()
    llc = machine.last_level_cache
    line = llc.line_bytes if llc is not None else VALUE_BYTES
    per_line = max(1, line // VALUE_BYTES)
    x_lines = (
        int(len(np.unique((coo.col + c0) // per_line))) if coo.nnz_logical
        else 0
    )
    window_pairs = 0
    page_pairs = 0
    n_windows = 1
    if llc is not None and coo.nnz_logical:
        eff_bytes = llc.size_bytes * 0.5
        avg_nnz_row = coo.nnz_logical / max(r1 - r0, 1)
        window_rows = max(1, int(eff_bytes / (12.0 * max(avg_nnz_row,
                                                         1e-9))))
        n_windows = max(1, -(-(r1 - r0) // window_rows))
        win = coo.row // window_rows
        key = win * ((coo.ncols // per_line) + 2) + \
            (coo.col + c0) // per_line
        window_pairs = int(len(np.unique(key)))
        if machine.tlb is not None:
            per_page = max(1, machine.tlb.page_bytes // VALUE_BYTES)
            pkey = win * ((coo.ncols // per_page) + 2) + \
                (coo.col + c0) // per_page
            page_pairs = int(len(np.unique(pkey)))
    pages = unique_pages(
        coo.col + c0,
        machine.tlb.page_bytes if machine.tlb else 4096,
    )
    rows_touched = int(len(np.unique(coo.row))) if coo.nnz_logical else 0
    fmt = sub.format_name
    r = getattr(sub, "r", 1)
    c = getattr(sub, "c", 1)
    ntiles = getattr(sub, "ntiles", sub.nnz_stored)
    if fmt in ("csr", "gcsr"):
        n_segments = rows_touched
    elif fmt == "bcsr":
        n_segments = int(len(np.unique(coo.row // r))) if coo.nnz_logical \
            else 0
    else:
        n_segments = 0
    idx_w = int(getattr(sub, "index_width", 4))
    return BlockProfile(
        r0=r0, r1=r1, c0=c0, c1=c1, format_name=fmt, r=r, c=c,
        index_bytes=idx_w, ntiles=ntiles, nnz_stored=sub.nnz_stored,
        nnz_logical=sub.nnz_logical, n_segments=n_segments,
        matrix_bytes=sub.footprint_bytes(), x_unique_lines=x_lines,
        x_accesses=coo.nnz_logical, rows_touched=rows_touched,
        pages_touched=pages, thread=thread,
        x_window_line_pairs=window_pairs,
        x_window_page_pairs=page_pairs,
        n_windows=n_windows,
    )


def profile_from_matrix(
    matrix, machine: Machine, *, n_threads: int = 1,
    thread_of_block: Sequence[int] | None = None,
) -> PlanProfile:
    """Build a :class:`PlanProfile` from a materialized sparse matrix.

    Accepts a :class:`~repro.formats.blocked.CacheBlockedMatrix` (one
    profile per cache block) or any flat format (a single whole-matrix
    block). Threads default to block-index modulo ``n_threads``.
    """
    from ..formats.blocked import CacheBlockedMatrix  # local: avoid cycle

    if isinstance(matrix, CacheBlockedMatrix):
        blocks = []
        for i, b in enumerate(matrix.blocks):
            t = (
                int(thread_of_block[i]) if thread_of_block is not None
                else i % n_threads
            )
            blocks.append(
                _profile_one(b.r0, b.r1, b.c0, b.c1, b.matrix, machine, t)
            )
        return PlanProfile(matrix.shape, tuple(blocks), n_threads)
    m, n = matrix.shape
    t = int(thread_of_block[0]) if thread_of_block is not None else 0
    prof = _profile_one(0, m, 0, n, matrix, machine, t)
    return PlanProfile(matrix.shape, (prof,), n_threads)
