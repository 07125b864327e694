"""The SpMV optimization engine: plan → simulate → materialize → run.

:class:`SpmvEngine` executes the paper's methodology end-to-end for one
machine: partition rows across threads by nonzero count, cache/TLB-block
each thread's slab, pick the minimum-footprint format per cache block in
one pass, then either *simulate* the run on the machine model or
*materialize* the real data structure and execute it numerically
(its blocks run through :mod:`repro.kernels.registry`, on the NumPy or
the compiled kernels). :meth:`SpmvEngine.simulate_ladder` simulates
every Figure 1 point of a machine, ``{label: SimResult}`` in figure
order, for the paper generator, the CLI and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .._util import VALUE_BYTES
from ..errors import TuningError
from ..formats.base import SparseFormat
from ..observe import metrics as _metrics
from ..observe.trace import span as _span
from ..formats.coo import COOMatrix
from ..machines.model import Machine
from ..parallel.numa import assign_numa
from ..parallel.partition import partition_rows_balanced
from ..simulator.events import SimResult
from ..simulator.executor import simulate_plan
from ..simulator.traffic import BlockProfile, PlanProfile
from .heuristics import (
    FormatChoice,
    cell_block_specs,
    choose_formats_batch,
    lex3_order,
    sparse_cache_block_specs,
)


from .optimizer import (LadderPoint, OptimizationLevel, ladder,
                        optimization_config)
from .plan import OptimizationConfig, SpmvPlan, forced_index_width


def _sorted_block_unique(bid_sorted: np.ndarray, values_sorted: np.ndarray,
                         n_blocks: int) -> np.ndarray:
    """Count distinct ``values`` per block on a (block, value)-sorted
    stream via O(n) transition counting."""
    if len(values_sorted) == 0:
        return np.zeros(n_blocks, dtype=np.int64)
    span = int(values_sorted.max()) + 1
    key = bid_sorted * span + values_sorted
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return np.bincount(bid_sorted[new], minlength=n_blocks)


@dataclass(frozen=True)
class _RawBlock:
    """Duck-typed stand-in for COOMatrix inside the planning hot path
    (avoids re-validating/re-sorting per cache block)."""

    row: np.ndarray
    col: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz_logical(self) -> int:
        return len(self.row)


def config_rectangle(
    machine: Machine, n_threads: int, fill_order: str
) -> tuple[int, int, int]:
    """(sockets, cores_per_socket, threads_per_core) activating exactly
    ``n_threads`` hardware threads under the given fill order."""
    if not (1 <= n_threads <= machine.n_threads):
        raise TuningError(
            f"n_threads must be in [1, {machine.n_threads}]"
        )
    if fill_order == "spread":
        sockets = min(machine.sockets, n_threads)
        while n_threads % sockets:
            sockets -= 1
        per_socket = n_threads // sockets
        cores = min(machine.cores_per_socket, per_socket)
        while per_socket % cores:
            cores -= 1
        tpc = per_socket // cores
    else:  # pack
        per_core = machine.core.hw_threads
        cores_needed = -(-n_threads // per_core)
        sockets = min(machine.sockets,
                      -(-cores_needed // machine.cores_per_socket))
        per_socket = n_threads // sockets
        if per_socket * sockets != n_threads:
            raise TuningError(
                f"{n_threads} threads do not pack evenly on "
                f"{machine.name}"
            )
        cores = min(machine.cores_per_socket, per_socket)
        while per_socket % cores:
            cores -= 1
        tpc = per_socket // cores
    if tpc > machine.core.hw_threads:
        raise TuningError(
            f"{n_threads} threads need {tpc} contexts/core but "
            f"{machine.name} has {machine.core.hw_threads}"
        )
    return sockets, cores, tpc


class SpmvEngine:
    """Multicore SpMV auto-tuner for one machine model."""

    def __init__(self, machine: Machine):
        self.machine = machine

    # ------------------------------------------------------------------
    def plan(
        self,
        coo: COOMatrix,
        *,
        level: OptimizationLevel = OptimizationLevel.FULL,
        n_threads: int = 1,
        config: OptimizationConfig | None = None,
        backend: str = "numpy",
    ) -> SpmvPlan:
        """Produce an optimization plan (no heavy materialization).

        One pass over the nonzeros per register-block candidate, exactly
        the paper's search-free heuristic tuning. ``backend`` selects
        the execution substrate the plan will run on (``numpy`` | ``c``
        | ``auto``); it does not change the planned data structure.
        :meth:`plan_auto` is the learned / swept alternative.
        """
        from ..kernels.registry import resolve_backend

        backend = resolve_backend(backend)
        machine = self.machine
        if config is None:
            config = optimization_config(machine, level,
                                         parallel=n_threads > 1)
        with _span("engine.plan", machine=machine.name,
                   threads=n_threads, config=config.label,
                   nnz=coo.nnz_logical) as plan_span:
            with _span("plan.partition", threads=n_threads):
                partition = partition_rows_balanced(coo, n_threads)
            m, n = coo.shape
            llc = machine.last_level_cache
            line_elems = (
                max(1, llc.line_bytes // VALUE_BYTES)
                if llc is not None else 1
            )
            page_elems = (
                max(1, machine.tlb.page_bytes // VALUE_BYTES)
                if machine.tlb is not None else None
            )
            blocks: list[BlockProfile] = []
            choices: list[
                tuple[tuple[int, int, int, int], FormatChoice]
            ] = []
            row_all, col_all = coo.row, coo.col
            for part_id, (p0, p1) in enumerate(partition.ranges()):
                lo = int(np.searchsorted(row_all, p0, side="left"))
                hi = int(np.searchsorted(row_all, p1, side="left"))
                if hi == lo:
                    continue
                part = _RawBlock(
                    row_all[lo:hi] - p0, col_all[lo:hi], (p1 - p0, n)
                )
                with _span("plan.cache_block", part=part_id):
                    specs = self._block_specs(part, config)
                with _span("plan.format_select", part=part_id,
                           n_specs=len(specs)):
                    part_blocks, part_choices = self._plan_part(
                        part, specs, config, part_id, p0,
                        line_elems, page_elems,
                    )
                blocks.extend(part_blocks)
                choices.extend(part_choices)
            plan_span.set(n_blocks=len(blocks))
            _metrics.inc("plan.calls")
            _metrics.inc("plan.blocks_created", len(blocks))
            fmt_counts: dict[str, int] = {}
            for _, choice in choices:
                fmt_counts[choice.format_name] = (
                    fmt_counts.get(choice.format_name, 0) + 1
                )
            for fmt, count in fmt_counts.items():
                _metrics.inc("heuristic.format_chosen", count, fmt=fmt)
            profile = PlanProfile((m, n), tuple(blocks), n_threads)
            return SpmvPlan(
                machine=machine, config=config, profile=profile,
                partition=partition, choices=tuple(choices),
                backend=backend,
            )

    # ------------------------------------------------------------------
    def plan_auto(
        self,
        coo: COOMatrix,
        *,
        n_threads: int = 1,
        backend: str = "numpy",
        mode: str = "auto",
        planner=None,
    ):
        """Learned one-pass plan selection (see :mod:`repro.autoplan`).

        Returns a :class:`~repro.autoplan.PlanOutcome` carrying the
        plan plus how it was produced (predicted vs swept, confidence,
        sweep wall-clock and margin). Imported lazily so the core
        engine has no hard dependency on the autoplan package.
        """
        from ..autoplan.predictor import plan_with_autoplan

        return plan_with_autoplan(
            self, coo, n_threads=n_threads, backend=backend, mode=mode,
            planner=planner,
        )

    # ------------------------------------------------------------------
    def _plan_part(
        self,
        part: _RawBlock,
        specs,
        config: OptimizationConfig,
        part_id: int,
        p0: int,
        line_elems: int,
        page_elems: int | None,
    ) -> tuple[list[BlockProfile], list]:
        """Assign block ids to the part's nonzeros, run the batched
        footprint heuristic, and build per-block profiles — all
        vectorized (no per-nonzero Python)."""
        row, col = part.row, part.col
        if config.sellcs_chunk > 0:
            return self._plan_part_sellcs(
                part, config, part_id, p0, line_elems, page_elems
            )
        # Specs are ordered row-panel-major; group spans by panel.
        panels: list[tuple[int, int, list[tuple[int, int]]]] = []
        for (r0, r1, c0, c1) in specs:
            if panels and panels[-1][0] == r0:
                panels[-1][2].append((c0, c1))
            else:
                panels.append((r0, r1, [(c0, c1)]))
        block_id = np.empty(len(row), dtype=np.int64)
        extents: list[tuple[int, int, int, int]] = []
        next_id = 0
        for (r0, r1, spans) in panels:
            blo = int(np.searchsorted(row, r0, side="left"))
            bhi = int(np.searchsorted(row, r1, side="left"))
            span_ids_base = next_id
            for (c0, c1) in spans:
                extents.append((p0 + r0, p0 + r1, c0, c1))
            next_id += len(spans)
            if bhi == blo:
                continue
            col_bounds = np.array([c0 for c0, _ in spans] + [spans[-1][1]])
            local_span = (
                np.searchsorted(col_bounds, col[blo:bhi], side="right") - 1
            )
            block_id[blo:bhi] = span_ids_base + local_span
        n_blocks = next_id
        if len(row) == 0 or n_blocks == 0:
            return [], []
        # Compact away empty blocks (the paper never materializes them).
        nnz_per_block = np.bincount(block_id, minlength=n_blocks)
        occupied = np.flatnonzero(nnz_per_block)
        remap = -np.ones(n_blocks, dtype=np.int64)
        remap[occupied] = np.arange(len(occupied))
        bid = remap[block_id]
        kept = [extents[i] for i in occupied]
        r0_arr = np.array([e[0] - p0 for e in kept], dtype=np.int64)
        c0_arr = np.array([e[2] for e in kept], dtype=np.int64)
        block_rows = np.array([e[1] - e[0] for e in kept], dtype=np.int64)
        block_cols = np.array([e[3] - e[2] for e in kept], dtype=np.int64)
        lrow = row - r0_arr[bid]
        lcol = col - c0_arr[bid]
        if config.cell_dense_blocking:
            gates = dict(allow_register_blocking=False, allow_16bit=True,
                         allow_bcoo=False, allow_gcsr=False)
        else:
            gates = dict(
                allow_register_blocking=config.register_blocking,
                allow_16bit=config.index_compress,
                allow_bcoo=config.allow_bcoo,
                allow_gcsr=config.allow_gcsr,
            )
            if config.block_candidates is not None:
                gates["block_candidates"] = config.block_candidates
        order = lex3_order(bid, lrow, lcol,
                           int(block_rows.max()), int(block_cols.max()))
        batch = choose_formats_batch(
            bid, lrow, lcol, block_rows, block_cols, order=order, **gates
        )
        # Vectorized per-block profile statistics: one (block, col) sort
        # serves both line and page counting; rows come from `order`.
        nb = len(kept)
        order_c = np.argsort(bid * (int(col.max()) + 1) + col, kind="stable")
        b_c, col_c = bid[order_c], col[order_c]
        x_lines = _sorted_block_unique(b_c, col_c // line_elems, nb)
        pages = (
            _sorted_block_unique(b_c, col_c // page_elems, nb)
            if page_elems is not None else np.zeros(nb, dtype=np.int64)
        )
        b_r, lrow_r = bid[order], lrow[order]
        rows_touched = _sorted_block_unique(b_r, lrow_r, nb)
        # Working-set (row-window × line) pairs for blocks whose x
        # footprint exceeds the cache — only relevant when cache
        # blocking is off (blocked plans fit by construction).
        llc = self.machine.last_level_cache
        window_pairs = np.zeros(nb, dtype=np.int64)
        page_pairs = np.zeros(nb, dtype=np.int64)
        n_windows = np.ones(nb, dtype=np.int64)
        if llc is not None and not (config.cache_blocking
                                    or config.cell_dense_blocking):
            eff_bytes = llc.size_bytes * 0.5
            avg_nnz_row = len(row) / max(part.shape[0], 1)
            # Rows per cache turnover: the matrix stream (~12 B/nnz)
            # flushes the effective cache once per window.
            window_rows = max(1, int(
                eff_bytes / (12.0 * max(avg_nnz_row, 1e-9))
            ))
            win = lrow // window_rows
            wspan = int(win.max()) + 2 if len(win) else 1
            n_windows = np.maximum(
                1, -(-block_rows // window_rows)
            )
            for granularity, out in (
                (line_elems, window_pairs),
                (page_elems, page_pairs),
            ):
                if granularity is None:
                    continue
                vals = col // granularity
                vspan = int(vals.max()) + 2 if len(vals) else 1
                key = (bid * wspan + win) * vspan + vals
                uniq = np.unique(key)
                out[:] = np.bincount(
                    uniq // (wspan * vspan), minlength=nb
                )
        nnz_b = nnz_per_block[occupied]
        profiles: list[BlockProfile] = []
        out_choices = []
        for i, (ext, choice) in enumerate(zip(kept, batch)):
            profiles.append(
                BlockProfile(
                    r0=ext[0], r1=ext[1], c0=ext[2], c1=ext[3],
                    format_name=choice.format_name, r=choice.r,
                    c=choice.c, index_bytes=choice.index_bytes,
                    ntiles=choice.ntiles, nnz_stored=choice.nnz_stored,
                    nnz_logical=int(nnz_b[i]),
                    n_segments=choice.n_segments,
                    matrix_bytes=choice.footprint,
                    x_unique_lines=int(x_lines[i]),
                    x_accesses=int(nnz_b[i]),
                    rows_touched=int(rows_touched[i]),
                    pages_touched=int(pages[i]),
                    thread=part_id,
                    x_window_line_pairs=int(window_pairs[i]),
                    x_window_page_pairs=int(page_pairs[i]),
                    n_windows=int(n_windows[i]),
                )
            )
            out_choices.append((ext, choice))
        return profiles, out_choices

    def _plan_part_sellcs(
        self,
        part: _RawBlock,
        config: OptimizationConfig,
        part_id: int,
        p0: int,
        line_elems: int,
        page_elems: int | None,
    ) -> tuple[list[BlockProfile], list]:
        """SELL-C-σ stores each thread part whole: the σ-window sort is
        the locality transform, so there is exactly one block per part
        and the format choice is fixed by the config."""
        from ..formats.sellcs import (
            SellCSMatrix,
            normalize_sigma,
            sellcs_stats,
        )

        row, col = part.row, part.col
        m_part, n = part.shape
        chunk = int(config.sellcs_chunk)
        sigma = normalize_sigma(
            chunk, config.sellcs_sigma if config.sellcs_sigma > 0 else None
        )
        counts = np.bincount(row, minlength=m_part)
        n_slices, nnz_stored = sellcs_stats(counts, chunk, sigma)
        width = forced_index_width(config, n)
        footprint = SellCSMatrix.estimate_footprint(
            nnz_stored, n_slices, m_part, width
        )
        choice = FormatChoice(
            format_name="sellcs", r=chunk, c=sigma, index_width=width,
            ntiles=n_slices, nnz_stored=nnz_stored, footprint=footprint,
            n_segments=n_slices,
        )
        ext = (p0, p0 + m_part, 0, n)
        profile = BlockProfile(
            r0=ext[0], r1=ext[1], c0=ext[2], c1=ext[3],
            format_name="sellcs", r=chunk, c=sigma,
            index_bytes=choice.index_bytes, ntiles=n_slices,
            nnz_stored=nnz_stored, nnz_logical=len(row),
            n_segments=n_slices, matrix_bytes=footprint,
            x_unique_lines=int(len(np.unique(col // line_elems))),
            x_accesses=len(row),
            rows_touched=int(len(np.unique(row))),
            pages_touched=(
                int(len(np.unique(col // page_elems)))
                if page_elems is not None else 0
            ),
            thread=part_id,
            x_window_line_pairs=0, x_window_page_pairs=0, n_windows=1,
        )
        return [profile], [(ext, choice)]

    def _block_specs(self, part: _RawBlock, config: OptimizationConfig):
        m_part, n = part.shape
        if config.sellcs_chunk > 0:
            # One block per part; the σ sort replaces cache blocking.
            return [(0, m_part, 0, n)]
        if config.cell_dense_blocking:
            return cell_block_specs(part, self.machine)
        if config.cache_blocking:
            return sparse_cache_block_specs(
                part, self.machine, tlb_block=config.tlb_blocking
            )
        return [(0, m_part, 0, n)]

    # ------------------------------------------------------------------
    def simulate(self, plan: SpmvPlan, *, sw_prefetch: bool | None = None,
                 variant=None) -> SimResult:
        """Run the plan on the machine model.

        ``sw_prefetch``/``variant`` override the plan's code-generation
        settings without re-planning — the naive and PF rungs of the
        Figure 1 ladder share one data structure and differ only here.
        """
        sockets, cores, tpc = config_rectangle(
            self.machine, plan.n_threads, plan.config.fill_order
        )
        with _span("engine.simulate", machine=self.machine.name,
                   threads=plan.n_threads, config=plan.config.label):
            return simulate_plan(
                self.machine, plan.profile,
                sockets=sockets, cores_per_socket=cores,
                threads_per_core=tpc,
                policy=plan.config.policy,
                sw_prefetch=(
                    plan.config.sw_prefetch if sw_prefetch is None
                    else sw_prefetch
                ),
                variant=plan.config.variant if variant is None else variant,
            )

    def simulate_ladder(
        self, coo: COOMatrix, points: list[LadderPoint] | None = None,
    ) -> dict[str, SimResult]:
        """Simulate Figure 1's bars for one matrix: ``{label: result}``
        in the figure's order.

        ``points`` defaults to the machine's whole
        :func:`~repro.core.optimizer.ladder`. Naive and PF share one
        data structure and differ only in code generation, so the naive
        bar is the PF plan simulated with prefetch and codegen off.
        """
        if points is None:
            points = ladder(self.machine)
        plans: dict[tuple, SpmvPlan] = {}
        results: dict[str, SimResult] = {}
        for point in points:
            shared = point
            if point.level is OptimizationLevel.NAIVE:
                shared = replace(point, level=OptimizationLevel.PF)
            key = (shared.level, shared.n_threads, shared.packed)
            if key not in plans:
                plans[key] = self.plan(coo, n_threads=shared.n_threads,
                                       config=shared.config(self.machine))
            cfg = point.config(self.machine)
            results[point.label] = self.simulate(
                plans[key], sw_prefetch=cfg.sw_prefetch, variant=cfg.variant
            )
        return results

    def numa_assignment(self, plan: SpmvPlan):
        """Thread placement the plan implies (affinity bookkeeping)."""
        return assign_numa(
            self.machine, plan.n_threads, policy=plan.config.policy,
            fill_order=plan.config.fill_order,
        )

    # ------------------------------------------------------------------
    def tune(
        self,
        coo: COOMatrix,
        *,
        level: OptimizationLevel = OptimizationLevel.FULL,
        n_threads: int = 1,
        backend: str = "numpy",
    ) -> "TunedSpMV":
        """Plan and materialize: returns an executable tuned SpMV."""
        plan = self.plan(coo, level=level, n_threads=n_threads,
                         backend=backend)
        with _span("engine.materialize", machine=self.machine.name,
                   nnz=coo.nnz_logical):
            matrix = plan.materialize(coo)
        _metrics.inc("engine.tunes")
        return TunedSpMV(engine=self, plan=plan, matrix=matrix)


@dataclass(frozen=True)
class TunedSpMV:
    """An executable, simulatable, fully tuned SpMV operator."""

    engine: SpmvEngine
    plan: SpmvPlan
    matrix: SparseFormat

    def __call__(self, x: np.ndarray,
                 y: np.ndarray | None = None) -> np.ndarray:
        """Numerically execute ``y ← y + A·x`` with the tuned structure
        on the plan's chosen backend."""
        from ..kernels.registry import spmv_backend

        return spmv_backend(self.matrix, x, y, backend=self.plan.backend)

    def simulate(self) -> SimResult:
        """Predicted performance on the engine's machine model."""
        return self.engine.simulate(self.plan)

    @property
    def footprint_bytes(self) -> int:
        return self.matrix.footprint_bytes()
