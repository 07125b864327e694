"""OSKI-style serial autotuner baseline.

OSKI picks a register blocking by the SPARSITY v2 heuristic: measure a
one-time *machine profile* — dense-in-sparse-format performance for
every block size — then, for the target matrix, estimate each blocking's
fill ratio and choose the (r, c) maximizing
``profile_gflops(r, c) / fill(r, c)``. Unlike the paper's engine, OSKI
(as configured in the paper's comparison) uses 32-bit indices, CSR/BCSR
only, no software prefetch, and no cache blocking.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..core.engine import SpmvEngine
from ..core.optimizer import OptimizationLevel
from ..core.plan import OptimizationConfig, SpmvPlan
from ..formats.base import IndexWidth
from ..formats.bcsr import POWER_OF_TWO_BLOCKS
from ..formats.coo import COOMatrix
from ..formats.convert import count_tiles, to_bcsr
from ..machines.model import Machine, PlacementPolicy
from ..matrices.dense import dense_in_sparse
from ..observe import metrics as _metrics
from ..observe.trace import span as _span
from ..simulator.cpu import KernelVariant
from ..simulator.events import SimResult
from ..simulator.executor import simulate_spmv

#: Dense profile matrix dimension (small: the profile is a ratio).
_PROFILE_N = 512


def oski_config() -> OptimizationConfig:
    """OSKI's effective optimization set in the paper's comparison."""
    return OptimizationConfig(
        label="oski",
        sw_prefetch=False,         # OSKI relies on the compiler back-end
        register_blocking=True,
        cache_blocking=False,      # must be "specified or searched for"
        tlb_blocking=False,
        index_compress=False,      # 32-bit indices only
        allow_bcoo=False,
        allow_gcsr=False,
        variant=KernelVariant(simd=True, software_pipelined=False,
                              branchless=False, pointer_arith=True),
        policy=PlacementPolicy.SINGLE_NODE,
        fill_order="pack",
    )


@functools.cache
def machine_profile(machine: Machine) -> dict[tuple[int, int], float]:
    """Dense r×c BCSR Gflop/s per block size: OSKI's off-line install
    benchmark, run on the machine model, built once per machine."""
    with _span("oski.machine_profile", machine=machine.name):
        dense = dense_in_sparse(_PROFILE_N, seed=0)
        prof: dict[tuple[int, int], float] = {}
        for (r, c) in POWER_OF_TWO_BLOCKS:
            mat = to_bcsr(dense, r, c, index_width=IndexWidth.I32)
            prof[(r, c)] = simulate_spmv(
                machine, mat, n_threads=1, sw_prefetch=False,
                variant=oski_config().variant).gflops
    _metrics.inc("oski.profile_builds", machine=machine.name)
    return prof


@dataclass
class OskiTuner:
    """Serial SPARSITY-style register-block autotuner for one machine."""

    machine: Machine

    # ------------------------------------------------------------------
    def machine_profile(self) -> dict[tuple[int, int], float]:
        """The machine's OSKI install profile (see :func:`machine_profile`)."""
        return machine_profile(self.machine)

    def estimate_fill(self, coo: COOMatrix, r: int, c: int,
                      *, max_sample_rows: int = 4096,
                      seed: int = 0) -> float:
        """Fill ratio of an r×c blocking, estimated by row sampling.

        OSKI/SPARSITY never count tiles exactly at tuning time — they
        sample a fraction of the block rows, count tiles within the
        sampled rows exactly, and extrapolate. Matrices smaller than the
        sample budget are counted exactly.
        """
        nnz = coo.nnz_logical
        if nnz == 0:
            return 1.0
        n_brows = max(1, -(-coo.nrows // r))
        if n_brows <= max_sample_rows:
            return count_tiles(coo, r, c) * r * c / nnz
        rng = np.random.default_rng(seed)
        sampled = np.sort(rng.choice(n_brows, size=max_sample_rows,
                                     replace=False))
        # Nonzeros are row-major sorted: gather each sampled block row's
        # slice via searchsorted.
        row = coo.row
        lo = np.searchsorted(row, sampled * r, side="left")
        hi = np.searchsorted(row, (sampled + 1) * r, side="left")
        nnz_sampled = int((hi - lo).sum())
        if nnz_sampled == 0:
            return 1.0
        idx = np.concatenate([
            np.arange(a, b) for a, b in zip(lo, hi) if b > a
        ])
        sample = COOMatrix(coo.shape, row[idx], coo.col[idx],
                           coo.val[idx], dedupe=False)
        return count_tiles(sample, r, c) * r * c / nnz_sampled

    def choose_blocking(self, coo: COOMatrix) -> tuple[int, int]:
        """SPARSITY heuristic: argmax profile / fill."""
        prof = self.machine_profile()
        best, best_score = (1, 1), -np.inf
        with _span("oski.choose_blocking", nnz=coo.nnz_logical) as s:
            for (r, c), gflops in prof.items():
                fill = self.estimate_fill(coo, r, c)
                score = gflops / fill
                if score > best_score:
                    best, best_score = (r, c), score
            s.set(r=best[0], c=best[1])
        _metrics.inc("oski.fill_estimates", len(prof))
        _metrics.inc("oski.blocking_chosen", rc=f"{best[0]}x{best[1]}")
        return best

    # ------------------------------------------------------------------
    def plan(self, coo: COOMatrix) -> SpmvPlan:
        """OSKI-tuned serial plan (one thread, no cache blocking).

        The chosen blocking is forced by constraining the engine's
        candidate list to OSKI's pick (index width stays 32-bit via the
        config).
        """
        from dataclasses import replace

        r, c = self.choose_blocking(coo)
        engine = SpmvEngine(self.machine)
        cfg = replace(oski_config(), block_candidates=((r, c), (1, 1)))
        plan = engine.plan(coo, level=OptimizationLevel.FULL,
                           n_threads=1, config=cfg)
        return plan

    def simulate(self, coo: COOMatrix) -> SimResult:
        """Serial OSKI performance on this machine model."""
        engine = SpmvEngine(self.machine)
        plan = self.plan(coo)
        return engine.simulate(plan)

    def tuned_matrix(self, coo: COOMatrix):
        """Materialized OSKI data structure (for native execution)."""
        r, c = self.choose_blocking(coo)
        if (r, c) == (1, 1):
            from ..formats.convert import coo_to_csr

            return coo_to_csr(coo, index_width=IndexWidth.I32)
        return to_bcsr(coo, r, c, index_width=IndexWidth.I32)
