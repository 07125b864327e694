"""The multicore SpMV optimization engine — the paper's contribution.

The engine runs the paper's three optimization phases:

1. **Code optimization** (§4.1) — kernel-variant selection per
   architecture (software pipelining, SIMD, prefetch/DMA, pointer
   arithmetic), applied through the kernel generator and the
   simulator's kernel-cost model.
2. **Data-structure optimization** (§4.2) — one pass over the nonzeros
   choosing, per cache block, the register-block size, index width and
   CSR/BCOO/GCSR encoding that minimizes the memory footprint; sparse
   cache blocking by source-vector cache-line budget; TLB blocking by
   page budget.
3. **Parallelization optimization** (§4.3) — row partitioning balanced
   by nonzeros, NUMA-aware block/node assignment, process and memory
   affinity.

Entry point: :class:`~repro.core.engine.SpmvEngine`.
"""

from .engine import SpmvEngine, TunedSpMV
from .heuristics import (
    FormatChoice,
    cell_block_specs,
    choose_block_format,
    sparse_cache_block_specs,
)
from .optimizer import (OPTIMIZATION_TABLE, LadderPoint, OptimizationLevel,
                        Role, ladder, optimization_config, role_point)
from .plan import OptimizationConfig, SpmvPlan

__all__ = [
    "FormatChoice",
    "LadderPoint",
    "OPTIMIZATION_TABLE",
    "OptimizationConfig",
    "OptimizationLevel",
    "Role",
    "SpmvEngine",
    "SpmvPlan",
    "TunedSpMV",
    "cell_block_specs",
    "choose_block_format",
    "ladder",
    "optimization_config",
    "role_point",
    "sparse_cache_block_specs",
]
