"""Per-architecture optimization selection (paper Table 2) and the
Figure 1 experiment points.

Maps the cumulative optimization rungs of Figure 1 (naive → +PF → +RB →
+CB → fully parallel) onto concrete :class:`OptimizationConfig` objects,
honoring Table 2's applicability matrix: which optimization classes each
architecture received, and the Cell-specific reduced path ("only dense
cache blocks and virtually no other optimization aside from the
mandatory DMAs and compressed 2 byte indices").

:func:`ladder` is the one place that decides each machine's Figure 1
bars — label, rung, thread count, placement — and which of them stand
for one core, one socket and the full system in Figure 2a and Table 4
(:func:`role_point`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..errors import TuningError
from ..machines.model import Machine, PlacementPolicy
from ..simulator.cpu import KernelVariant, optimized_variant
from .plan import OptimizationConfig


class OptimizationLevel(enum.Enum):
    """Cumulative rungs of the Figure 1 optimization ladder."""

    NAIVE = "naive"
    PF = "pf"                 #: + code generation & software prefetch
    PF_RB = "pf_rb"           #: + register blocking, 16-bit idx, BCOO
    PF_RB_CB = "pf_rb_cb"     #: + sparse cache & TLB blocking
    FULL = "full"             #: everything (what parallel runs use)


#: Table 2 condensed: optimization class → architectures it applies to
#: (x86 = AMD X2 + Clovertown, N = Niagara, C = Cell). Entries marked
#: "no-speedup" in the paper are listed as attempted-but-disabled.
OPTIMIZATION_TABLE: dict[str, dict[str, str]] = {
    "software_pipelining": {"x86": "yes", "niagara": "yes", "cell": "yes"},
    "branchless": {"x86": "no-speedup", "niagara": "attempted",
                   "cell": "n/a"},
    "simdization": {"x86": "yes", "niagara": "n/a", "cell": "yes"},
    "pointer_arithmetic": {"x86": "no-speedup", "niagara": "yes",
                           "cell": "n/a"},
    "prefetch_dma_values_indices": {"x86": "yes", "niagara": "yes",
                                    "cell": "yes"},
    "prefetch_dma_pointers_vectors": {"x86": "no", "niagara": "no",
                                      "cell": "yes"},
    "bcoo": {"x86": "yes", "niagara": "yes", "cell": "no"},
    "16bit_indices": {"x86": "yes", "niagara": "yes", "cell": "yes"},
    "32bit_indices": {"x86": "yes", "niagara": "yes", "cell": "yes"},
    "register_blocking": {"x86": "yes", "niagara": "yes", "cell": "no"},
    "cache_blocking": {"x86": "sparse", "niagara": "sparse",
                       "cell": "dense"},
    "tlb_blocking": {"x86": "yes", "niagara": "yes", "cell": "n/a"},
    "threading": {"x86": "pthreads", "niagara": "pthreads",
                  "cell": "libspe"},
    "row_parallel": {"x86": "yes", "niagara": "yes", "cell": "yes"},
    "numa_aware": {"x86": "yes", "niagara": "n/a", "cell": "no-speedup"},
    "process_affinity": {"x86": "yes", "niagara": "yes", "cell": "yes"},
    "memory_affinity": {"x86": "yes", "niagara": "n/a",
                        "cell": "interleave"},
}


def arch_family(machine: Machine) -> str:
    """Table 2 column for a machine."""
    if machine.local_store_bytes is not None:
        return "cell"
    if machine.core.hw_threads > 1:
        return "niagara"
    return "x86"


def optimization_config(
    machine: Machine,
    level: OptimizationLevel,
    *,
    parallel: bool = False,
) -> OptimizationConfig:
    """Concrete configuration for one ladder rung on one machine.

    ``parallel=True`` selects the NUMA placement the paper's parallel
    runs use: NUMA-aware on x86, page-interleave on the Cell blade
    (§4.4), irrelevant elsewhere.
    """
    if not isinstance(level, OptimizationLevel):
        raise TuningError(f"unknown optimization level {level!r}")
    family = arch_family(machine)
    if family == "cell":
        # The paper's Cell implementation is the same at every rung:
        # mandatory DMA, dense cache blocking, 2-byte indices, no RB.
        policy = (
            PlacementPolicy.INTERLEAVE
            if parallel and machine.mem.numa
            else PlacementPolicy.SINGLE_NODE
        )
        return OptimizationConfig(
            label=f"cell-{level.value}",
            sw_prefetch=True,           # DMA double buffering
            register_blocking=False,
            cache_blocking=True,
            tlb_blocking=False,
            index_compress=True,
            allow_bcoo=False,
            cell_dense_blocking=True,
            variant=optimized_variant(machine.core),
            policy=policy,
            fill_order="pack",
        )
    naive = level is OptimizationLevel.NAIVE
    rb = level in (OptimizationLevel.PF_RB, OptimizationLevel.PF_RB_CB,
                   OptimizationLevel.FULL)
    cb = level in (OptimizationLevel.PF_RB_CB, OptimizationLevel.FULL)
    policy = PlacementPolicy.SINGLE_NODE
    fill = "pack"
    if parallel:
        if machine.mem.numa:
            policy = PlacementPolicy.NUMA_AWARE
        fill = "spread" if machine.mem.numa else "pack"
    return OptimizationConfig(
        label=level.value,
        sw_prefetch=not naive,
        register_blocking=rb,
        cache_blocking=cb,
        tlb_blocking=cb and machine.tlb is not None,
        index_compress=rb,
        allow_bcoo=rb,
        allow_gcsr=False,
        cell_dense_blocking=False,
        variant=KernelVariant() if naive else optimized_variant(machine.core),
        policy=policy,
        fill_order=fill,
    )


class Role(enum.Flag):
    """What a ladder point stands for in Figure 2a and Table 4."""

    NONE = 0
    SERIAL = enum.auto()    #: a single-core bar
    SOCKET = enum.auto()    #: "1 socket, all cores"
    SYSTEM = enum.auto()    #: "all sockets, cores, threads"


@dataclass(frozen=True)
class LadderPoint:
    """One bar of a machine's Figure 1 panel.

    A system point uses the paper's parallel placement (NUMA-aware on
    x86, page interleave on the Cell blade, §4.4); every other point
    packs its threads onto as few sockets as possible, data on that
    node.
    """

    label: str
    level: OptimizationLevel
    n_threads: int
    role: Role = Role.NONE

    @property
    def packed(self) -> bool:
        return not self.role & Role.SYSTEM

    def config(self, machine: Machine) -> OptimizationConfig:
        cfg = optimization_config(machine, self.level,
                                  parallel=self.n_threads > 1)
        if self.packed:
            cfg = replace(cfg, fill_order="pack",
                          policy=PlacementPolicy.SINGLE_NODE)
        return cfg


_L = OptimizationLevel
_SERIAL_RUNGS = tuple(
    LadderPoint(label, level, 1, Role.SERIAL) for label, level in [
        ("1 Core - Naive", _L.NAIVE), ("1 Core[PF]", _L.PF),
        ("1 Core[PF,RB]", _L.PF_RB), ("1 Core[PF,RB,CB]", _L.PF_RB_CB),
    ]
)

#: Every machine's Figure 1 bars in the figure's order. Niagara's
#: socket bar is all cores at ONE thread each: threads join only in the
#: full-system bar (this is what makes the paper's 12.8x
#: blade-vs-Niagara socket ratio work out). The Cell panels show no
#: serial rungs: the DMA path is the same at every rung.
_FIGURE1: dict[str, tuple[LadderPoint, ...]] = {
    "AMD X2": _SERIAL_RUNGS + (
        LadderPoint("2 Core[*]", _L.FULL, 2, Role.SOCKET),
        LadderPoint("Dual Socket x 2 Core[*]", _L.FULL, 4, Role.SYSTEM),
    ),
    "Clovertown": _SERIAL_RUNGS + (
        LadderPoint("2 Core[*]", _L.FULL, 2),
        LadderPoint("4 Core[*]", _L.FULL, 4, Role.SOCKET),
        LadderPoint("2 Socket x 4 Core[*]", _L.FULL, 8, Role.SYSTEM),
    ),
    "Niagara": _SERIAL_RUNGS + (
        LadderPoint("8 Cores x 1 Thread[*]", _L.FULL, 8, Role.SOCKET),
        LadderPoint("8 Cores x 2 Threads[*]", _L.FULL, 16),
        LadderPoint("8 Cores x 4 Threads[*]", _L.FULL, 32, Role.SYSTEM),
    ),
    "Cell (PS3)": (
        LadderPoint("1 SPE(PS3)", _L.FULL, 1, Role.SERIAL),
        LadderPoint("6 SPEs(PS3)", _L.FULL, 6, Role.SOCKET | Role.SYSTEM),
    ),
    "Cell Blade": (
        LadderPoint("8 SPEs", _L.FULL, 8, Role.SOCKET),
        LadderPoint("Dual Socket x 8 SPEs", _L.FULL, 16, Role.SYSTEM),
    ),
}


def ladder(machine: Machine) -> list[LadderPoint]:
    """The machine's Figure 1 bars, in the figure's order."""
    if machine.name not in _FIGURE1:
        raise TuningError(f"Figure 1 has no panel for {machine.name!r}")
    return list(_FIGURE1[machine.name])


def role_point(machine: Machine, role: Role) -> LadderPoint:
    """The point that stands for ``role`` in Figure 2a and Table 4: the
    last (most optimized) ladder point carrying it.

    The blade's panel has no single-SPE bar; its serial point is the
    PS3's, the same SPE.
    """
    points = ([p for p in ladder(machine) if p.role & role]
              or [p for p in _FIGURE1["Cell (PS3)"] if p.role & role])
    return points[-1]
