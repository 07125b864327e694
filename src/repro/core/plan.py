"""Optimization configuration and the executable plan object."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import TuningError
from ..formats.base import IndexWidth, SparseFormat
from ..formats.blocked import CacheBlock, CacheBlockedMatrix
from ..formats.convert import (
    coo_to_csr,
    to_bcoo,
    to_bcsr,
    to_gcsr,
    to_sellcs,
)
from ..formats.coo import COOMatrix
from ..machines.model import Machine, PlacementPolicy
from ..parallel.partition import RowPartition
from ..simulator.cpu import KernelVariant
from ..simulator.traffic import BlockProfile, PlanProfile
from .heuristics import FormatChoice


@dataclass(frozen=True)
class OptimizationConfig:
    """Which optimizations are active (one rung of Figure 1's ladder)."""

    label: str
    sw_prefetch: bool = False
    register_blocking: bool = False
    cache_blocking: bool = False
    tlb_blocking: bool = False
    index_compress: bool = False
    allow_bcoo: bool = False
    allow_gcsr: bool = False
    cell_dense_blocking: bool = False  #: the partially-optimized Cell path
    #: SELL-C-σ slice height; 0 disables the format. When set, each
    #: thread part is stored whole as SELL-C-σ (no cache blocking —
    #: the σ-window sort is its own locality transform).
    sellcs_chunk: int = 0
    #: SELL-C-σ sort-window size in rows (0 = the format default).
    sellcs_sigma: int = 0
    #: Restrict register-block candidates (None = all power-of-two up to
    #: 4x4). The OSKI baseline pins this to its profile-chosen blocking.
    block_candidates: tuple[tuple[int, int], ...] | None = None
    variant: KernelVariant = field(default_factory=KernelVariant)
    policy: PlacementPolicy = PlacementPolicy.SINGLE_NODE
    fill_order: str = "pack"

    def to_dict(self) -> dict:
        """JSON-safe encoding (see :mod:`repro.serve.plancache`)."""
        return {
            "label": self.label,
            "sw_prefetch": self.sw_prefetch,
            "register_blocking": self.register_blocking,
            "cache_blocking": self.cache_blocking,
            "tlb_blocking": self.tlb_blocking,
            "index_compress": self.index_compress,
            "allow_bcoo": self.allow_bcoo,
            "allow_gcsr": self.allow_gcsr,
            "cell_dense_blocking": self.cell_dense_blocking,
            "sellcs_chunk": self.sellcs_chunk,
            "sellcs_sigma": self.sellcs_sigma,
            "block_candidates": (
                None if self.block_candidates is None
                else [list(rc) for rc in self.block_candidates]
            ),
            "variant": asdict(self.variant),
            "policy": self.policy.value,
            "fill_order": self.fill_order,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizationConfig":
        """Inverse of :meth:`to_dict`."""
        cands = d.get("block_candidates")
        return cls(
            label=d["label"],
            sw_prefetch=bool(d["sw_prefetch"]),
            register_blocking=bool(d["register_blocking"]),
            cache_blocking=bool(d["cache_blocking"]),
            tlb_blocking=bool(d["tlb_blocking"]),
            index_compress=bool(d["index_compress"]),
            allow_bcoo=bool(d["allow_bcoo"]),
            allow_gcsr=bool(d["allow_gcsr"]),
            cell_dense_blocking=bool(d["cell_dense_blocking"]),
            # Plans serialized before SELL-C-σ existed load with the
            # format disabled.
            sellcs_chunk=int(d.get("sellcs_chunk", 0)),
            sellcs_sigma=int(d.get("sellcs_sigma", 0)),
            block_candidates=(
                None if cands is None
                else tuple((int(r), int(c)) for r, c in cands)
            ),
            variant=KernelVariant(**d["variant"]),
            policy=PlacementPolicy(d["policy"]),
            fill_order=d["fill_order"],
        )


@dataclass(frozen=True)
class SpmvPlan:
    """A fully decided SpMV execution: blocks, formats, threads.

    ``profile`` feeds the simulator; ``choices`` (extent → format
    decision) lets :meth:`materialize` build the real data structure so
    the identical plan can also *execute* numerically.
    """

    machine: Machine
    config: OptimizationConfig
    profile: PlanProfile
    partition: RowPartition
    choices: tuple[tuple[tuple[int, int, int, int], FormatChoice], ...]
    #: Execution backend: ``numpy`` (default, bit-stable), ``c``
    #: (runtime-compiled kernels), or ``auto``. See
    #: :func:`repro.kernels.registry.resolve_backend`.
    backend: str = "numpy"

    @property
    def n_threads(self) -> int:
        return self.profile.n_threads

    @property
    def footprint_bytes(self) -> int:
        return self.profile.matrix_bytes

    def materialize(self, coo: COOMatrix) -> SparseFormat:
        """Build the actual optimized matrix this plan describes."""
        if coo.shape != self.profile.shape:
            raise TuningError(
                f"matrix shape {coo.shape} does not match plan shape "
                f"{self.profile.shape}"
            )
        blocks: list[CacheBlock] = []
        for (r0, r1, c0, c1), choice in self.choices:
            local = coo.submatrix(r0, r1, c0, c1)
            if local.nnz_logical == 0:
                continue
            blocks.append(
                CacheBlock(r0, r1, c0, c1, _build_format(local, choice))
            )
        matrix = CacheBlockedMatrix(coo.shape, blocks)
        matrix.n_threads = self.n_threads
        return matrix

    def to_dict(self) -> dict:
        """Lossless JSON-safe encoding of the whole plan.

        The machine is stored by its Table 1 name (machine models are
        code, not data — :func:`from_dict` re-resolves through the
        registry, so a plan cannot silently carry a stale model).
        """
        return {
            "machine": self.machine.name,
            "config": self.config.to_dict(),
            "profile": {
                "shape": list(self.profile.shape),
                "n_threads": self.profile.n_threads,
                "blocks": [asdict(b) for b in self.profile.blocks],
            },
            "partition": {
                "bounds": self.partition.bounds.tolist(),
                "nnz_per_part": self.partition.nnz_per_part.tolist(),
            },
            "choices": [
                {"extent": list(ext), "choice": choice.to_dict()}
                for ext, choice in self.choices
            ],
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpmvPlan":
        """Inverse of :meth:`to_dict`."""
        from ..machines.registry import get_machine

        prof = d["profile"]
        profile = PlanProfile(
            shape=tuple(int(v) for v in prof["shape"]),
            blocks=tuple(BlockProfile(**b) for b in prof["blocks"]),
            n_threads=int(prof["n_threads"]),
        )
        partition = RowPartition(
            bounds=np.asarray(d["partition"]["bounds"], dtype=np.int64),
            nnz_per_part=np.asarray(
                d["partition"]["nnz_per_part"], dtype=np.int64
            ),
        )
        return cls(
            machine=get_machine(d["machine"]),
            config=OptimizationConfig.from_dict(d["config"]),
            profile=profile,
            partition=partition,
            choices=tuple(
                (tuple(int(v) for v in item["extent"]),
                 FormatChoice.from_dict(item["choice"]))
                for item in d["choices"]
            ),
            # Plans serialized before the C backend existed load as
            # NumPy plans.
            backend=str(d.get("backend", "numpy")),
        )

    def describe(self) -> dict:
        """Human-readable plan summary."""
        census: dict[str, int] = {}
        for _, choice in self.choices:
            key = f"{choice.format_name}-{choice.r}x{choice.c}-" \
                  f"{choice.index_bytes * 8}bit"
            census[key] = census.get(key, 0) + 1
        return {
            "machine": self.machine.name,
            "config": self.config.label,
            "backend": self.backend,
            "n_threads": self.n_threads,
            "n_blocks": len(self.choices),
            "footprint_bytes": self.footprint_bytes,
            "block_formats": census,
            "imbalance": self.partition.imbalance,
        }


def _build_format(local: COOMatrix, choice: FormatChoice) -> SparseFormat:
    """Materialize one block according to its heuristic choice."""
    if choice.format_name == "csr":
        return coo_to_csr(local, index_width=choice.index_width)
    if choice.format_name == "gcsr":
        return to_gcsr(local, index_width=choice.index_width)
    if choice.format_name == "bcsr":
        return to_bcsr(local, choice.r, choice.c,
                       index_width=choice.index_width)
    if choice.format_name == "bcoo":
        return to_bcoo(local, choice.r, choice.c,
                       index_width=choice.index_width)
    if choice.format_name == "sellcs":
        # r carries the slice height C, c the σ sort window.
        return to_sellcs(local, chunk=choice.r, sigma=choice.c,
                         index_width=choice.index_width)
    raise TuningError(f"unknown format in choice: {choice.format_name!r}")


def forced_index_width(
    config: OptimizationConfig, span: int
) -> IndexWidth:
    """Index width a config permits for a given span."""
    if config.index_compress and span <= IndexWidth.I16.max_span:
        return IndexWidth.I16
    return IndexWidth.I32
