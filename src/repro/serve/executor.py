"""How one registered matrix executes: the serve tier's execution seam.

The paper's conclusion is that the parallelization choice outweighs
every data-structure optimization, so it is made once per matrix — by
:class:`~repro.serve.registry.MatrixRegistry` at registration — and
held as one object on ``RegistryEntry.executor``. There are two kinds:
the tuned structure in this process, or a shard group. The scheduler
calls only ``spmv`` / ``spmm`` / ``describe``; a predicted plan's
background re-tune may swap in a new executor; eviction calls
``close``.

``describe()`` carries what the layers above report without knowing
the tier: the kernel ``backend``; ``sharded`` / ``shards`` for
``/healthz`` and tuning provenance; ``batch_counters``, the counters
one *served* batch bumps (the scheduler increments them, so a direct
call outside a batch does not count).
"""

from __future__ import annotations

import numpy as np

from ..kernels.registry import spmm_backend, spmv_backend


def _describe(backend: str, *counters: str, sharded: bool = False,
              shards: int = 0) -> dict:
    """The ``describe()`` dict; ``counters`` are the tier's own batch
    counters, joined by the compiled-path one when flops run in C in
    this process."""
    if backend == "c" and not sharded:
        counters += ("serve.c_backend_batches",)
    return {"backend": backend, "sharded": sharded, "shards": shards,
            "batch_counters": counters}


class InProcessExecutor:
    """The tuned structure on the thread running the batch (a worker,
    or a blocking caller's own), through the plan's kernel backend."""

    def __init__(self, matrix, backend: str):
        self.matrix = matrix
        self.backend = backend
        self._info = _describe(backend)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return spmv_backend(self.matrix, x, backend=self.backend)

    def spmm(self, x_block: np.ndarray) -> np.ndarray:
        return spmm_backend(self.matrix, x_block, backend=self.backend)

    def describe(self) -> dict:
        return self._info

    def close(self) -> None:
        """Owns nothing beyond the entry's own matrix."""


class ShardsExecutor:
    """The persistent workers of a :class:`~repro.dist.group.ShardGroup`
    over slabs resident in shared memory (plain CSR, whatever the tuned
    in-process format): only the x/y vectors move per batch."""

    def __init__(self, group, fingerprint: str):
        self.group = group
        self.fingerprint = fingerprint
        self._info = _describe(group.backend, "serve.sharded_batches",
                               sharded=True, shards=group.n_shards)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return self.group.spmv(self.fingerprint, x)

    def spmm(self, x_block: np.ndarray) -> np.ndarray:
        return self.group.spmm(self.fingerprint, x_block)

    def describe(self) -> dict:
        return self._info

    def close(self) -> None:
        """Free the matrix's shared-memory segments."""
        self.group.unregister(self.fingerprint)


__all__ = ["InProcessExecutor", "ShardsExecutor"]
