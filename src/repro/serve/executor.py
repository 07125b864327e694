"""How one registered matrix executes: the serve tier's execution seam.

The paper's conclusion is that the parallelization choice outweighs
every data-structure optimization, so it is made once per matrix — by
:class:`~repro.serve.registry.MatrixRegistry` at registration — and
held as one object on ``RegistryEntry.executor``. The scheduler calls
only ``spmv`` / ``spmm`` / ``describe``; the online tuner builds
candidates, times ``spmv`` on them and swaps the winner in; eviction
calls ``close``.

``describe()`` carries what the layers above report without knowing
the tier: the kernel ``backend``; ``sharded`` / ``exec_threads`` /
``shards`` for ``/healthz`` and tuning provenance; ``batch_counters``,
the counters one *served* batch bumps (the scheduler increments them,
so a tuner's timing runs do not count).
"""

from __future__ import annotations

import numpy as np

from ..errors import ServeError
from ..formats.blocked import CacheBlockedMatrix
from ..formats.csr import CSRMatrix
from ..kernels.registry import spmm_backend, spmv_backend
from ..parallel.threaded import threaded_spmm, threaded_spmv


def _describe(backend: str, *counters: str, sharded: bool = False,
              exec_threads: int = 1, shards: int = 0) -> dict:
    """The ``describe()`` dict; ``counters`` are the tier's own batch
    counters, joined by the compiled-path one when flops run in C in
    this process."""
    if backend == "c" and not sharded:
        counters += ("serve.c_backend_batches",)
    return {"backend": backend, "sharded": sharded,
            "exec_threads": exec_threads, "shards": shards,
            "batch_counters": counters}


class InProcessExecutor:
    """The tuned structure on the calling worker thread, through the
    plan's kernel backend."""

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


class ThreadedExecutor:
    """``n`` threads over nnz-balanced row slabs of one CSR matrix
    (:mod:`repro.parallel.threaded`). The slabs always run the compiled
    CSR kernel — it releases the GIL; without a compiler the call
    degrades to the serial NumPy kernel — so ``backend`` is the plan's
    label for reporting, not a kernel selector."""

    def __init__(self, csr, backend: str, n: int):
        # threaded_spmv computes the whole y = A·x from one CSR, so the
        # structure must cover the full shape: a bare CSRMatrix, or the
        # single-block wrapper a one-thread plan materializes to.
        if isinstance(csr, CacheBlockedMatrix) and len(csr.blocks) == 1:
            blk = csr.blocks[0]
            if (blk.r0, blk.c0, blk.r1, blk.c1) == (0, 0, *csr.shape):
                csr = blk.matrix
        if not isinstance(csr, CSRMatrix):
            raise ServeError(
                f"threaded execution needs one full-extent CSR matrix, "
                f"got {type(csr).__name__}"
            )
        self.csr = csr
        self.n = n
        self._info = _describe(backend, "serve.threaded_batches",
                               exec_threads=n)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return threaded_spmv(self.csr, x, n_threads=self.n)

    def spmm(self, x_block: np.ndarray) -> np.ndarray:
        return threaded_spmm(self.csr, x_block, n_threads=self.n)

    def describe(self) -> dict:
        return self._info

    def close(self) -> None:
        """Thread pools are per call; nothing persists."""


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


__all__ = ["InProcessExecutor", "ShardsExecutor", "ThreadedExecutor"]
