"""Persistent sharded-execution tier (distribute once, compute forever).

The process-level analogue of the paper's NUMA-aware pinned-slab
design: a :class:`ShardGroup` forks N long-lived workers, ships each
registered matrix's nnz-balanced slabs into shared memory exactly once,
and serves every subsequent SpMV/SpMM with tiny control messages — the
opposite of the per-call fork-and-repartition anti-pattern the paper's
OSKI-PETSc baseline demonstrates.

* :mod:`.shm` — shared-memory matrix/vector codec (segment arena with
  strict parent-owned unlink discipline, zero-copy CSR attach).
* :mod:`.shard` — the worker loop: hold row slabs, compute, heartbeat,
  and answer every message with the metrics and spans it recorded.
* :mod:`.group` — lifecycle, registration, dispatch, gather over
  nnz-balanced row slabs (bit-identical to serial); one control pipe
  per shard, whose replies also carry the shard's telemetry home.
* :mod:`.fault` — heartbeat monitor, dead-shard detection, respawn +
  slab re-ship, bounded retry with backoff.
"""

from ..errors import DistError, ShardDeadError
from .fault import HeartbeatMonitor, RetryPolicy
from .group import ShardGroup
from .shm import SEGMENT_PREFIX, SegmentArena, SegmentSpec

__all__ = [
    "DistError",
    "HeartbeatMonitor",
    "RetryPolicy",
    "SEGMENT_PREFIX",
    "SegmentArena",
    "SegmentSpec",
    "ShardDeadError",
    "ShardGroup",
]
