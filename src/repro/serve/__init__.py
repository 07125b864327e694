"""Long-running batched SpMV serving layer.

Turns the one-shot tuning library into a service with the economics
the paper argues for — tune once per (matrix, machine), amortize over
thousands of multiplies:

* :mod:`.registry` — content-fingerprinted matrix registry holding
  tuned plans and materialized formats, LRU-bounded by footprint.
* :mod:`.plancache` — lossless JSON plan serialization plus a
  version-stamped on-disk store keyed by
  ``(machine, fingerprint, repro.__version__)``.
* :mod:`.scheduler` — coalesces concurrent same-matrix requests into
  multi-vector SpMM batches (size/deadline triggered) with bounded-
  queue admission control; runs each batch on the entry's tuned
  structure, in this process, through the plan's kernel backend.
* :mod:`.worker` — instrumented thread pool sized to the machine model.
* :mod:`.routes` — transport-independent request routing
  (``/v1/spmv``, ``/v1/matrices``, ``/healthz``, Prometheus
  ``/metrics``, the ``/v1/debug/*`` plane).
* :mod:`.transport` — ``start_server`` / ``stop_server``: the router
  on one port, behind the one network front end
  (:mod:`repro.cluster.aserver`).
* :mod:`.client` — the in-process client; its ``operator(fp)`` handle
  satisfies the solver ``LinearOperator`` protocol.
"""

from .client import ServeClient
from .plancache import PlanCache
from .registry import MatrixRegistry, RegistryEntry
from .routes import Request, Response, Router
from .scheduler import BatchScheduler
from .transport import start_server, stop_server
from .worker import WorkerPool

__all__ = [
    "BatchScheduler",
    "MatrixRegistry",
    "PlanCache",
    "RegistryEntry",
    "Request",
    "Response",
    "Router",
    "ServeClient",
    "WorkerPool",
    "start_server",
    "stop_server",
]
