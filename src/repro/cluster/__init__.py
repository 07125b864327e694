"""Multi-node serving tier: scale the SpMV service *out*.

The paper's bound is per-host: SpMV is memory-bandwidth limited, so
once a socket's measured ceiling is reached, more threads buy nothing
(:mod:`repro.observe.perf` quantifies exactly where that is). Serving
more traffic than one host's ceiling therefore means more hosts, and
this package is that tier, layered over :mod:`repro.serve` and
:mod:`repro.dist`:

* :mod:`.wire` — the binary protocol: length-prefixed, version-stamped
  frames carrying float64 vectors as raw bytes
  (``memoryview``/``np.frombuffer``, no JSON on the hot path), plus a
  same-host shared-memory handoff reusing :mod:`repro.dist.shm`.
* :mod:`.aserver` — selectors-based async front end: thousands of
  connections on one event-loop thread, HTTP and wire frames sniffed
  on the same port, app work returned as futures so the loop never
  blocks.
* :mod:`.placement` — consistent-hash placement keyed on
  ``content_fingerprint()``: replication factor, hot-matrix fan-out,
  minimal key movement when the node set changes.
* :mod:`.node` — one serving node: a
  :class:`~repro.serve.client.ServeClient` (with its shard group,
  plan cache, observability plane) behind the async front end.
* :mod:`.router` — the front door: forwards to owner nodes, fails
  over across replicas with bounded backoff, health-checks the node
  set, and merges per-node span exports into one
  router→node→shard trace tree.
* :mod:`.client` — ``ClusterClient``: persistent binary connection,
  solver-protocol operators, JSON cold path.
* :mod:`.bench` — the JSON-vs-binary measurement core.

CLI: ``repro cluster {node,router,bench}``.
"""

from .aserver import AsyncFrontEnd
from .client import ClusterClient
from .node import ClusterNode, start_node
from .placement import HashRing, Placement
from .router import ClusterRouter, start_router

__all__ = [
    "AsyncFrontEnd",
    "ClusterClient",
    "ClusterNode",
    "ClusterRouter",
    "HashRing",
    "Placement",
    "start_node",
    "start_router",
]
