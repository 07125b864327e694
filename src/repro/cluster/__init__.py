"""Multi-node serving tier: scale the SpMV service *out*.

The paper's bound is per-host: SpMV is memory-bandwidth limited, so
once a socket's measured ceiling is reached, more threads buy nothing
(:mod:`repro.observe.perf` quantifies exactly where that is). Serving
more traffic than one host's ceiling therefore means more hosts, and
this package is that tier, layered over :mod:`repro.serve` (and
reusing :mod:`repro.dist`'s shared-memory codec and retry policy):

* :mod:`.wire` — the binary protocol: length-prefixed, version-stamped
  frames carrying float64 vectors as raw bytes
  (``memoryview``/``np.frombuffer``, no JSON on the hot path), plus a
  same-host shared-memory handoff reusing :mod:`repro.dist.shm`.
* :mod:`.aserver` — selectors-based async front end: thousands of
  connections on one event-loop thread, HTTP and wire frames sniffed
  on the same port, app work returned as futures so the loop never
  blocks and never runs a kernel.
* :mod:`.placement` — consistent-hash placement keyed on
  ``content_fingerprint()``: replication factor, minimal key movement
  when the node set changes.
* :mod:`.node` — one serving node: a
  :class:`~repro.serve.client.ServeClient` (with its plan cache and
  observability plane) behind the async front end. An
  SPMV frame runs on the node's handler pool through
  ``ServeClient.spmv``, the synchronous entry HTTP requests take.
* :mod:`.router` — the front door: forwards to owner nodes, fails
  over across replicas with bounded backoff, health-checks the node
  set, and merges per-node span exports into one
  router→node trace tree.
* :mod:`.client` — ``ClusterClient``: persistent binary connection,
  solver-protocol operators, JSON cold path.
* :mod:`.bench` — ``banded_matrix``, a test matrix the end-to-end
  benchmark imports (the tier's measurements live in
  ``benchmarks/e2e``, not here).

CLI: ``repro cluster {node,router}``.
"""

from importlib import import_module

#: Public name -> submodule, resolved on first access so that importing
#: a leaf (``.wire``, ``.placement``, ``.bench``) does not load the
#: serve tier that ``.node`` and ``.router`` stand on.
_EXPORTS = {
    "AsyncFrontEnd": "aserver",
    "ClusterClient": "client",
    "ClusterNode": "node",
    "ClusterRouter": "router",
    "HashRing": "placement",
    "Placement": "placement",
    "start_node": "node",
    "start_router": "router",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted(_EXPORTS)
