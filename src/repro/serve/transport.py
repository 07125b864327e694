"""Single-host HTTP service: one :class:`ServeClient` on one port.

There is one network front end in the tree — the selectors loop in
:mod:`repro.cluster.aserver`, which owns HTTP framing and the body
bound (:data:`MAX_BODY_BYTES`). A single-host server is simply what a
cluster node already is, so :func:`start_server` starts one.
"""

from __future__ import annotations

from .client import ServeClient
from .routes import MAX_BODY_BYTES


def start_server(client: ServeClient, *, host: str = "127.0.0.1",
                 port: int = 0):
    """Bind and serve on a background loop thread; ``port=0`` picks a
    free port. Returns the started :class:`~repro.cluster.ClusterNode`
    (its ``.port`` is the bound port, ``.client`` the service)."""
    # Imported here: repro.cluster sits above repro.serve (its modules
    # import serve.routes and serve.client at import time).
    from ..cluster.node import start_node

    return start_node(client, host=host, port=port)


def stop_server(httpd, *, drain: bool = True) -> None:
    """Graceful stop: close the listener, then drain the service."""
    httpd.close()
    if drain:
        httpd.client.drain()


__all__ = ["MAX_BODY_BYTES", "start_server", "stop_server"]
