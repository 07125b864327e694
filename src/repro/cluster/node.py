"""One cluster serving node: a :class:`ServeClient` behind the async
front end, speaking HTTP and the binary wire protocol on one port.

The node is deliberately thin: every HTTP request goes through the
same :class:`repro.serve.routes.Router` the single-host server uses,
and a binary ``SPMV`` frame goes through the same synchronous entry,
:meth:`ServeClient.spmv`. The event loop only parses and hands off:
both kinds of request run on the node's handler pool, so a frame for
an idle matrix runs its kernel on that handler thread at once, a frame
for a busy matrix joins its pending batch, and the event loop never
runs a kernel.

Trace propagation: an ``SPMV`` frame's header may carry ``"trace"``
(the ``X-Repro-Trace`` value). The request runs under that context, so
the node's ``serve.request`` span — and the batch spans below it —
parent onto whatever span the router (or end client) opened upstream.
The flat span export at ``GET /v1/debug/spans/{trace_id}`` is what a
router pulls to merge one tree across processes.

Same-host fast path: a frame carrying ``shm_x``/``shm_y`` segment
descriptors instead of a payload reads x from (and writes y into) the
caller-owned shared-memory segments from :mod:`repro.dist.shm` — the
vectors never cross the socket at all.
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from ..errors import ClusterError, DistError, ReproError, WireError
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..serve.client import ServeClient
from ..serve.routes import Request, Router, error_response
from .aserver import AsyncFrontEnd
from . import wire


def _detach_foreign(seg) -> None:
    """Close a handle to a *client-owned* segment.

    Unlike the dist shards (forked, sharing the parent's resource
    tracker — see ``dist.shm.attach_array``), a node process is
    foreign to its clients: the attach-side tracker registration is
    spurious and makes the node warn at shutdown about segments the
    client already unlinked. The segment name embeds the creator's pid
    (``repro-dist-<pid>-<idx>``), so only drop the registration when
    the creator really is another process — an in-process node (tests,
    the benchmark) shares the client's tracker, where the registration is
    the owner's and must survive until its ``unlink()``.
    """
    seg.close()
    match = re.fullmatch(r"/?repro-dist-(\d+)-\d+", seg._name)
    if match is None or int(match.group(1)) == os.getpid():
        return
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass  # tracker details are CPython-version-specific


def _attach(spec_dict: dict):
    """Map a caller-owned segment: ``(view, handle)``. A segment this
    host cannot map (the client runs elsewhere, or is gone) is the
    node's failure, not the request's — 503 is what makes the client
    resend the vectors inline."""
    from ..dist.shm import SegmentSpec, attach_array

    spec = SegmentSpec(name=str(spec_dict["name"]),
                       shape=tuple(spec_dict["shape"]),
                       dtype=str(spec_dict["dtype"]))
    try:
        return attach_array(spec)
    except DistError as exc:
        raise ClusterError(str(exc), status=503) from exc


def _attach_copy(spec_dict: dict) -> np.ndarray:
    """Read a caller-owned segment into a private array and detach."""
    view, seg = _attach(spec_dict)
    try:
        return np.array(view, dtype=np.float64, copy=True)
    finally:
        del view
        _detach_foreign(seg)


def _write_back(spec_dict: dict, y: np.ndarray) -> None:
    """Write y into the caller-owned result segment and detach."""
    view, seg = _attach(spec_dict)
    try:
        view[...] = y
    finally:
        del view
        _detach_foreign(seg)


class ClusterNode:
    """A serving node: ``ServeClient`` + router + async front end."""

    def __init__(self, client: ServeClient | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 handler_threads: int = 8, **client_kwargs):
        self._own_client = client is None
        if client is None:
            client = ServeClient(**client_kwargs)
        self.client = client
        self.router = Router(client)
        # Every request (HTTP, or an SPMV frame) runs on this pool,
        # never on the event loop.
        self._pool = ThreadPoolExecutor(
            max_workers=handler_threads,
            thread_name_prefix="cluster-node")
        self.front = AsyncFrontEnd(self, host=host, port=port,
                                   name="cluster-node-loop")
        self._closed = False
        self._close_lock = threading.Lock()

    # ------------------------------------------------------- lifecycle
    def start(self) -> "ClusterNode":
        self.front.start()
        return self

    @property
    def port(self) -> int:
        return self.front.port

    @property
    def address(self) -> str:
        return self.front.address

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.front.close()
        self._pool.shutdown(wait=True)
        if self._own_client:
            self.client.close()

    def __enter__(self) -> "ClusterNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------- front-end protocol
    def handle_request(self, req: Request) -> Future:
        return self._pool.submit(self.router.handle, req)

    def handle_frame(self, kind: int, header: dict, payload: bytes):
        if kind == wire.KIND_PING:
            return (wire.KIND_PONG, {}, b"")
        if kind == wire.KIND_SPMV:
            _metrics.inc("cluster.requests", proto="wire")
            return self._pool.submit(self._handle_spmv, header, payload)
        raise WireError(f"node cannot serve frame kind {kind}")

    # -------------------------------------------------------- hot path
    def _handle_spmv(self, header: dict, payload: bytes) -> tuple:
        """One SPMV frame, on a handler thread: decode (or attach) x,
        run it through the synchronous entry, encode (or write back)
        y. A ``ReproError`` leaves as a ``ClusterError`` carrying the
        shared HTTP-equivalent status (404 for an unregistered
        fingerprint), not the front end's 500 fallback."""
        try:
            fingerprint = header.get("fingerprint")
            if not fingerprint:
                raise WireError("SPMV frame needs a 'fingerprint'")
            if "shm_x" in header:
                x = _attach_copy(header["shm_x"])
            else:
                x = wire.payload_vector(payload,
                                        int(header.get("n", -1)))
            trace = header.get("trace")
            ctx = _context.from_header(trace)
            with _context.use(ctx):
                y = self.client.spmv(fingerprint, x)
            reply = {"fingerprint": fingerprint, "n": int(y.shape[0])}
            # Echo only a trace that parsed: anything else is caller
            # junk that could push the reply header past its limit.
            if ctx is not None:
                reply["trace"] = trace
            if "shm_y" in header:
                _write_back(header["shm_y"], y)
                reply["shm"] = True
                return (wire.KIND_RESULT, reply, b"")
            # The view keeps this request's fresh y alive until sent.
            return (wire.KIND_RESULT, reply, wire.vector_payload(y)[1])
        except ClusterError:
            raise
        except ReproError as exc:
            raise ClusterError(str(exc),
                               status=error_response(exc).status) from exc

    # ----------------------------------------------------------- admin
    def describe(self) -> dict:
        d = self.client.describe()
        d["address"] = self.address
        return d


def start_node(client: ServeClient | None = None, *,
               host: str = "127.0.0.1", port: int = 0,
               **client_kwargs) -> ClusterNode:
    """Build and start a node; ``port=0`` picks a free port."""
    node = ClusterNode(client, host=host, port=port, **client_kwargs)
    return node.start()


__all__ = ["ClusterNode", "start_node"]
