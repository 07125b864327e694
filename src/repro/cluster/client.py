"""Client for the cluster tier: binary hot path, JSON cold path.

:class:`ClusterClient` points at one address — a router or a single
node, the protocol is identical — and keeps a persistent wire
connection for SpMV (one frame out, one frame in, vectors as raw
bytes). Registration and the debug plane ride plain HTTP/JSON, in the
tier's one codec (:func:`repro.serve.routes.dumps` /
:func:`~repro.serve.routes.loads`): they run once per matrix, where
JSON's cost is irrelevant and its debuggability is not.

Lifecycle follows :class:`~repro.serve.client.ServeClient`'s
context-manager protocol: ``close()`` is idempotent (a double close is
a no-op, never a hang) and any use after close raises a clear
:class:`~repro.errors.ClusterError` instead of blocking on a dead
socket.

Same-host fast path (``shm=True``): the client owns a
:class:`~repro.dist.shm.SegmentArena` with one x and one y segment
per matrix; an SpMV then sends only segment descriptors — the server
maps the same pages, so the vectors never cross the socket. Falls
back to inline payloads transparently if the server cannot attach
(e.g. the "same host" assumption was wrong).

:meth:`operator` satisfies the ``LinearOperator`` protocol of
:mod:`repro.solvers`, so conjugate gradients runs against a cluster
unchanged::

    with ClusterClient("127.0.0.1:9001") as cc:
        fp = cc.register(coo)["fingerprint"]
        x = conjugate_gradient(cc.operator(fp), b)
"""

from __future__ import annotations

import socket
import threading
import urllib.error
import urllib.request

import numpy as np

from ..errors import ClusterError
from ..observe import context as _context
from ..serve.routes import dumps, loads
from ..solvers.operator import FingerprintOperator
from . import wire


def http_fetch(url: str, *, method: str = "GET",
               body: dict | bytes | None = None, timeout_s: float = 30.0,
               who: str | None = None, parse=loads):
    """The tier's one HTTP exchange (client, router and CLI all call
    it): ``body`` goes out through :func:`~repro.serve.routes.dumps`
    (bytes go out as they are), the reply comes back through
    ``parse``. An error status raises :class:`ClusterError` carrying
    it, as ``"<who> answered <status>: <reply body>"`` (``who``
    defaults to the URL); an unreachable peer or an unparseable reply
    raises ``"cannot reach <url>: ..."`` with status 503. The urllib
    exception stays reachable as ``__cause__``."""
    data = body if body is None or isinstance(body, bytes) \
        else dumps(body)
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return parse(resp.read())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        raise ClusterError(
            f"{who or url} answered {exc.code}: {detail}",
            status=exc.code) from exc
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ClusterError(
            f"cannot reach {url}: {exc}", status=503) from exc


class ClusterClient:
    """Talks to one router (or node) address, ``"host:port"``."""

    def __init__(self, address: str, *, timeout_s: float = 30.0,
                 shm: bool = False):
        host, _, port = str(address).rpartition(":")
        if not host or not port.isdigit():
            raise ClusterError(
                f"bad cluster address {address!r} "
                f"(expected 'host:port')")
        self.address = f"{host}:{port}"
        self._host, self._port = host, int(port)
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._closed = False
        self._shapes: dict[str, tuple[int, int]] = {}
        self._arena = None
        self._segments: dict[str, tuple] = {}
        if shm:
            from ..dist.shm import SegmentArena

            self._arena = SegmentArena()

    # ------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Idempotent: the first call tears down, later calls no-op."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        if self._arena is not None:
            self._segments.clear()
            self._arena.unlink_all()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError(
                "cluster client is closed (operations after close() "
                "are invalid)")

    # ----------------------------------------------------- connections
    def _connected(self) -> socket.socket:
        """The persistent wire socket (caller holds ``self._lock``)."""
        if self._sock is None:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _roundtrip(self, kind: int, header: dict,
                   payload=b"") -> tuple[int, dict, bytes]:
        """One frame out, one frame in, on the persistent socket.
        A transport failure invalidates the socket (the next call
        reconnects) and surfaces as :class:`ClusterError`."""
        self._check_open()
        with self._lock:
            if self._closed:
                raise ClusterError("cluster client is closed "
                                   "(operations after close() are "
                                   "invalid)")
            try:
                sock = self._connected()
                wire.send_frame(sock, kind, header, payload)
                return wire.recv_frame(sock)
            except (OSError, ClusterError) as exc:
                if self._sock is not None:
                    try:
                        self._sock.close()
                    except OSError:
                        pass
                    self._sock = None
                if isinstance(exc, ClusterError):
                    raise
                raise ClusterError(
                    f"wire transport to {self.address} failed: {exc}",
                    status=503) from exc

    # ----------------------------------------------------- HTTP plane
    def _http(self, method: str, path: str,
              body: dict | None = None, parse=loads):
        self._check_open()
        return http_fetch(
            f"http://{self.address}{path}", method=method, body=body,
            timeout_s=self.timeout_s, who=self.address, parse=parse)

    # ---------------------------------------------------- registration
    def register(self, coo=None, *, generate: str | None = None,
                 scale: float = 0.05, seed: int = 0,
                 n_threads: int | None = None) -> dict:
        """Register a matrix cluster-wide (via the router: on every
        owner replica). Pass a COO, or a suite ``generate`` name."""
        if (coo is None) == (generate is None):
            raise ClusterError(
                "register() needs exactly one of a COO matrix or a "
                "generate= name")
        if coo is not None:
            body = {
                "shape": list(coo.shape),
                "row": np.ascontiguousarray(coo.row),
                "col": np.ascontiguousarray(coo.col),
                "val": np.ascontiguousarray(coo.val),
            }
        else:
            body = {"generate": generate, "scale": scale, "seed": seed}
        if n_threads is not None:
            body["n_threads"] = int(n_threads)
        reply = self._http("POST", "/v1/matrices", body)
        shape = reply.get("shape")
        if shape:
            self._shapes[reply["fingerprint"]] = (int(shape[0]),
                                                  int(shape[1]))
        return reply

    def operator(self, fingerprint: str) -> FingerprintOperator:
        self._check_open()
        shape = self._shapes.get(fingerprint)
        if shape is None:
            raise ClusterError(
                f"unknown fingerprint {fingerprint!r} (register the "
                f"matrix through this client first)")
        return FingerprintOperator(self, fingerprint, shape)

    # -------------------------------------------------------- hot path
    def spmv(self, fingerprint: str, x: np.ndarray) -> np.ndarray:
        """``y = A·x`` over the binary protocol. A sampled trace
        context installed in the caller propagates down the wire."""
        arr, view = wire.vector_payload(np.asarray(x))
        header: dict = {"fingerprint": fingerprint,
                        "n": int(arr.shape[0])}
        ctx = _context.current()
        if ctx is not None and ctx.sampled:
            header["trace"] = ctx.to_header()
        if self._arena is not None:
            y = self._spmv_shm(fingerprint, arr, header)
            if y is not None:
                return y
        kind, reply, payload = self._roundtrip(
            wire.KIND_SPMV, header, view)
        if kind == wire.KIND_ERROR:
            raise ClusterError(
                str(reply.get("error", "cluster error")),
                status=int(reply.get("status", 500)))
        if kind != wire.KIND_RESULT:
            raise ClusterError(f"unexpected reply kind {kind}")
        # The payload is a fresh buffer this call owns: y is a
        # writable view over it, no copy.
        return wire.payload_vector(payload, int(reply["n"]))

    def _segments_for(self, fingerprint: str, n: int,
                      m: int) -> tuple:
        segs = self._segments.get(fingerprint)
        if segs is None or segs[0].shape[0] != n:
            x_view, x_spec = self._arena.create((n,), np.float64)
            y_view, y_spec = self._arena.create((m,), np.float64)
            segs = (x_view, x_spec, y_view, y_spec)
            self._segments[fingerprint] = segs
        return segs

    def _spmv_shm(self, fingerprint: str, arr: np.ndarray,
                  header: dict) -> np.ndarray | None:
        """Try the shared-memory handoff; ``None`` means fall back to
        the inline payload (e.g. the server is on another host)."""
        shape = self._shapes.get(fingerprint)
        if shape is None:
            return None
        n, m = int(arr.shape[0]), int(shape[0])
        x_view, x_spec, y_view, y_spec = \
            self._segments_for(fingerprint, n, m)
        x_view[:] = arr
        shm_header = dict(header)
        shm_header.pop("n", None)
        shm_header["shm_x"] = {"name": x_spec.name,
                               "shape": list(x_spec.shape),
                               "dtype": x_spec.dtype}
        shm_header["shm_y"] = {"name": y_spec.name,
                               "shape": list(y_spec.shape),
                               "dtype": y_spec.dtype}
        kind, reply, _ = self._roundtrip(wire.KIND_SPMV, shm_header)
        if kind == wire.KIND_ERROR:
            if int(reply.get("status", 500)) >= 500:
                # Attach failed server-side: wrong-host assumption.
                # Disable the fast path and let the caller's inline
                # retry take over.
                self._segments.pop(fingerprint, None)
                return None
            raise ClusterError(
                str(reply.get("error", "cluster error")),
                status=int(reply.get("status", 500)))
        if kind != wire.KIND_RESULT or not reply.get("shm"):
            return None
        return y_view.copy()

    # --------------------------------------------------- observability
    def healthz(self) -> dict:
        return self._http("GET", "/healthz")

    def metrics_text(self) -> str:
        return self._http("GET", "/metrics", parse=bytes.decode)

    def trace(self, trace_id: str) -> list[dict]:
        """The merged router→node span tree for one trace."""
        try:
            return self._http(
                "GET", f"/v1/debug/trace/{trace_id}").get("spans", [])
        except ClusterError as exc:
            if exc.status == 404:
                return []
            raise

    def ping(self) -> bool:
        self._check_open()
        try:
            kind, _, _ = self._roundtrip(wire.KIND_PING, {})
        except ClusterError:
            return False
        return kind == wire.KIND_PONG


__all__ = ["ClusterClient", "http_fetch"]
