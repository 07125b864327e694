"""Cluster router: placement-aware forwarding with replica failover.

The router is the tier's front door. It owns a
:class:`~repro.cluster.placement.Placement` over the node set; an
inbound SpMV (binary frame or JSON) is forwarded to the matrix's
owner nodes over pooled persistent wire connections. Failure handling
follows ``dist/fault.py``'s shape: a bounded
:class:`~repro.dist.fault.RetryPolicy` walk across the replicas —
socket/wire failure marks the node down, counts
``cluster.failovers``, backs off, and tries the next owner; only when
every replica is exhausted does the caller see a 503. A background
health thread (the heartbeat pattern) pings every node and keeps the
``cluster.nodes_up`` gauge honest, so a recovered node rejoins the
candidate order without operator action.

Registration (``POST /v1/matrices``) is the control plane: the router
materializes the matrix body once, computes its
``content_fingerprint()``, and fans the registration out to *every*
owner under the replication factor — which is exactly what makes
failover answer bit-identically, every replica tuned the same matrix.

Tracing: a sampled inbound context makes the router record
``cluster.request``/``cluster.forward`` spans and propagate the
context down the wire, so ``GET /v1/debug/trace/{id}`` — which merges
the router's own spans with every node's ``/v1/debug/spans/{id}``
export — returns one tree spanning router→node processes, or with
``?format=chrome`` the same spans as Chrome trace events.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor


from ..dist.fault import RetryPolicy
from ..errors import ClusterError, ReproError, WireError
from ..observe import context as _context
from ..observe import metrics as _metrics
from ..observe.context import TRACE_HEADER
from ..observe.hub import install_hub
from ..observe.metrics import render_prometheus, sample_process_gauges
from ..observe.trace import SpanEvent
from ..observe.trace import span as _span
from ..serve.routes import (
    PROMETHEUS_CONTENT_TYPE,
    Request,
    Response,
    error_response,
    registration_from_body,
    spmv_response,
    trace_response,
    vector_from_body,
)
from .aserver import AsyncFrontEnd
from .client import http_fetch
from .placement import Placement
from . import wire

_NULL_CM = contextlib.nullcontext()


class _NodeState:
    """Router-side view of one node: liveness + a connection pool."""

    def __init__(self, address: str):
        self.address = address
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)
        self.up = True
        self.lock = threading.Lock()
        self.pool: deque[socket.socket] = deque()

    def connect(self, timeout: float) -> socket.socket:
        with self.lock:
            if self.pool:
                return self.pool.popleft()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def release(self, sock: socket.socket) -> None:
        with self.lock:
            if len(self.pool) < 8:
                self.pool.append(sock)
                return
        try:
            sock.close()
        except OSError:
            pass

    def drain_pool(self) -> None:
        with self.lock:
            socks, self.pool = list(self.pool), deque()
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass


class ClusterRouter:
    """Forwarding front door over a fixed node set."""

    def __init__(self, nodes, *, replication: int = 2,
                 vnodes: int = 64,
                 host: str = "127.0.0.1", port: int = 0,
                 retry: RetryPolicy | None = None,
                 timeout_s: float = 30.0,
                 health_interval_s: float = 0.5,
                 forward_threads: int = 16):
        nodes = list(nodes)
        if not nodes:
            raise ClusterError("a router needs at least one node")
        self.placement = Placement(nodes, replication=replication,
                                   vnodes=vnodes)
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self.hub = install_hub()
        self._states = {addr: _NodeState(addr) for addr in nodes}
        self._pool = ThreadPoolExecutor(
            max_workers=forward_threads,
            thread_name_prefix="cluster-router")
        self.front = AsyncFrontEnd(self, host=host, port=port,
                                   name="cluster-router-loop")
        self._stop = threading.Event()
        self._health = threading.Thread(
            target=self._health_loop, args=(health_interval_s,),
            name="cluster-health", daemon=True)
        _metrics.gauge("cluster.nodes_up", len(nodes))

    # ------------------------------------------------------- lifecycle
    def start(self) -> "ClusterRouter":
        self.front.start()
        self._health.start()
        return self

    @property
    def port(self) -> int:
        return self.front.port

    @property
    def address(self) -> str:
        return self.front.address

    def close(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        self.front.close()
        self._health.join(timeout=5.0)
        self._pool.shutdown(wait=True)
        for state in self._states.values():
            state.drain_pool()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------- health
    def _health_loop(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            self._health_scan()

    def _health_scan(self) -> None:
        up = 0
        for state in self._states.values():
            alive = self._ping(state)
            if alive and not state.up:
                state.up = True
            elif not alive and state.up:
                state.up = False
                state.drain_pool()
            up += int(state.up)
        _metrics.gauge("cluster.nodes_up", up)

    def _ping(self, state: _NodeState) -> bool:
        try:
            sock = state.connect(timeout=min(self.timeout_s, 2.0))
        except OSError:
            return False
        try:
            wire.send_frame(sock, wire.KIND_PING, {})
            kind, _, _ = wire.recv_frame(sock)
            state.release(sock)
            return kind == wire.KIND_PONG
        except (OSError, ClusterError):
            try:
                sock.close()
            except OSError:
                pass
            return False

    def live_nodes(self) -> list[str]:
        return [a for a, s in self._states.items() if s.up]

    # ----------------------------------------------- front-end protocol
    def handle_frame(self, kind: int, header: dict, payload: bytes):
        if kind == wire.KIND_PING:
            return (wire.KIND_PONG, {}, b"")
        if kind == wire.KIND_SPMV:
            _metrics.inc("cluster.requests", proto="wire")
            return self._pool.submit(self._forward_spmv, header,
                                     payload)
        raise WireError(f"router cannot serve frame kind {kind}")

    def handle_request(self, req: Request) -> Response | Future:
        if req.method == "GET" and req.path == "/healthz":
            return Response.json(200, self.describe())
        if req.method == "GET" and req.path == "/metrics":
            sample_process_gauges()
            return Response(200, render_prometheus().encode(),
                            PROMETHEUS_CONTENT_TYPE)
        return self._pool.submit(self._handle_slow, req)

    def _handle_slow(self, req: Request) -> Response:
        try:
            if req.method == "POST" and req.path == "/v1/matrices":
                return self._register(req)
            if req.method == "POST" and req.path == "/v1/spmv":
                return self._json_spmv(req)
            if req.method == "GET" and \
                    req.path.startswith("/v1/debug/trace/"):
                trace_id = req.path[len("/v1/debug/trace/"):]
                self._pull_node_spans(trace_id.partition("?")[0])
                return trace_response(self.hub, req.path)
            if req.method == "GET" and \
                    req.path.startswith("/v1/debug/spans/"):
                return trace_response(self.hub, req.path)
            return Response.error(
                404, f"unknown route {req.method} {req.path}")
        except ReproError as exc:
            return error_response(exc)
        except Exception as exc:  # noqa: BLE001 - the last fence
            return Response.error(500, f"internal error: {exc}")

    # ---------------------------------------------------- registration
    def _register(self, req: Request) -> Response:
        body = req.json()
        coo, _ = registration_from_body(body)
        fingerprint = coo.content_fingerprint()
        owners = self.placement.owners(fingerprint)
        results, errors = {}, {}
        for addr in owners:
            try:
                # The client's own bytes: re-encoding could turn an
                # Infinity the stdlib parsed into orjson's null.
                results[addr] = self._http_json(
                    addr, "POST", "/v1/matrices", req.body)
            except ClusterError as exc:
                errors[addr] = str(exc)
        if not results:
            raise ClusterError(
                f"registration failed on every owner: {errors}",
                status=503)
        first = next(iter(results.values()))
        return Response.json(200, {
            **first,
            "fingerprint": fingerprint,
            "owners": sorted(results),
            "failed_owners": errors,
        })

    def _http_json(self, addr: str, method: str, path: str,
                   body: dict | bytes | None = None) -> dict:
        return http_fetch(
            f"http://{addr}{path}", method=method, body=body,
            timeout_s=self.timeout_s, who=f"node {addr}")

    # ------------------------------------------------------ forwarding
    def _candidates(self, fingerprint: str) -> list[str]:
        """Owner order for one request: live owners in ring order, then
        down owners as a last resort (they may have just recovered)."""
        owners = self.placement.owners(fingerprint)
        live = [a for a in owners if self._states[a].up]
        down = [a for a in owners if not self._states[a].up]
        return live + down

    def _forward_spmv(self, header: dict,
                      payload: bytes) -> tuple[int, dict, bytes]:
        fingerprint = str(header.get("fingerprint", ""))
        if not fingerprint:
            raise WireError("SPMV frame needs a 'fingerprint'")
        ctx = _context.from_header(header.get("trace"))
        if ctx is None:
            # Forward and echo only a trace that parsed: junk could
            # push the forward header past its limit, which would read
            # as a transport failure and mark a healthy node down.
            header.pop("trace", None)
        with _context.use(ctx) if ctx is not None else _NULL_CM:
            with _span("cluster.request", fingerprint=fingerprint):
                return self._forward_walk(fingerprint, header, payload)

    def _forward_walk(self, fingerprint: str, header: dict,
                      payload: bytes) -> tuple:
        candidates = self._candidates(fingerprint)
        last_error = "no candidate nodes"
        not_found: ClusterError | None = None
        failures = 0
        for addr in candidates:
            try:
                return self._forward_once(addr, header, payload)
            except (OSError, WireError) as exc:
                # Transport-level failure: the node is suspect. Mark
                # it down (the health scan revives it), back off
                # boundedly, and fail over to the next replica.
                state = self._states[addr]
                state.up = False
                state.drain_pool()
                last_error = f"{addr}: {exc}"
                failures += 1
                _metrics.inc("cluster.failovers")
                if failures > self.retry.max_retries:
                    break
                time.sleep(self.retry.delay(failures))
            except ClusterError as exc:
                if exc.status == 404:
                    # This replica lacks the matrix (its registration
                    # failed there while another owner's succeeded):
                    # skip to the next candidate, node stays up.
                    not_found = exc
                    continue
                # Any other application error from a healthy node is
                # final — replicas hold the same registry, retrying
                # cannot help.
                raise
        if not_found is not None:
            raise not_found
        raise ClusterError(
            f"no live replica served {fingerprint!r} "
            f"(tried {candidates}): {last_error}", status=503)

    def _forward_once(self, addr: str, header: dict,
                      payload: bytes) -> tuple:
        state = self._states[addr]
        _metrics.inc("cluster.forwards", node=addr)
        t0 = time.perf_counter()
        with _span("cluster.forward", node=addr):
            # Inside the span the current context *is* the forward
            # span, so the node's serve.request parents onto it.
            ctx = _context.current()
            fwd_header = dict(header)
            if ctx is not None and ctx.sampled:
                fwd_header["trace"] = ctx.to_header()
            sock = state.connect(timeout=self.timeout_s)
            try:
                sock.settimeout(self.timeout_s)
                wire.send_frame(sock, wire.KIND_SPMV, fwd_header,
                                payload)
                kind, reply, body = wire.recv_frame(sock)
            except Exception:
                try:
                    sock.close()
                except OSError:
                    pass
                raise
            state.release(sock)
        _metrics.observe("cluster.forward_seconds",
                         time.perf_counter() - t0)
        if kind == wire.KIND_ERROR:
            # An application error from a healthy node is final — the
            # replicas hold the same registry, retrying cannot help.
            raise ClusterError(
                str(reply.get("error", "node error")),
                status=int(reply.get("status", 500)))
        if kind != wire.KIND_RESULT:
            raise WireError(f"unexpected reply kind {kind} from {addr}")
        # Echo the caller's own header back, not the forward-hop one.
        if "trace" in header:
            reply["trace"] = header["trace"]
        else:
            reply.pop("trace", None)
        return (kind, reply, body)

    # ------------------------------------------------- JSON data plane
    def _json_spmv(self, req: Request) -> Response:
        """JSON fallback: same routing/failover as the binary path
        (the body is re-encoded as a wire frame for the hop)."""
        _metrics.inc("cluster.requests", proto="http")
        body = req.json()
        x = vector_from_body(body)
        arr, view = wire.vector_payload(x)
        header = {"fingerprint": body["fingerprint"],
                  "n": int(arr.shape[0])}
        trace = req.header(TRACE_HEADER)
        if trace:
            header["trace"] = trace
        _, reply, out = self._forward_spmv(header, view)
        y = wire.payload_vector(out, int(reply["n"]))
        headers = {TRACE_HEADER: trace} if trace else {}
        return spmv_response(body["fingerprint"], y, headers)

    # ----------------------------------------------------- trace merge
    def _pull_node_spans(self, trace_id: str) -> None:
        """Merge each node's flat span export for ``trace_id`` into
        the router's hub, so the trace answers as one tree across the
        tier, stitched by explicit span ids."""
        if not trace_id:
            return
        for addr in self.live_nodes():
            try:
                body = self._http_json(
                    addr, "GET", f"/v1/debug/spans/{trace_id}")
            except ClusterError:
                continue    # node doesn't know this trace (404) / down
            self.hub.add_events([
                SpanEvent.from_json(e)
                for e in body.get("events", [])
            ])

    # ----------------------------------------------------------- admin
    def describe(self) -> dict:
        return {
            "status": "ok",
            "role": "router",
            "address": self.address,
            "placement": self.placement.describe(),
            "nodes": {
                addr: {"up": state.up}
                for addr, state in sorted(self._states.items())
            },
        }


def start_router(nodes, **kwargs) -> ClusterRouter:
    """Build and start a router; ``port=0`` picks a free port."""
    return ClusterRouter(nodes, **kwargs).start()


__all__ = ["ClusterRouter", "start_router"]
