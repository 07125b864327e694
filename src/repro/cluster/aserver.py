"""Selectors-based async front end: many sockets, one thread.

The one network front end of the serve and cluster tiers. A cluster
node holds thousands of idle router/peer connections, so all of them
are multiplexed on one event-loop thread with :mod:`selectors`:
non-blocking accept, buffered reads, incremental frame/request
parsing, buffered writes with write-interest toggling.

Both protocols share one port. The first bytes of a connection decide:
``b"RW"`` means binary wire frames (:mod:`repro.cluster.wire`),
anything else is parsed as HTTP/1.1. The *application* behind the
loop is any object with two methods::

    handle_request(req: Request) -> Response | Future[Response]
    handle_frame(kind, header, payload)
        -> (kind, header, payload) | Future[...] | None

Handlers may return a ``concurrent.futures.Future`` (the node runs
every HTTP request and SPMV frame on its handler pool and returns that
job's future): the loop never blocks on app work and never runs a
kernel — completed futures re-enter through a thread-safe completion
queue and a wakeup socketpair, exactly one syscall per batch of
completions. A reply that cannot be encoded (a header past the limit)
goes out as an ``ERROR`` frame, so a client never waits for an answer
that will not come.

A wire connection carries one frame in flight: replies carry no
request id, so a client sends its next frame only after the reply to
the last (``ClusterClient`` and the router's pooled connections both
work that way).

Vector bytes are copied once on the way through: each frame's payload
is assembled into a fresh buffer of its own (the handler reads it
while the loop reads the next frame), and a reply's payload is queued
as the handler's ``memoryview``, written straight from y.

Request-size discipline: a declared ``Content-Length`` (or wire
payload length) beyond the limit is rejected — ``413`` / an ``ERROR``
frame — before the body is buffered, and the connection is closed, so
a client streaming a huge body never balloons this process's RSS. A
missing or invalid length on ``POST`` is a ``400``. A client that
sent ``Expect: 100-continue`` gets its ``100 Continue`` only once the
head has passed those checks.

``cluster.wire_bytes{dir=in|out}`` counts every byte through the
loop; ``cluster.connections`` gauges the live socket count.
"""

from __future__ import annotations

import selectors
import socket
import threading
from collections import deque
from concurrent.futures import Future

from ..errors import WireError
from ..observe import metrics as _metrics
from ..serve.routes import MAX_BODY_BYTES, Request, Response
from . import wire

_RECV_CHUNK = 256 * 1024
_MAX_HTTP_HEADER = 64 * 1024


class _Conn:
    """Per-connection state owned by the event loop thread."""

    __slots__ = ("sock", "addr", "inbuf", "out", "mode", "assembler",
                 "close_after", "http_head", "keep_alive")

    def __init__(self, sock: socket.socket, addr):
        self.sock = sock
        self.addr = addr
        self.inbuf = bytearray()
        self.out: deque = deque()          # memoryview/bytes to write
        self.mode: str | None = None       # None | "wire" | "http"
        self.assembler: wire.FrameAssembler | None = None
        self.close_after = False
        # (Request without its body, declared length) awaiting body
        self.http_head: tuple[Request, int] | None = None
        self.keep_alive = True


class AsyncFrontEnd:
    """One event-loop thread serving HTTP + wire frames for ``app``."""

    def __init__(self, app, *, host: str = "127.0.0.1", port: int = 0,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 name: str = "cluster-aserver"):
        self.app = app
        self.max_body_bytes = max_body_bytes
        self._sel = selectors.DefaultSelector()
        self._listen = socket.create_server((host, port), backlog=128)
        self._listen.setblocking(False)
        self.host, self.port = self._listen.getsockname()[:2]
        self._sel.register(self._listen, selectors.EVENT_READ, "accept")
        # Completions from app threads re-enter through this queue;
        # the socketpair write is the only cross-thread syscall.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._completions: deque = deque()
        self._conns: set[_Conn] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=name, daemon=True)

    # ------------------------------------------------------- lifecycle
    def start(self) -> "AsyncFrontEnd":
        self._thread.start()
        return self

    def close(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        self._wakeup()
        self._thread.join(timeout=5.0)
        for conn in list(self._conns):
            self._drop(conn)
        for sock in (self._listen, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        self._sel.close()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------ event loop
    def _loop(self) -> None:
        while not self._stop.is_set():
            for key, events in self._sel.select(timeout=0.5):
                if key.data == "accept":
                    self._accept()
                elif key.data == "wake":
                    self._drain_wake()
                else:
                    conn = key.data
                    try:
                        if events & selectors.EVENT_READ:
                            self._readable(conn)
                        if (events & selectors.EVENT_WRITE
                                and conn.sock.fileno() != -1):
                            self._writable(conn)
                    except (OSError, ValueError):
                        self._drop(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listen.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock, addr)
            self._conns.add(conn)
            _metrics.gauge("cluster.connections", len(self._conns))
            self._sel.register(sock, selectors.EVENT_READ, conn)

    def _drop(self, conn: _Conn) -> None:
        self._conns.discard(conn)
        _metrics.gauge("cluster.connections", len(self._conns))
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        while self._completions:
            conn, parts, close_after = self._completions.popleft()
            if conn in self._conns:
                self._send_parts(conn, parts, close_after)

    # ---------------------------------------------------------- writes
    def _send_parts(self, conn: _Conn, parts, close_after: bool) -> None:
        for part in parts:
            # No copy: the view keeps the part's owner (a reply's y)
            # alive until the last byte is written.
            view = memoryview(part).cast("B")
            _metrics.inc("cluster.wire_bytes", view.nbytes, dir="out")
            conn.out.append(view)
        conn.close_after |= close_after
        self._writable(conn)

    def _writable(self, conn: _Conn) -> None:
        while conn.out:
            buf = conn.out[0]
            try:
                sent = conn.sock.send(buf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(conn)
                return
            if sent < len(buf):
                conn.out[0] = buf[sent:]
                break
            conn.out.popleft()
        if conn.out:
            self._sel.modify(conn.sock,
                             selectors.EVENT_READ | selectors.EVENT_WRITE,
                             conn)
        else:
            if conn.close_after:
                self._drop(conn)
                return
            self._sel.modify(conn.sock, selectors.EVENT_READ, conn)

    # ----------------------------------------------------------- reads
    def _readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn)
            return
        if not data:
            self._drop(conn)
            return
        _metrics.inc("cluster.wire_bytes", len(data), dir="in")
        if conn.mode is None:
            conn.inbuf += data
            if len(conn.inbuf) < len(wire.MAGIC):
                return
            if bytes(conn.inbuf[:len(wire.MAGIC)]) == wire.MAGIC:
                conn.mode = "wire"
                conn.assembler = wire.FrameAssembler()
                data, conn.inbuf = bytes(conn.inbuf), bytearray()
            else:
                conn.mode = "http"
                self._parse_http(conn)
                return
        elif conn.mode == "http":
            conn.inbuf += data
            self._parse_http(conn)
            return
        # wire mode
        try:
            frames = conn.assembler.feed(data)
        except WireError as exc:
            self._send_parts(
                conn, wire.error_frame(str(exc), exc.status), True)
            return
        for kind, header, payload in frames:
            self._dispatch_frame(conn, kind, header, payload)

    # ----------------------------------------------------- wire frames
    def _dispatch_frame(self, conn: _Conn, kind: int, header: dict,
                        payload: bytes) -> None:
        try:
            result = self.app.handle_frame(kind, header, payload)
        except Exception as exc:  # noqa: BLE001 - app fence
            status = getattr(exc, "status", 500)
            self._send_parts(
                conn, wire.error_frame(str(exc), status), False)
            return
        if result is None:
            return
        if isinstance(result, Future):
            result.add_done_callback(
                lambda f: self._complete_frame(conn, f))
        else:
            self._send_parts(conn, _reply_parts(result), False)

    def _complete_frame(self, conn: _Conn, fut: Future) -> None:
        """Runs on an app thread: package the outcome, hop back."""
        exc = fut.exception()
        if exc is not None:
            parts = wire.error_frame(str(exc),
                                     getattr(exc, "status", 500))
        else:
            result = fut.result()
            if result is None:
                return
            parts = _reply_parts(result)
        self._completions.append((conn, parts, False))
        self._wakeup()

    # ------------------------------------------------------------ http
    def _parse_http(self, conn: _Conn) -> None:
        while True:
            if conn.http_head is None:
                end = conn.inbuf.find(b"\r\n\r\n")
                if end < 0:
                    if len(conn.inbuf) > _MAX_HTTP_HEADER:
                        self._respond_http(
                            conn,
                            Response.error(431, "request header too "
                                                "large"),
                            close=True)
                    return
                if not self._parse_http_head(conn, end):
                    return
            req, length = conn.http_head
            if len(conn.inbuf) < length:
                return
            req.body = bytes(conn.inbuf[:length])
            del conn.inbuf[:length]
            conn.http_head = None
            self._dispatch_http(conn, req)
            if conn.close_after or conn.sock.fileno() == -1:
                return

    def _parse_http_head(self, conn: _Conn, end: int) -> bool:
        """Parse request line + headers; enforce the body bound before
        a single body byte is buffered past the head."""
        head_bytes = bytes(conn.inbuf[:end])
        del conn.inbuf[:end + 4]
        try:
            lines = head_bytes.decode("latin-1").split("\r\n")
            method, path, version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            self._respond_http(
                conn, Response.error(400, "malformed request line"),
                close=True)
            return False
        headers: dict = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip()] = value.strip()
        # Header names are case-insensitive on the wire: every lookup
        # goes through Request.header, here as in the handlers.
        req = Request(method, path, headers)
        try:
            length = int(req.header("Content-Length", "0"))
        except ValueError:
            length = -1
        if length > self.max_body_bytes:
            self._respond_http(
                conn,
                Response.error(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit"),
                close=True)
            return False
        if method == "POST" and length <= 0:
            self._respond_http(
                conn,
                Response.error(400, "missing or invalid "
                                    "Content-Length"),
                close=True)
            return False
        http10 = version.upper() == "HTTP/1.0"
        conn.keep_alive = (
            not http10
            and req.header("Connection", "").lower() != "close")
        conn.http_head = (req, max(length, 0))
        if (not http10
                and req.header("Expect", "").lower() == "100-continue"):
            # The client is holding the body back until told the head
            # is acceptable; an oversize or missing length has already
            # been refused above without this.
            self._send_parts(
                conn, [b"HTTP/1.1 100 Continue\r\n\r\n"], False)
        return True

    def _dispatch_http(self, conn: _Conn, req: Request) -> None:
        try:
            result = self.app.handle_request(req)
        except Exception as exc:  # noqa: BLE001 - app fence
            result = Response.error(500, f"internal error: {exc}")
        if isinstance(result, Future):
            result.add_done_callback(
                lambda f: self._complete_http(conn, f))
        else:
            self._respond_http(conn, result, close=not conn.keep_alive)

    def _complete_http(self, conn: _Conn, fut: Future) -> None:
        exc = fut.exception()
        resp = (Response.error(500, f"internal error: {exc}")
                if exc is not None else fut.result())
        self._completions.append(
            (conn, [_render_http(resp, conn.keep_alive)],
             not conn.keep_alive))
        self._wakeup()

    def _respond_http(self, conn: _Conn, resp: Response,
                      close: bool) -> None:
        keep = conn.keep_alive and not close
        self._send_parts(conn, [_render_http(resp, keep)], not keep)


def _reply_parts(result) -> list:
    """A handler's ``(kind, header, payload)`` as frame parts. A reply
    that fails to encode becomes an ``ERROR`` frame with the failure's
    status (500 when it has none): raised here it would be lost in a
    done-callback, or kill the loop, and the client would never hear
    back."""
    try:
        return wire.frame_parts(*result)
    except Exception as exc:  # noqa: BLE001 - the reply must go out
        return wire.error_frame(f"reply could not be encoded: {exc}",
                                getattr(exc, "status", 500))


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _render_http(resp: Response, keep_alive: bool) -> bytes:
    reason = _STATUS_TEXT.get(resp.status, "Unknown")
    lines = [
        f"HTTP/1.1 {resp.status} {reason}",
        f"Content-Type: {resp.content_type}",
        f"Content-Length: {len(resp.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{k}: {v}" for k, v in resp.headers.items()
                 if k.lower() != "connection")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + resp.body


__all__ = ["AsyncFrontEnd"]
