"""Binary wire protocol for the multi-node serving tier.

The JSON request path spends its time encoding: a float64 serialized
as decimal text costs ~19 bytes plus parse time, against 8 bytes raw.
This codec keeps JSON for the tiny control header and moves vectors as
raw little-endian float64 — written straight from the ndarray's buffer
(``memoryview``, no serialization) and read back with
``np.frombuffer`` (no copy until the caller needs one).

Frame layout (big-endian lengths), 16-byte preamble::

    offset  size  field
    0       2     magic ``b"RW"``
    2       1     version (currently 1)
    3       1     kind (see the ``KIND_*`` constants)
    4       4     header length  H  (u32, JSON header bytes)
    8       8     payload length P  (u64, raw payload bytes)
    16      H     UTF-8 JSON header (``{}`` allowed)
    16+H    P     payload: raw little-endian float64 values

Limits are enforced on *declared* lengths before anything is buffered:
a header above 16 MiB or a payload at/above 4 GiB is rejected with
:class:`~repro.errors.WireError`, as are bad magic and unknown
versions. A stream that ends mid-frame raises ``WireError`` too — a
torn frame must never be silently reinterpreted as a short one.

Frame kinds:

``SPMV``    request: header ``{"fingerprint", "n", "trace"?}`` with
            the x vector as payload — or, on the same-host fast path,
            ``{"shm_x", "shm_y"}`` segment descriptors
            (:class:`repro.dist.shm.SegmentSpec`) and an empty payload.
``RESULT``  response: header ``{"fingerprint", "n", "trace"?, "shm"?}``
            and the y vector as payload (empty when ``shm`` is set —
            y was written into the caller-owned segment).
``ERROR``   response: header ``{"error", "status"}``; no payload.
``PING``/``PONG``  health probes (empty header, no payload).

Everything else (register, the debug plane) is plain HTTP on the same
port.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np

from ..errors import WireError

MAGIC = b"RW"
VERSION = 1

#: 16-byte frame preamble: magic, version, kind, header len, payload len.
_PREAMBLE = struct.Struct(">2sBBIQ")
PREAMBLE_BYTES = _PREAMBLE.size

MAX_HEADER_BYTES = 16 << 20
MAX_PAYLOAD_BYTES = 4 << 30      # 4 GiB: reject anything at or above

KIND_SPMV = 1
KIND_RESULT = 2
KIND_ERROR = 3
KIND_PING = 4
KIND_PONG = 5

_KNOWN_KINDS = frozenset({
    KIND_SPMV, KIND_RESULT, KIND_ERROR, KIND_PING, KIND_PONG,
})

#: The payload element type, fixed by the protocol (not host order).
PAYLOAD_DTYPE = np.dtype("<f8")


# ---------------------------------------------------------------------
# Vector <-> payload.
# ---------------------------------------------------------------------
def vector_payload(x: np.ndarray) -> tuple[np.ndarray, memoryview]:
    """``x`` as a wire payload: ``(array, byte view)``.

    The returned array is ``x`` itself whenever ``x`` is already a
    C-contiguous little-endian float64 vector — the common case ships
    with zero copies, the view aliasing the caller's buffer. Keep the
    array referenced until the bytes are written."""
    arr = np.ascontiguousarray(x, dtype=PAYLOAD_DTYPE)
    return arr, memoryview(arr).cast("B")


def payload_vector(payload, n: int) -> np.ndarray:
    """Decode a payload back into a float64 vector of length ``n``
    (zero-copy over the payload buffer: read-only over ``bytes``,
    writable over the ``bytearray`` that :func:`recv_frame` returns)."""
    expected = n * PAYLOAD_DTYPE.itemsize
    if len(payload) != expected:
        raise WireError(
            f"payload is {len(payload)} bytes, expected {expected} "
            f"for a length-{n} float64 vector")
    return np.frombuffer(payload, dtype=PAYLOAD_DTYPE, count=n)


# ---------------------------------------------------------------------
# Encoding.
# ---------------------------------------------------------------------
def frame_parts(kind: int, header: dict | None,
                payload=b"") -> list:
    """A frame as buffer parts (preamble+header, then the payload,
    untouched — a vector payload stays a zero-copy ``memoryview``)."""
    header_bytes = json.dumps(header or {}).encode()
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise WireError(f"header of {len(header_bytes)} bytes exceeds "
                        f"the {MAX_HEADER_BYTES}-byte limit")
    nbytes = payload.nbytes if isinstance(payload, memoryview) \
        else len(payload)
    if nbytes >= MAX_PAYLOAD_BYTES:
        raise WireError(f"payload of {nbytes} bytes exceeds the "
                        f"{MAX_PAYLOAD_BYTES}-byte limit")
    preamble = _PREAMBLE.pack(MAGIC, VERSION, kind,
                              len(header_bytes), nbytes)
    parts = [preamble + header_bytes]
    if nbytes:
        parts.append(payload)
    return parts


def encode_frame(kind: int, header: dict | None, payload=b"") -> bytes:
    """A frame as one contiguous byte string (tests, tiny frames)."""
    return b"".join(bytes(p) for p in frame_parts(kind, header, payload))


def send_frame(sock: socket.socket, kind: int, header: dict | None,
               payload=b"") -> int:
    """Write one frame; returns the bytes sent. The payload part is
    written directly from its buffer (no join, no copy)."""
    total = 0
    for part in frame_parts(kind, header, payload):
        sock.sendall(part)
        total += part.nbytes if isinstance(part, memoryview) \
            else len(part)
    return total


# ---------------------------------------------------------------------
# Decoding.
# ---------------------------------------------------------------------
def _check_preamble(preamble: bytes) -> tuple[int, int, int]:
    magic, version, kind, header_len, payload_len = \
        _PREAMBLE.unpack(preamble)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version} "
                        f"(this end speaks {VERSION})")
    if kind not in _KNOWN_KINDS:
        raise WireError(f"unknown frame kind {kind}")
    if header_len > MAX_HEADER_BYTES:
        raise WireError(f"declared header of {header_len} bytes "
                        f"exceeds the {MAX_HEADER_BYTES}-byte limit")
    if payload_len >= MAX_PAYLOAD_BYTES:
        raise WireError(f"declared payload of {payload_len} bytes "
                        f"exceeds the {MAX_PAYLOAD_BYTES}-byte limit")
    return kind, header_len, payload_len


def _decode_header(header_bytes: bytes) -> dict:
    try:
        header = json.loads(header_bytes) if header_bytes else {}
    except json.JSONDecodeError as exc:
        raise WireError(f"invalid frame header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise WireError("frame header must be a JSON object")
    return header


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes into a fresh buffer (``recv_into``, no
    chunk joining) or raise on a torn stream."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise WireError(
                f"truncated frame: stream ended after {got} of "
                f"{n} expected bytes")
        got += k
    return buf


def recv_frame(sock: socket.socket) -> tuple[int, dict, bytearray]:
    """Read one complete frame: ``(kind, header, payload)``. The
    payload is a fresh buffer the caller owns (``payload_vector`` over
    it is a writable array, no copy). Buffers are sized from the
    declared (limit-checked) lengths up front, so this is the reader
    for peers this process connected to; a listening end decodes with
    :class:`FrameAssembler`, which buffers only what arrived."""
    kind, header_len, payload_len = \
        _check_preamble(_recv_exact(sock, PREAMBLE_BYTES))
    header = _decode_header(_recv_exact(sock, header_len))
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    return kind, header, payload


class FrameAssembler:
    """Incremental decoder for the async front end: feed it whatever
    the socket produced, get back every complete frame; partial tails
    stay buffered for the next feed. Declared lengths are validated as
    soon as the preamble is visible, so a malicious length field is
    rejected before any buffering.

    Each payload is assembled into a fresh ``bytes`` of its own, with
    one copy per byte: the fed chunks are held as views until the
    frame completes, then joined. A payload never aliases another
    frame's, the caller's input or this assembler's state, so a handler
    may read it while the next frames are fed. Buffering grows only
    with the bytes actually received, never with a declared length."""

    def __init__(self):
        self._head = bytearray()     # preamble + header of this frame
        self._lengths: tuple[int, int, int] | None = None
        self._pieces: list[memoryview] = []   # payload received so far
        self._have = 0

    @property
    def buffered(self) -> int:
        return len(self._head) + self._have

    def _fill_head(self, view: memoryview, size: int) -> memoryview:
        """Move bytes from ``view`` into the head until it holds
        ``size``; returns what is left of ``view``."""
        take = size - len(self._head)
        if take > 0:
            self._head += view[:take]
            view = view[take:]
        return view

    def feed(self, data: bytes) -> list[tuple[int, dict, bytes]]:
        if not isinstance(data, bytes):
            data = bytes(data)   # held as views below: freeze it
        view = memoryview(data)
        frames = []
        while True:
            if self._lengths is None:
                view = self._fill_head(view, PREAMBLE_BYTES)
                if len(self._head) < PREAMBLE_BYTES:
                    return frames
                self._lengths = _check_preamble(self._head)
            kind, header_len, payload_len = self._lengths
            view = self._fill_head(view, PREAMBLE_BYTES + header_len)
            if len(self._head) < PREAMBLE_BYTES + header_len:
                return frames
            take = min(payload_len - self._have, len(view))
            if take:
                self._pieces.append(view[:take])
                self._have += take
                view = view[take:]
            if self._have < payload_len:
                return frames
            header = _decode_header(self._head[PREAMBLE_BYTES:])
            payload = b"".join(self._pieces)
            self._head = bytearray()
            self._lengths, self._pieces, self._have = None, [], 0
            frames.append((kind, header, payload))


def error_frame(message: str, status: int = 400) -> list:
    """An ``ERROR`` frame (as parts) carrying the shared status map."""
    return frame_parts(KIND_ERROR, {"error": message, "status": status})


__all__ = [
    "FrameAssembler",
    "KIND_ERROR",
    "KIND_PING",
    "KIND_PONG",
    "KIND_RESULT",
    "KIND_SPMV",
    "MAGIC",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "PAYLOAD_DTYPE",
    "PREAMBLE_BYTES",
    "VERSION",
    "encode_frame",
    "error_frame",
    "frame_parts",
    "payload_vector",
    "recv_frame",
    "send_frame",
    "vector_payload",
]
