"""Wire codec: roundtrips, limits, torn-frame tolerance.

A stream cut mid-frame must be a loud :class:`WireError`, never a
silently reinterpreted short frame.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.cluster import wire
from repro.errors import ClusterError, WireError


def roundtrip(kind, header, payload=b""):
    asm = wire.FrameAssembler()
    frames = asm.feed(wire.encode_frame(kind, header, payload))
    assert len(frames) == 1
    assert asm.buffered == 0
    return frames[0]


class TestRoundtrip:
    def test_header_and_payload_survive(self, rng):
        x = rng.standard_normal(257)
        _, view = wire.vector_payload(x)
        kind, header, payload = roundtrip(
            wire.KIND_SPMV, {"fingerprint": "abc", "n": 257}, view)
        assert kind == wire.KIND_SPMV
        assert header == {"fingerprint": "abc", "n": 257}
        np.testing.assert_array_equal(
            wire.payload_vector(payload, 257), x)

    def test_empty_vector(self):
        arr, view = wire.vector_payload(np.zeros(0))
        kind, header, payload = roundtrip(
            wire.KIND_SPMV, {"n": 0}, view)
        assert payload == b""
        assert wire.payload_vector(payload, 0).shape == (0,)

    def test_empty_header(self):
        kind, header, payload = roundtrip(wire.KIND_PING, None)
        assert (kind, header, payload) == (wire.KIND_PING, {}, b"")

    def test_non_contiguous_input(self, rng):
        base = rng.standard_normal(64)
        strided = base[::2]
        assert not strided.flags["C_CONTIGUOUS"]
        arr, view = wire.vector_payload(strided)
        _, _, payload = roundtrip(wire.KIND_SPMV, {"n": 32}, view)
        np.testing.assert_array_equal(
            wire.payload_vector(payload, 32), strided)

    def test_int_input_becomes_float64(self):
        arr, view = wire.vector_payload(np.arange(5))
        _, _, payload = roundtrip(wire.KIND_SPMV, {"n": 5}, view)
        decoded = wire.payload_vector(payload, 5)
        assert decoded.dtype == np.dtype("<f8")
        np.testing.assert_array_equal(decoded, np.arange(5.0))

    def test_contiguous_float64_is_zero_copy(self):
        x = np.ones(16)
        arr, view = wire.vector_payload(x)
        assert arr is x
        assert view.nbytes == x.nbytes

    def test_multi_frame_stream(self):
        stream = (wire.encode_frame(wire.KIND_PING, {})
                  + wire.encode_frame(wire.KIND_PONG, {}))
        frames = wire.FrameAssembler().feed(stream)
        assert [f[0] for f in frames] == [wire.KIND_PING,
                                          wire.KIND_PONG]


class TestLimits:
    def _preamble(self, *, version=wire.VERSION, kind=wire.KIND_SPMV,
                  header_len=0, payload_len=0, magic=wire.MAGIC):
        return struct.pack(">2sBBIQ", magic, version, kind,
                           header_len, payload_len)

    def test_payload_length_over_4gib_rejected(self):
        # The length *field* alone must trip the guard: nothing close
        # to 4 GiB is ever allocated or buffered.
        torn = self._preamble(payload_len=(4 << 30) + 8)
        with pytest.raises(WireError, match="payload"):
            wire.FrameAssembler().feed(torn)

    def test_header_length_limit_rejected(self):
        torn = self._preamble(header_len=wire.MAX_HEADER_BYTES + 1)
        with pytest.raises(WireError, match="header"):
            wire.FrameAssembler().feed(torn)

    def test_version_mismatch_rejected(self):
        frame = bytearray(wire.encode_frame(wire.KIND_PING, {}))
        frame[2] = wire.VERSION + 1
        with pytest.raises(WireError, match="version"):
            wire.FrameAssembler().feed(bytes(frame))

    def test_bad_magic_rejected(self):
        with pytest.raises(WireError, match="magic"):
            wire.FrameAssembler().feed(
                self._preamble(magic=b"XX") + b"junk")

    def test_unknown_kind_rejected(self):
        # 6 was the JSON-op kind no client ever sent; it is unknown now
        for kind in (6, 99):
            with pytest.raises(WireError, match="kind"):
                wire.FrameAssembler().feed(self._preamble(kind=kind))

    def test_oversized_encode_rejected(self):
        class FakeHuge(bytes):
            def __len__(self):
                return wire.MAX_PAYLOAD_BYTES

        with pytest.raises(WireError, match="payload"):
            wire.frame_parts(wire.KIND_SPMV, {}, FakeHuge())

    def test_wire_error_is_cluster_error(self):
        assert issubclass(WireError, ClusterError)


class TestTornFrames:
    def test_partial_feed_buffers_until_complete(self, rng):
        x = rng.standard_normal(100)
        _, view = wire.vector_payload(x)
        frame = wire.encode_frame(wire.KIND_SPMV, {"n": 100}, view)
        asm = wire.FrameAssembler()
        frames = []
        step = 7       # never aligned with preamble/header boundaries
        for i in range(0, len(frame), step):
            chunk = frame[i:i + step]
            got = asm.feed(chunk)
            if i + step < len(frame):
                assert got == []
            frames.extend(got)
        assert len(frames) == 1
        assert asm.buffered == 0
        np.testing.assert_array_equal(
            wire.payload_vector(frames[0][2], 100), x)

    def test_truncated_socket_stream_raises(self):
        # A socket that EOFs mid-frame must raise, not return a
        # short frame (recv_frame path).
        import socket as socketlib
        import threading

        frame = wire.encode_frame(wire.KIND_SPMV, {"n": 100},
                                  bytes(800))
        srv = socketlib.create_server(("127.0.0.1", 0))
        port = srv.getsockname()[1]

        def tear():
            conn, _ = srv.accept()
            conn.sendall(frame[:len(frame) // 2])
            conn.close()

        t = threading.Thread(target=tear, daemon=True)
        t.start()
        with socketlib.create_connection(("127.0.0.1", port),
                                         timeout=5) as sock:
            with pytest.raises(WireError, match="truncated"):
                wire.recv_frame(sock)
        t.join(timeout=5)
        srv.close()

    def test_payload_torn_inside_recv_into_raises(self):
        # The payload arrives in several sends, so recv_frame's
        # recv_into loop has filled part of its buffer when the peer
        # goes away: still a loud tear, never a short vector.
        import socket as socketlib
        import threading
        import time

        frame = wire.encode_frame(wire.KIND_SPMV, {"n": 4096},
                                  bytes(8 * 4096))
        head = len(frame) - 8 * 4096
        a, b = socketlib.socketpair()

        def tear():
            a.sendall(frame[:head + 1000])
            time.sleep(0.05)
            a.sendall(frame[head + 1000:head + 9000])
            time.sleep(0.05)
            a.close()

        t = threading.Thread(target=tear, daemon=True)
        t.start()
        b.settimeout(5)
        try:
            with pytest.raises(WireError,
                               match="truncated.*9000 of 32768"):
                wire.recv_frame(b)
        finally:
            t.join(timeout=5)
            b.close()
        assert not t.is_alive()

    def test_payload_length_mismatch_raises(self):
        with pytest.raises(WireError, match="payload is"):
            wire.payload_vector(b"\0" * 24, 4)


class TestPayloadOwnership:
    """Each decoded payload is a fresh buffer of its own: a handler
    reads it while the assembler takes the next bytes."""

    def _frames(self, rng, n=3, size=50):
        xs = [rng.standard_normal(size) for _ in range(n)]
        stream = b"".join(
            wire.encode_frame(wire.KIND_SPMV, {"n": size, "i": i},
                              wire.vector_payload(x)[1])
            for i, x in enumerate(xs))
        return xs, bytearray(stream)

    @staticmethod
    def _decode(frames):
        return [wire.payload_vector(payload, header["n"])
                for _, header, payload in frames]

    def _assert_private(self, vectors, xs, stream):
        for i, v in enumerate(vectors):
            for w in vectors[i + 1:]:
                assert not np.shares_memory(v, w)
        stream[:] = bytes(len(stream))     # scribble over the input
        for v, x in zip(vectors, xs):
            np.testing.assert_array_equal(v, x)

    def test_two_frames_in_one_chunk(self, rng):
        xs, stream = self._frames(rng, n=2)
        asm = wire.FrameAssembler()
        vectors = self._decode(asm.feed(stream))
        assert len(vectors) == 2 and asm.buffered == 0
        self._assert_private(vectors, xs, stream)

    def test_byte_by_byte_across_every_boundary(self, rng):
        xs, stream = self._frames(rng, n=2, size=4)
        asm = wire.FrameAssembler()
        frames = []
        chunk = bytearray(1)       # one reused input buffer
        for byte in stream:
            chunk[0] = byte
            frames.extend(asm.feed(chunk))
        assert [h["i"] for _, h, _ in frames] == [0, 1]
        self._assert_private(self._decode(frames), xs, stream)

    def test_bytes_fed_after_a_frame_completes(self, rng):
        xs, stream = self._frames(rng, n=3)
        cut = len(stream) // 2     # inside the second frame
        asm = wire.FrameAssembler()
        first = self._decode(asm.feed(stream[:cut]))
        assert len(first) == 1 and asm.buffered > 0
        rest = self._decode(asm.feed(stream[cut:]))
        assert len(rest) == 2 and asm.buffered == 0
        self._assert_private(first + rest, xs, stream)
