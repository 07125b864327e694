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

    def test_payload_length_mismatch_raises(self):
        with pytest.raises(WireError, match="payload is"):
            wire.payload_vector(b"\0" * 24, 4)
