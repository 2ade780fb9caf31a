"""Stream reassembly: every byte-boundary split, torn headers, corruption.

The property pinned here is the one a socket transport lives on: for ANY
valid frame sequence and ANY partition of its bytes into chunks —
including one-byte feeds and splits inside the 16-byte header —
:class:`FrameAssembler` returns exactly the original frames, in order,
and a corrupt magic or version fails with :class:`WireError` as soon as
the offending byte is visible.
"""

import socket
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WireError
from repro.wire import (
    HEADER_SIZE,
    WIRE_VERSION,
    FrameAssembler,
    Ping,
    RefillRequest,
    RekeyRequest,
    SetupAck,
    ShardRoundRequest,
    decode_message,
    encode_message,
    encode_segments,
    recv_frames,
    send_segments,
)


def _sample_frames(seed: int, count: int):
    """A deterministic mixed-message frame sequence."""
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(count):
        kind = int(rng.integers(0, 4))
        message = (
            Ping(nonce=int(rng.integers(0, 2**63))),
            RefillRequest(int(rng.integers(0, 32)), None),
            RekeyRequest(int(rng.integers(0, 32)), int(rng.integers(2, 9))),
            SetupAck(list(range(int(rng.integers(0, 5))))),
        )[kind]
        frames.append(encode_message(message, request_id=i))
    return frames


@st.composite
def frame_streams(draw):
    frames = _sample_frames(
        seed=draw(st.integers(0, 2**32 - 1)),
        count=draw(st.integers(1, 6)),
    )
    blob = b"".join(frames)
    # An arbitrary partition of the blob: sorted unique cut points.
    cuts = draw(
        st.lists(st.integers(1, max(1, len(blob) - 1)), max_size=24).map(
            lambda xs: sorted(set(xs))
        )
    )
    bounds = [0, *[c for c in cuts if c < len(blob)], len(blob)]
    chunks = [blob[a:b] for a, b in zip(bounds, bounds[1:])]
    return frames, chunks


class TestReassemblyProperty:
    @settings(max_examples=80, deadline=None)
    @given(stream=frame_streams())
    def test_any_chunking_reassembles_exactly(self, stream):
        frames, chunks = stream
        assembler = FrameAssembler()
        out = []
        for chunk in chunks:
            out.extend(assembler.feed(chunk))
        assert out == frames
        last = encode_message(Ping(nonce=1), 99)
        assert assembler.feed(last) == [last]  # nothing was left buffered

    def test_every_single_byte_boundary(self):
        """Exhaustive, not sampled: feed the stream one byte at a time."""
        frames = _sample_frames(seed=7, count=4)
        blob = b"".join(frames)
        assembler = FrameAssembler()
        out = []
        for i in range(len(blob)):
            completed = assembler.feed(blob[i : i + 1])
            # A frame can only complete on its final byte.
            assert len(completed) <= 1
            out.extend(completed)
        assert out == frames

    def test_torn_mid_header_then_completed(self):
        frame = encode_message(Ping(nonce=5), 42)
        assert len(frame) > HEADER_SIZE
        assembler = FrameAssembler()
        assert assembler.feed(frame[: HEADER_SIZE // 2]) == []
        assert assembler.feed(frame[HEADER_SIZE // 2 :]) == [frame]

    def test_a_straddling_frame_is_copied_once(self):
        """A round frame split across two reads leaves the assembler as
        one new ``bytes``: completing it may allocate the staging buffer
        and the frame, not a third frame-sized temporary."""
        frame = encode_message(
            ShardRoundRequest.from_updates(
                0, 0, {0: np.zeros(1 << 17, dtype=np.uint64)}, set()
            ),
            request_id=0,
        )
        head, tail = frame[: len(frame) // 2], frame[len(frame) // 2 :]
        assembler = FrameAssembler()
        assert assembler.feed(head) == []
        tracemalloc.start()
        try:
            out = assembler.feed(tail)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == [frame]
        # staging buffer (grown to the whole frame, with bytearray's
        # over-allocation) + the frame; the double copy peaked near 3x.
        assert peak < 2.5 * len(frame)


def _round_frames(seed: int, count: int):
    """Frames of ShardRoundRequests whose rows ride as ``<u4`` words."""
    rng = np.random.default_rng(seed)
    requests, frames = [], []
    for i in range(count):
        request = ShardRoundRequest.from_updates(
            shard_id=i,
            round_id=i,
            updates={
                u: rng.integers(0, 2**32 - 1, size=17, dtype=np.uint64)
                for u in range(int(rng.integers(1, 5)))
            },
            dropouts=set(),
        )
        requests.append(request)
        frames.append(encode_message(request, request_id=i))
    return requests, frames


class TestTornRoundFrames:
    """The reassembly property replayed on round frames: field words
    reassemble across ANY chunk boundary and decode to the sent rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
        cuts=st.lists(st.integers(1, 4096), max_size=16),
    )
    def test_any_chunking_reassembles_round_requests(self, seed, count, cuts):
        requests, frames = _round_frames(seed, count)
        blob = b"".join(frames)
        bounds = [0, *sorted({c for c in cuts if c < len(blob)}), len(blob)]
        assembler = FrameAssembler()
        out = []
        for a, b in zip(bounds, bounds[1:]):
            out.extend(assembler.feed(blob[a:b]))
        assert out == frames
        for request, frame in zip(requests, out):
            _, decoded = decode_message(frame)
            np.testing.assert_array_equal(decoded.updates, request.updates)

    def test_every_single_byte_boundary_of_a_round_frame(self):
        """Exhaustive: one round frame fed one byte at a time."""
        requests, frames = _round_frames(seed=3, count=1)
        blob = frames[0]
        assert len(blob) > HEADER_SIZE
        assembler = FrameAssembler()
        out = []
        for i in range(len(blob)):
            out.extend(assembler.feed(blob[i : i + 1]))
        assert out == frames
        _, decoded = decode_message(out[0])
        np.testing.assert_array_equal(decoded.updates, requests[0].updates)


class TestCorruptionDetection:
    def test_corrupt_magic_fails_on_first_byte(self):
        assembler = FrameAssembler()
        with pytest.raises(WireError, match="magic"):
            assembler.feed(b"X")  # not even a full magic yet

    def test_corrupt_magic_second_byte(self):
        assembler = FrameAssembler()
        with pytest.raises(WireError, match="magic"):
            assembler.feed(b"LX")

    def test_corrupt_version_fails_before_full_header(self):
        assembler = FrameAssembler()
        with pytest.raises(WireError, match="version"):
            assembler.feed(b"LW" + bytes([WIRE_VERSION + 1]))

    def test_corruption_in_second_frame_detected(self):
        good = encode_message(Ping(nonce=1), 1)
        assembler = FrameAssembler()
        with pytest.raises(WireError, match="magic"):
            assembler.feed(good + b"ZZ")

    def test_assembler_refuses_input_after_failure(self):
        assembler = FrameAssembler()
        with pytest.raises(WireError):
            assembler.feed(b"XX")
        with pytest.raises(WireError, match="already failed"):
            assembler.feed(encode_message(Ping(), 1))

    def test_oversized_declared_length_rejected(self):
        frame = bytearray(encode_message(Ping(nonce=2), 3))
        frame[HEADER_SIZE - 4 : HEADER_SIZE] = (2**31).to_bytes(4, "little")
        assembler = FrameAssembler(max_payload=2**20)
        with pytest.raises(WireError, match="over the"):
            assembler.feed(bytes(frame))

    @settings(max_examples=30, deadline=None)
    @given(
        flip_at=st.integers(0, 2),
        tail=st.binary(max_size=8),
    )
    def test_corrupt_prefix_never_yields_a_frame(self, flip_at, tail):
        frame = bytearray(encode_message(Ping(nonce=9), 4))
        frame[flip_at] ^= 0xFF  # corrupt magic byte 0/1 or the version
        assembler = FrameAssembler()
        with pytest.raises(WireError):
            assembler.feed(bytes(frame) + tail)


class TestSocketHelpers:
    def test_vectored_send_and_chunked_recv_round_trip(self):
        """send_segments -> kernel -> recv_frames over a real socketpair,
        with a payload large enough to force partial reads."""
        rng = np.random.default_rng(0)
        from repro.wire import ShardRoundRequest

        request = ShardRoundRequest.from_updates(
            shard_id=1,
            round_id=2,
            updates={
                i: rng.integers(0, 2**31, size=4096, dtype=np.uint64)
                for i in range(8)
            },
            dropouts={3},
        )
        frame = encode_message(request, 17)
        left, right = socket.socketpair()
        sent = []
        # The ~256KB frame overruns the kernel socket buffer, so the
        # vectored send must run on its own thread while this one drains
        # — which is exactly what forces partial sendmsg completions.
        sender = threading.Thread(
            target=lambda: sent.append(
                send_segments(left, encode_segments(request, 17))
            )
        )
        try:
            sender.start()
            assembler = FrameAssembler()
            frames = []
            while not frames:
                frames = recv_frames(right, assembler)
            sender.join(timeout=30.0)
            assert sent == [len(frame)]
            assert frames == [frame]
        finally:
            sender.join(timeout=1.0)
            left.close()
            right.close()

    def test_recv_frames_raises_eof_on_closed_peer(self):
        left, right = socket.socketpair()
        left.close()
        with pytest.raises(EOFError):
            recv_frames(right, FrameAssembler())
        right.close()
