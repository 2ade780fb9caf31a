"""Property suite for the sub-word bit-packed wire encoding.

The tentpole's contract, pinned as properties: for ANY unsigned array
whose elements fit ``b <= 32`` bits — width inferred from the data or
declared up front — pack -> frame -> (arbitrarily torn) byte stream ->
decode returns the exact values, dtype, and shape.  Boundary values
``2**b - 1`` survive at every width, empty arrays and non-contiguous
views encode, a declared bound too small for the data fails loudly, and
the element bytes on the wire are exactly ``ceil(n*b/8)``.
"""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WireError
from repro.wire import (
    HEADER_SIZE,
    FrameAssembler,
    PayloadWriter,
    ShardRoundRequest,
    decode_frame,
    decode_message,
    encode_message,
    frame_segments,
    pack_bits,
    packed_nbytes,
    unpack_bits,
)
from repro.wire import format as wire_format

# The dtypes put_packed_array accepts, keyed by their element width.
_PACKABLE = {8: np.dtype("|u1"), 32: np.dtype("<u4"), 64: np.dtype("<u8")}


def _reader_for(writer: PayloadWriter):
    """Round one payload through a real frame; return its reader."""
    _, _, reader = decode_frame(b"".join(frame_segments(1, 0, writer)))
    return reader


def _decode_packed(writer: PayloadWriter) -> np.ndarray:
    """Decode the payload's one array, checking it rode the wire packed."""
    reader = _reader_for(writer)
    assert reader.peek_u8() & wire_format._PACKED_FLAG
    return reader.get_array()


@st.composite
def bounded_arrays(draw):
    """(array, bits) with every element < 2**bits, any packable dtype."""
    bits = draw(st.integers(1, 32))
    dtype = draw(
        st.sampled_from(
            [d for width, d in _PACKABLE.items() if bits <= width]
        )
    )
    values = draw(
        st.lists(st.integers(0, 2**bits - 1), min_size=0, max_size=40)
    )
    array = np.array(values, dtype=dtype)
    if draw(st.booleans()) and array.size and array.size % 2 == 0:
        array = array.reshape(2, -1)
    return array, bits


class TestPackedRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(data=bounded_arrays(), declare=st.booleans())
    def test_any_width_any_values_round_trip_exactly(self, data, declare):
        array, bits = data
        w = PayloadWriter()
        w.put_packed_array(array, bits=bits if declare else None)
        out = _decode_packed(w)
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        np.testing.assert_array_equal(out, array)

    @settings(max_examples=120, deadline=None)
    @given(data=bounded_arrays())
    def test_element_bytes_are_exactly_ceil_n_bits_over_8(self, data):
        array, bits = data
        w = PayloadWriter()
        w.put_packed_array(array, bits=bits)
        # tag byte + rank byte + one u64 per dim + the width byte, then
        # the packed element bytes and nothing else.
        header = 2 + 8 * array.ndim + 1
        assert w.nbytes == header + packed_nbytes(array.size, bits)

    def test_boundary_value_at_every_width(self):
        """0 and 2**b - 1 survive for every b in 1..32, and the inferred
        width is exactly b (the wire size proves it)."""
        for bits in range(1, 33):
            array = np.array([0, 2**bits - 1], dtype=np.uint64)
            w = PayloadWriter()
            w.put_packed_array(array)  # width inferred from the max
            assert w.nbytes == (2 + 8 + 1) + packed_nbytes(2, bits)
            out = _decode_packed(w)
            np.testing.assert_array_equal(out, array)

    def test_empty_arrays_round_trip(self):
        for shape in ((0,), (0, 0), (3, 0)):
            for bits in (None, 1, 31):
                array = np.zeros(shape, dtype=np.uint64)
                w = PayloadWriter()
                w.put_packed_array(array, bits=bits)
                out = _decode_packed(w)
                assert out.shape == shape
                assert out.dtype == array.dtype
                assert out.size == 0

    def test_non_contiguous_views_encode_like_their_copies(self):
        base = np.arange(64, dtype=np.uint64) % 1000
        for view in (base[::2], base[::-1], base.reshape(8, 8).T,
                     base.reshape(8, 8)[:, 1:3]):
            assert not view.flags["C_CONTIGUOUS"]
            w = PayloadWriter()
            w.put_packed_array(view, bits=10)
            out = _decode_packed(w)
            np.testing.assert_array_equal(out, np.ascontiguousarray(view))


class TestDeclaredWidth:
    def test_data_over_the_declared_bound_rejected(self):
        w = PayloadWriter()
        with pytest.raises(WireError, match="over the declared"):
            w.put_packed_array(np.array([15], dtype=np.uint64), bits=3)

    def test_width_outside_dtype_rejected(self):
        for bits in (0, -1, 65):
            w = PayloadWriter()
            with pytest.raises(WireError, match="outside"):
                w.put_packed_array(np.array([1], dtype=np.uint64), bits=bits)
        w = PayloadWriter()
        with pytest.raises(WireError, match="outside"):
            w.put_packed_array(np.array([1], dtype=np.uint8), bits=9)

    def test_unpackable_dtypes_rejected(self):
        for dtype in (np.int64, np.float64):
            w = PayloadWriter()
            with pytest.raises(WireError, match="cannot be bit-packed"):
                w.put_packed_array(np.zeros(4, dtype=dtype))

    def test_declared_width_pins_the_layout_independent_of_data(self):
        """Two arrays with different maxima, same declared width: frames
        are the same size (the property field elements rely on)."""
        sizes = []
        for top in (1, 2**30):
            w = PayloadWriter()
            w.put_packed_array(np.array([0, top], dtype=np.uint64), bits=31)
            sizes.append(w.nbytes)
        assert sizes[0] == sizes[1]


class TestTransparentDecode:
    def test_get_array_reads_packed_arrays_too(self):
        array = np.array([1, 2, 3], dtype=np.uint64)
        w = PayloadWriter()
        w.put_packed_array(array, bits=7)
        np.testing.assert_array_equal(_reader_for(w).get_array(), array)

    def test_raw_arrays_decode_without_the_packed_flag(self):
        array = np.array([1, 2, 3], dtype=np.uint64)
        w = PayloadWriter()
        w.put_array(array)
        reader = _reader_for(w)
        assert not reader.peek_u8() & wire_format._PACKED_FLAG
        out = reader.get_array()
        assert out.dtype == array.dtype
        np.testing.assert_array_equal(out, array)

    def test_decoded_packed_array_is_read_only(self):
        w = PayloadWriter()
        w.put_packed_array(np.array([5], dtype=np.uint64))
        out = _decode_packed(w)
        with pytest.raises(ValueError):
            out[0] = 1

    def test_size_reduction_for_31_bit_field_elements(self):
        """The bandwidth diet itself: 31-bit field elements in uint64
        words shrink by >= 1.8x on the wire."""
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**31 - 1, size=4096, dtype=np.uint64)
        raw, packed = PayloadWriter(), PayloadWriter()
        raw.put_array(values)
        packed.put_packed_array(values, bits=31)
        assert raw.nbytes / packed.nbytes >= 1.8


def _packed_round_frames(seed: int, count: int):
    """Frames of packed ShardRoundRequests with bounded field vectors."""
    rng = np.random.default_rng(seed)
    frames, requests = [], []
    for i in range(count):
        request = ShardRoundRequest.from_updates(
            shard_id=i,
            round_id=i,
            updates={
                u: rng.integers(0, 2**31 - 1, size=17, dtype=np.uint64)
                for u in range(int(rng.integers(1, 5)))
            },
            dropouts=set(),
            packed=True,
        )
        requests.append(request)
        frames.append(encode_message(request, request_id=i))
    return requests, frames


class TestTornPackedFrames:
    """The stream property (test_stream.py) replayed on packed payloads:
    bit-packed element bytes reassemble across ANY chunk boundary."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
        cuts=st.lists(st.integers(1, 4096), max_size=16),
    )
    def test_any_chunking_reassembles_packed_rounds(self, seed, count, cuts):
        requests, frames = _packed_round_frames(seed, count)
        blob = b"".join(frames)
        bounds = [0, *sorted({c for c in cuts if c < len(blob)}), len(blob)]
        assembler = FrameAssembler()
        out = []
        for a, b in zip(bounds, bounds[1:]):
            out.extend(assembler.feed(blob[a:b]))
        assert out == frames
        for request, frame in zip(requests, out):
            _, decoded = decode_message(frame)
            assert decoded.packed
            np.testing.assert_array_equal(decoded.updates, request.updates)

    def test_every_single_byte_boundary(self):
        """Exhaustive: one packed round frame fed one byte at a time."""
        requests, frames = _packed_round_frames(seed=3, count=1)
        blob = frames[0]
        assert len(blob) > HEADER_SIZE
        assembler = FrameAssembler()
        out = []
        for i in range(len(blob)):
            out.extend(assembler.feed(blob[i : i + 1]))
        assert out == frames
        _, decoded = decode_message(out[0])
        np.testing.assert_array_equal(decoded.updates, requests[0].updates)

    def test_mixed_raw_and_packed_frames_in_one_stream(self):
        rng = np.random.default_rng(11)
        updates = {
            0: rng.integers(0, 2**31 - 1, size=9, dtype=np.uint64)
        }
        raw = ShardRoundRequest.from_updates(0, 0, dict(updates), set())
        packed = ShardRoundRequest.from_updates(
            1, 1, dict(updates), set(), packed=True
        )
        blob = encode_message(raw, 0) + encode_message(packed, 1)
        assembler = FrameAssembler()
        frames = assembler.feed(blob)
        assert len(frames) == 2
        decoded = [decode_message(f)[1] for f in frames]
        assert [m.packed for m in decoded] == [False, True]
        for m in decoded:
            np.testing.assert_array_equal(m.updates[0], updates[0])
        # the packed frame is the smaller one, same payload
        assert len(frames[1]) < len(frames[0])


# ----------------------------------------------------------------------
# word-level kernel ≡ the bit-explosion kernel it replaced
# ----------------------------------------------------------------------
def reference_pack_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """The codec's definition, one byte per *bit*: the oracle."""
    le = np.ascontiguousarray(values, dtype="<u8")
    octets = le.view(np.uint8).reshape(le.size, 8)
    lanes = np.unpackbits(octets, axis=1, bitorder="little")[:, :bits]
    return np.packbits(lanes.ravel(), bitorder="little")


def reference_unpack_bits(raw, bits: int, count: int) -> np.ndarray:
    lanes = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8),
        count=count * bits,
        bitorder="little",
    ).reshape(count, bits)
    octets = np.zeros((count, 64), dtype=np.uint8)
    octets[:, :bits] = lanes
    packed = np.packbits(octets, axis=1, bitorder="little")
    return packed.reshape(count, 8).view("<u8").reshape(count).astype(
        np.uint64, copy=False
    )


_BLOCK = wire_format._BLOCK_GROUPS * wire_format._GROUP
# Empty, inside one group, around a group edge, around a block edge,
# and several blocks with a ragged tail.
_COUNTS = (0, 1, 7, 8, 9, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 13)
_BUFFERS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda raw: memoryview(raw).toreadonly(),
}


def _draw_values(bits: int, count: int, fill: str, seed: int) -> np.ndarray:
    top = (1 << bits) - 1
    if fill == "zeros":
        return np.zeros(count, dtype=np.uint64)
    if fill == "ones":
        return np.full(count, top, dtype=np.uint64)
    return np.random.default_rng(seed).integers(
        0, top, size=count, dtype=np.uint64, endpoint=True
    )


class TestKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        bits=st.integers(1, 64),
        count=st.sampled_from(_COUNTS),
        fill=st.sampled_from(["random", "zeros", "ones"]),
        width=st.sampled_from(sorted(_PACKABLE)),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pack(self, bits, count, fill, width, strided, seed):
        bits = min(bits, width)
        values = _draw_values(bits, count, fill, seed).astype(
            _PACKABLE[width]
        )
        if strided:
            spaced = np.zeros(2 * count, dtype=values.dtype)
            spaced[::2] = values
            values = spaced[::2]
            assert count < 2 or not values.flags["C_CONTIGUOUS"]
        expected = reference_pack_bits(values, bits).tobytes()
        assert len(expected) == packed_nbytes(count, bits)
        assert pack_bits(values, bits) == expected
        w = PayloadWriter()
        w.put_packed_array(values, bits=bits)
        header = 2 + 8 + 1
        assert b"".join(w.segments)[header:] == expected

    @settings(max_examples=150, deadline=None)
    @given(
        bits=st.integers(1, 64),
        count=st.sampled_from(_COUNTS),
        buffer=st.sampled_from(sorted(_BUFFERS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unpack_of_any_byte_stream(self, bits, count, buffer, seed):
        """Arbitrary bytes, so the pad bits after the last element are
        arbitrary too; both kernels must drop them."""
        raw = np.random.default_rng(seed).bytes(packed_nbytes(count, bits))
        out = unpack_bits(_BUFFERS[buffer](raw), bits, count)
        assert out.dtype == np.uint64 and out.shape == (count,)
        if count:
            expected = reference_unpack_bits(raw, bits, count)
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_round_trip_at_every_width(self, bits):
        values = _draw_values(bits, 8 * 5 + 3, "random", bits)
        values[:2] = 0, (1 << bits) - 1
        packed = pack_bits(values, bits)
        assert packed == reference_pack_bits(values, bits).tobytes()
        np.testing.assert_array_equal(
            unpack_bits(packed, bits, values.size), values
        )

    def test_non_zero_pad_bits_are_ignored(self):
        values = np.array([5, 0, 7], dtype=np.uint64)  # 9 bits of 16
        packed = bytearray(pack_bits(values, 3))
        assert packed[-1] == 0b1
        packed[-1] |= 0b1111_1110
        np.testing.assert_array_equal(unpack_bits(packed, 3, 3), values)

    def test_result_never_aliases_the_frame(self):
        values = _draw_values(31, 100, "random", 0)
        source = bytearray(pack_bits(values, 31))
        out = unpack_bits(source, 31, values.size)
        assert out.flags["OWNDATA"] and out.flags["WRITEABLE"]
        w = PayloadWriter()
        w.put_packed_array(values, bits=31)
        frame = bytearray(b"".join(frame_segments(1, 0, w)))
        decoded = decode_frame(frame)[2].get_array()
        for i in range(len(source)):
            source[i] ^= 0xFF
        for i in range(HEADER_SIZE, len(frame)):
            frame[i] ^= 0xFF
        np.testing.assert_array_equal(out, values)
        np.testing.assert_array_equal(decoded, values)


class TestPackedScratchBound:
    """No stopwatch: the word-level kernel's scratch is bounded by its
    block, so a call peaks near input + output.  The bit-explosion
    kernel allocated one byte per bit — more than 64 B per element."""

    COUNT, BITS = 1 << 20, 31

    def _peak(self, call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_bounded_by_input_plus_output(self):
        values = _draw_values(self.BITS, self.COUNT, "random", 0)
        packed = pack_bits(values, self.BITS)
        budget = 3 * (values.nbytes + len(packed))
        assert self._peak(lambda: pack_bits(values, self.BITS)) <= budget
        assert self._peak(
            lambda: unpack_bits(packed, self.BITS, self.COUNT)
        ) <= budget

    def test_kernel_source_has_no_per_bit_arrays(self):
        # "packbits" also matches "unpackbits"
        assert "packbits" not in inspect.getsource(wire_format)
