"""Property suite for the bit-packing kernel.

:func:`pack_bits` / :func:`unpack_bits` back the HTTP control plane's
``packed`` vector encoding; frames never carry packed arrays.  For ANY
unsigned values that fit ``b`` bits, packing and unpacking returns the
exact values; boundary values ``2**b - 1`` survive at every width, a
declared width too small for the data fails loudly, and the packed
stream is exactly ``ceil(n*b/8)`` bytes.
"""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WireError
from repro.wire import pack_bits, packed_nbytes, unpack_bits
from repro.wire import format as wire_format

# Source dtypes the kernel tests draw from, keyed by element width.
_UNSIGNED = {8: np.dtype("|u1"), 32: np.dtype("<u4"), 64: np.dtype("<u8")}


@st.composite
def bounded_arrays(draw):
    """(array, bits) with every element < 2**bits, any unsigned dtype."""
    bits = draw(st.integers(1, 64))
    dtype = draw(
        st.sampled_from([d for width, d in _UNSIGNED.items() if bits <= width])
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
    @given(data=bounded_arrays())
    def test_any_width_any_values_round_trip_exactly(self, data):
        array, bits = data
        out = unpack_bits(pack_bits(array, bits), bits, array.size)
        assert out.dtype == np.uint64
        np.testing.assert_array_equal(out.reshape(array.shape), array)

    @settings(max_examples=120, deadline=None)
    @given(data=bounded_arrays())
    def test_element_bytes_are_exactly_ceil_n_bits_over_8(self, data):
        array, bits = data
        assert len(pack_bits(array, bits)) == -(-array.size * bits // 8)

    def test_empty_arrays_round_trip(self):
        for shape in ((0,), (0, 0), (3, 0)):
            for bits in (1, 31, 64):
                packed = pack_bits(np.zeros(shape, dtype=np.uint64), bits)
                assert packed == b""
                out = unpack_bits(packed, bits, 0)
                assert out.dtype == np.uint64 and out.size == 0

    def test_non_contiguous_views_encode_like_their_copies(self):
        base = np.arange(64, dtype=np.uint64) % 1000
        for view in (base[::2], base[::-1], base.reshape(8, 8).T,
                     base.reshape(8, 8)[:, 1:3]):
            assert not view.flags["C_CONTIGUOUS"]
            copy = np.ascontiguousarray(view)
            assert pack_bits(view, 10) == pack_bits(copy, 10)
            np.testing.assert_array_equal(
                unpack_bits(pack_bits(view, 10), 10, view.size),
                copy.reshape(-1),
            )


class TestDeclaredWidth:
    def test_data_over_the_declared_width_rejected(self):
        with pytest.raises(WireError, match="declared width is 3"):
            pack_bits(np.array([15], dtype=np.uint64), 3)

    def test_width_outside_1_to_64_rejected(self):
        for bits in (0, -1, 65):
            with pytest.raises(WireError, match=r"\[1, 64\]"):
                pack_bits(np.array([1], dtype=np.uint64), bits)
            with pytest.raises(WireError, match=r"\[1, 64\]"):
                unpack_bits(b"", bits, 0)

    def test_wrong_stream_length_rejected(self):
        packed = pack_bits(np.array([1, 2, 3], dtype=np.uint64), 7)
        with pytest.raises(WireError, match="need exactly"):
            unpack_bits(packed + b"\0", 7, 3)

    def test_boundary_value_at_every_width(self):
        """0 and 2**b - 1 survive for every b in 1..64 at exactly
        ``ceil(2b/8)`` bytes."""
        for bits in range(1, 65):
            values = np.array([0, 2**bits - 1], dtype=np.uint64)
            packed = pack_bits(values, bits)
            assert len(packed) == packed_nbytes(2, bits)
            np.testing.assert_array_equal(unpack_bits(packed, bits, 2), values)

    def test_size_reduction_for_31_bit_field_elements(self):
        """31-bit field elements in uint64 words shrink by >= 2x."""
        values = np.random.default_rng(0).integers(
            0, 2**31 - 1, size=4096, dtype=np.uint64
        )
        assert values.nbytes / len(pack_bits(values, 31)) >= 2


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
        width=st.sampled_from(sorted(_UNSIGNED)),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pack(self, bits, count, fill, width, strided, seed):
        bits = min(bits, width)
        values = _draw_values(bits, count, fill, seed).astype(
            _UNSIGNED[width]
        )
        if strided:
            spaced = np.zeros(2 * count, dtype=values.dtype)
            spaced[::2] = values
            values = spaced[::2]
            assert count < 2 or not values.flags["C_CONTIGUOUS"]
        expected = reference_pack_bits(values, bits).tobytes()
        assert len(expected) == packed_nbytes(count, bits)
        assert pack_bits(values, bits) == expected

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

    def test_result_never_aliases_the_source(self):
        values = _draw_values(31, 100, "random", 0)
        source = bytearray(pack_bits(values, 31))
        out = unpack_bits(source, 31, values.size)
        assert out.flags["OWNDATA"] and out.flags["WRITEABLE"]
        for i in range(len(source)):
            source[i] ^= 0xFF
        np.testing.assert_array_equal(out, values)


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
