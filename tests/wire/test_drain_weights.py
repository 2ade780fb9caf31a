"""Drain weights on the wire are type-checked, never cast.

A cast is a silently wrong weighted aggregate: ``f8`` weights
``[1.9, 2.2, 3.7]`` would drain as ``[1, 2, 3]`` and an ``i8`` weight
``-5`` as ``2**64 - 5``.  The decoder accepts only the layout the
encoder sends (1-D ``<u8``), and the encoder refuses what it cannot
send exactly; ``uint64`` weights of any size stay valid.
"""

import numpy as np
import pytest

from repro.exceptions import WireError
from repro.wire import (
    PayloadWriter,
    ShardDrainRequest,
    decode_message,
    encode_frame,
    encode_message,
)

U64_MAX = (1 << 64) - 1
UPDATES = np.arange(12, dtype=np.uint64).reshape(3, 4)


def hand_built_frame(weights: np.ndarray) -> bytes:
    """A drain frame as any peer could build it, weights as given."""
    w = PayloadWriter()
    w.put_u32(0)  # shard_id
    w.put_u64(7)  # drain_id
    w.put_array(weights)
    w.put_array(UPDATES)
    w.put_array(np.zeros(0, dtype=np.uint32))  # recovery dropouts
    return encode_frame(ShardDrainRequest.TYPE, 1, w)


class TestDecode:
    @pytest.mark.parametrize("weights", [
        np.array([1.9, 2.2, 3.7]),
        np.array([1, -5, 3], dtype=np.int64),
        np.array([1, 2, 3], dtype=np.uint32),
        np.array([[1, 2, 3]], dtype=np.uint64),
    ], ids=["f8", "i8", "u4", "2-D"])
    def test_other_layouts_refused(self, weights):
        with pytest.raises(WireError, match="drain weights must be 1-D <u8"):
            decode_message(hand_built_frame(weights))

    def test_u8_weights_of_any_size_decode(self):
        weights = np.array([1, 1 << 63, U64_MAX], dtype=np.uint64)
        _, message = decode_message(hand_built_frame(weights))
        assert message.weights.tolist() == weights.tolist()


class TestEncode:
    @pytest.mark.parametrize("weights", [
        np.array([1.9, 2.2, 3.7]),
        np.array([1, -5, 3]),
        np.array([1, 2, 3], dtype=object),
    ], ids=["float", "negative", "object"])
    def test_inexact_weights_refused(self, weights):
        request = ShardDrainRequest(0, 7, weights=weights, updates=UPDATES)
        with pytest.raises(WireError, match="non-negative integers"):
            encode_message(request, 1)

    @pytest.mark.parametrize("weights", [
        [1, 2, 3],
        np.array([4, 5, 6], dtype=np.uint32),
        np.array([1, 1 << 63, U64_MAX], dtype=np.uint64),
    ], ids=["list", "u4", "u8-full-range"])
    def test_integer_weights_round_trip_as_u8(self, weights):
        request = ShardDrainRequest(0, 7, weights=weights, updates=UPDATES)
        _, back = decode_message(encode_message(request, 1))
        assert back.weights.dtype == np.dtype("<u8")
        assert back.weights.tolist() == [int(w) for w in weights]
        assert np.array_equal(back.updates, UPDATES)
