"""Wire-level contracts for trace propagation.

The tracing fields are trailing-optional on both shard-round messages:
``ShardRoundRequest.trace_id`` is omitted when zero and
``ShardRoundResult.worker_span`` is omitted when absent, so a frame
produced with tracing disabled carries no tracing bytes at all (pinned
here against a golden hex dump).  The request's
frame end is shared by two optional tails — a shm result ref and the
trace id — disambiguated by size: an encoded shm ref is never exactly
8 bytes, so 8 remaining bytes can only be a bare trace id.
"""

import numpy as np
import pytest

from repro.wire.format import ShmArrayRef
from repro.wire.messages import (
    SessionStats,
    ShardRoundRequest,
    ShardRoundResult,
    WorkerSpan,
    decode_message,
    encode_message,
)

TRACE_ID = 0xDEADBEEF

#: ``encode_message(make_request(), request_id=42)`` with tracing off,
#: in the layout of wire version 4 (update rows as ``<u4`` field words);
#: the traced frame must stay exactly this plus the 8-byte trace id.
GOLDEN_UNTRACED_FRAME_HEX = (
    "4c5704012a000000000000005e00000001000000070000000000000002010200"
    "0000000000000100000000000000000000000000000001020200000000000000"
    "0300000000000000000000000100000002000000030000000400000005000000"
    "0101010000000000000001000000"
)


def make_request(**overrides) -> ShardRoundRequest:
    request = ShardRoundRequest.from_updates(
        shard_id=1,
        round_id=7,
        updates={
            0: np.arange(3, dtype=np.uint64),
            1: np.arange(3, 6, dtype=np.uint64),
        },
        dropouts={1},
    )
    for name, value in overrides.items():
        setattr(request, name, value)
    return request


def make_worker_span(trace_id=TRACE_ID) -> WorkerSpan:
    return WorkerSpan(
        trace_id=trace_id,
        pid=4321,
        host="shard-host-07",
        queue_wait_seconds=0.0125,
        compute_start_unix=1754650000.25,
        compute_seconds=0.75,
    )


def make_result(worker_span=None) -> ShardRoundResult:
    return ShardRoundResult(
        shard_id=1,
        round_id=7,
        aggregate=np.arange(4, dtype=np.uint64),
        survivors=[0, 2],
        transcript_table=np.arange(10, dtype=np.int64).reshape(2, 5),
        metrics_counts=(3, 17, 5),
        metrics_extra={"alpha": 0.5},
        stalled=False,
        pool_level=2,
        stats=SessionStats(),
        worker_span=worker_span,
    )


class TestRequestTraceId:
    def test_untraced_frame_matches_pre_tracing_golden(self):
        frame = encode_message(make_request(), request_id=42)
        assert frame.hex() == GOLDEN_UNTRACED_FRAME_HEX

    def test_traced_frame_is_golden_plus_exactly_eight_bytes(self):
        untraced = encode_message(make_request(), request_id=42)
        traced = encode_message(
            make_request(trace_id=TRACE_ID), request_id=42
        )
        assert len(traced) == len(untraced) + 8
        assert traced.endswith((TRACE_ID).to_bytes(8, "little"))

    def test_trace_id_round_trips(self):
        frame = encode_message(make_request(trace_id=TRACE_ID))
        _, back = decode_message(frame)
        assert back.trace_id == TRACE_ID
        assert back.shard_id == 1 and back.round_id == 7
        assert back.weights.tolist() == [1, 0]
        np.testing.assert_array_equal(
            back.updates,
            np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint64),
        )
        assert back.dropouts == {1}

    def test_zero_trace_id_decodes_as_untraced(self):
        _, back = decode_message(encode_message(make_request()))
        assert back.trace_id == 0
        assert back.result_ref is None

    def test_result_ref_and_trace_id_share_the_tail(self):
        ref = ShmArrayRef(name="seg-a", offset=128, shape=(3,))
        for trace_id in (0, TRACE_ID):
            request = make_request(result_ref=ref, trace_id=trace_id)
            _, back = decode_message(encode_message(request))
            assert back.result_ref == ref
            assert back.trace_id == trace_id

    def test_packed_request_keeps_the_trace_id(self):
        """The ignored ``packed`` keyword (the traced wire probe passes
        it) still yields a traced ``<u4`` frame."""
        request = ShardRoundRequest.from_updates(
            shard_id=1,
            round_id=7,
            updates={
                0: np.arange(3, dtype=np.uint64),
                1: np.arange(3, 6, dtype=np.uint64),
            },
            dropouts={1},
            packed=True,
        )
        request.trace_id = TRACE_ID
        frame = encode_message(request, request_id=42)
        assert frame == encode_message(make_request(trace_id=TRACE_ID), 42)
        _, back = decode_message(frame)
        assert back.trace_id == TRACE_ID
        np.testing.assert_array_equal(
            back.updates,
            np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint64),
        )


class TestResultWorkerSpan:
    def test_worker_span_round_trips_exactly(self):
        span = make_worker_span()
        frame = encode_message(make_result(worker_span=span))
        _, back = decode_message(frame)
        assert back.worker_span == span  # dataclass equality, all fields
        # floats must survive bit-exactly (f64 on the wire, no text)
        assert back.worker_span.compute_start_unix == 1754650000.25
        assert back.worker_span.queue_wait_seconds == 0.0125

    def test_absent_span_is_absent_and_adds_no_bytes(self):
        bare = encode_message(make_result())
        spanned = encode_message(make_result(worker_span=make_worker_span()))
        _, back = decode_message(bare)
        assert back.worker_span is None
        assert len(spanned) > len(bare)

    def test_result_payload_identical_without_span(self):
        # The untraced result frame must not change shape because the
        # WorkerSpan field exists: two results differing only in
        # worker_span=None encode to the same bytes.
        a = encode_message(make_result(), request_id=9)
        b = encode_message(make_result(worker_span=None), request_id=9)
        assert a == b

    def test_rest_of_result_unharmed_by_span_tail(self):
        _, back = decode_message(
            encode_message(make_result(worker_span=make_worker_span()))
        )
        np.testing.assert_array_equal(
            back.aggregate, np.arange(4, dtype=np.uint64)
        )
        assert back.survivors == [0, 2]
        assert back.metrics_counts == (3, 17, 5)
        assert back.metrics_extra == {"alpha": 0.5}
        assert back.pool_level == 2


def test_empty_host_worker_span_round_trips():
    span = make_worker_span()
    span.host = ""
    _, back = decode_message(encode_message(make_result(worker_span=span)))
    assert back.worker_span.host == ""


def test_trace_id_full_u64_range():
    top_bit = 1 << 63
    _, back = decode_message(
        encode_message(make_request(trace_id=top_bit | 5))
    )
    assert back.trace_id == top_bit | 5
