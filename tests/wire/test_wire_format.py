"""Wire-format round trips: frames, primitives, and every message type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DropoutError, ProtocolError, TransportError, WireError
from repro.protocols.base import (
    PHASES,
    AggregationResult,
    RoundMetrics,
    SessionStats,
    Transcript,
)
from repro.wire import (
    FIELD_WORD,
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    WIRE_VERSION,
    ErrorFrame,
    PayloadReader,
    PayloadWriter,
    Ping,
    PoolSnapshot,
    RefillRequest,
    SessionSetup,
    SessionTeardown,
    SetupAck,
    ShardRoundRequest,
    ShardRoundResult,
    Shutdown,
    decode_frame,
    decode_message,
    encode_message,
    encode_segments,
    frame_segments,
)
from repro.wire.format import ShmArrayRef


class TestFrameLayout:
    def test_header_magic_version_and_length(self):
        w = PayloadWriter()
        w.put_u32(7)
        frame = b"".join(frame_segments(3, 99, w))
        assert frame[:2] == MAGIC
        assert frame[2] == WIRE_VERSION
        msg_type, request_id, reader = decode_frame(frame)
        assert (msg_type, request_id) == (3, 99)
        assert reader.get_u32() == 7
        assert reader.remaining == 0

    def test_truncated_and_corrupted_frames_rejected(self):
        frame = encode_message(Shutdown(), 1)
        with pytest.raises(WireError, match="too short"):
            decode_frame(frame[: HEADER_SIZE - 1])
        with pytest.raises(WireError, match="magic"):
            decode_frame(b"XX" + frame[2:])
        bad_version = frame[:2] + bytes([WIRE_VERSION + 1]) + frame[3:]
        with pytest.raises(WireError, match="version"):
            decode_frame(bad_version)
        with pytest.raises(WireError, match="length mismatch"):
            decode_frame(frame + b"\x00")

    # 6 and 12 are retired types (the snapshot request and the drain
    # request); 200 was never assigned.
    @pytest.mark.parametrize("msg_type", [6, 12, 200])
    def test_unknown_message_type_rejected(self, msg_type):
        frame = b"".join(frame_segments(msg_type, 0, PayloadWriter()))
        with pytest.raises(WireError, match="unknown wire message type"):
            decode_message(frame)

    def test_truncated_payload_rejected(self):
        w = PayloadWriter()
        w.put_u32(5)  # ShardRoundRequest.shard_id only; rest missing
        frame = b"".join(frame_segments(ShardRoundRequest.TYPE, 0, w))
        with pytest.raises(WireError, match="truncated"):
            decode_message(frame)


class TestPayloadPrimitives:
    def test_scalars_round_trip(self):
        w = PayloadWriter()
        w.put_u8(255)
        w.put_u32(2**32 - 1)
        w.put_u64(2**63)
        w.put_i64(-12345)
        w.put_f64(3.5)
        w.put_str("grüße")
        r = PayloadReader(memoryview(b"".join(w.segments)))
        assert r.get_u8() == 255
        assert r.get_u32() == 2**32 - 1
        assert r.get_u64() == 2**63
        assert r.get_i64() == -12345
        assert r.get_f64() == 3.5
        assert r.get_str() == "grüße"
        assert r.remaining == 0

    def test_array_decode_is_zero_copy_view(self):
        data = np.arange(12, dtype=np.uint64).reshape(3, 4)
        w = PayloadWriter()
        w.put_array(data)
        buf = b"".join(w.segments)
        out = PayloadReader(memoryview(buf)).get_array()
        assert np.array_equal(out, data)
        assert out.base is not None  # a view into the frame, not a copy
        with pytest.raises(ValueError):
            out[0, 0] = 1  # frame-backed arrays are read-only

    def test_non_contiguous_and_empty_arrays(self):
        data = np.arange(20, dtype=np.uint64).reshape(4, 5)[:, ::2]
        w = PayloadWriter()
        w.put_array(data)
        w.put_array(np.zeros((0, 3), dtype=np.int64))
        r = PayloadReader(memoryview(b"".join(w.segments)))
        assert np.array_equal(r.get_array(), data)
        assert r.get_array().shape == (0, 3)

    def test_unsupported_dtype_rejected(self):
        w = PayloadWriter()
        with pytest.raises(WireError, match="not wire-encodable"):
            w.put_array(np.zeros(3, dtype=np.complex128))

    def test_big_endian_arrays_rejected_with_pointed_error(self):
        """The wire is little-endian by definition; a big-endian array
        must fail loudly (not silently emit BE bytes a LE peer would
        misread — the latent bug this whitelist closes)."""
        for dtype in (">u4", ">u8", ">i8", ">f8"):
            w = PayloadWriter()
            with pytest.raises(WireError, match="big-endian"):
                w.put_array(np.zeros(3, dtype=dtype))

    def test_array_tag_with_the_retired_packed_flag_is_refused(self):
        """0x80 once marked a bit-packed array; no frame carries one
        now, so its tag is refused rather than read as raw bytes."""
        w = PayloadWriter()
        w.put_array(np.arange(3, dtype="<u4"))
        payload = bytearray(b"".join(w.segments))
        payload[0] |= 0x80
        with pytest.raises(WireError, match="unknown array tag flags 0x80"):
            PayloadReader(memoryview(bytes(payload))).get_array()

    def test_byteswapped_input_encodes_after_conversion(self):
        """The error message's advice works: .astype to the LE layout
        round-trips values exactly."""
        be = np.array([1, 2**40, 2**63 - 1], dtype=">u8")
        w = PayloadWriter()
        w.put_array(be.astype("<u8"))
        out = PayloadReader(memoryview(b"".join(w.segments))).get_array()
        assert np.array_equal(out, be)

    @settings(max_examples=30, deadline=None)
    @given(
        arr=st.lists(
            st.integers(min_value=0, max_value=2**64 - 1),
            min_size=0,
            max_size=64,
        ),
        request_id=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_u64_arrays_round_trip_any_contents(self, arr, request_id):
        data = np.asarray(arr, dtype=np.uint64)
        w = PayloadWriter()
        w.put_array(data)
        frame = b"".join(frame_segments(1, request_id, w))
        _, rid, reader = decode_frame(frame)
        assert rid == request_id
        assert np.array_equal(reader.get_array(), data)


# ----------------------------------------------------------------------
# message round trips
# ----------------------------------------------------------------------
@st.composite
def round_requests(draw):
    """The one shard request with every field drawn: weights spanning
    0, 1 and the full u64 range, rows spanning the full u32 word range,
    and both optional tails (a shm result ref and a trace id), each
    present or not."""
    batch = draw(st.integers(min_value=1, max_value=8))
    width = draw(st.integers(min_value=1, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = draw(st.lists(
        st.one_of(st.sampled_from([0, 1]), st.integers(0, 2**64 - 1)),
        min_size=batch, max_size=batch,
    ))
    dropouts = set(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=batch - 1), max_size=3
            )
        )
    )
    result_ref = draw(st.one_of(st.none(), st.builds(
        ShmArrayRef,
        name=st.text("abcdef0123456789-", min_size=1, max_size=24),
        offset=st.integers(0, 2**40),
        shape=st.just((width,)),
    )))
    return ShardRoundRequest(
        shard_id=draw(st.integers(min_value=0, max_value=31)),
        round_id=draw(st.integers(min_value=0, max_value=2**40)),
        weights=np.asarray(weights, dtype=np.uint64),
        updates=rng.integers(
            0, 2**32 - 1, size=(batch, width), dtype=np.uint64,
            endpoint=True,
        ),
        dropouts=dropouts,
        result_ref=result_ref,
        trace_id=draw(st.integers(0, 2**64 - 1)),
    )


class TestMessageRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(request=round_requests(), request_id=st.integers(0, 2**64 - 1))
    def test_round_request_round_trips(self, request, request_id):
        rid, back = decode_message(encode_message(request, request_id))
        assert rid == request_id
        assert back.shard_id == request.shard_id
        assert back.round_id == request.round_id
        assert back.weights.dtype == np.dtype("<u8")
        assert back.weights.tolist() == request.weights.tolist()
        assert back.dropouts == request.dropouts
        assert back.result_ref == request.result_ref
        assert back.trace_id == request.trace_id
        assert back.updates.dtype == FIELD_WORD
        assert np.array_equal(back.updates, request.updates)

    @settings(max_examples=60, deadline=None)
    @given(request=round_requests())
    def test_semantically_equal_requests_are_byte_equal(self, request):
        """Encoding is canonical: id sets are sorted, layouts are fixed."""
        shuffled = ShardRoundRequest(
            shard_id=request.shard_id,
            round_id=request.round_id,
            weights=request.weights.copy(),
            updates=request.updates,
            dropouts=set(sorted(request.dropouts, reverse=True)),
            result_ref=request.result_ref,
            trace_id=request.trace_id,
        )
        assert encode_message(request, 7) == encode_message(shuffled, 7)

    def test_from_updates_is_the_unit_weight_round(self):
        """Member i is row i, weighted 0 if it dropped and 1 otherwise;
        ids other than exactly 0..B-1 have no row to go to."""
        updates = {i: np.full(3, i, dtype=np.uint64) for i in range(4)}
        request = ShardRoundRequest.from_updates(2, 5, updates, {1, 3})
        assert request.weights.tolist() == [1, 0, 1, 0]
        assert request.updates[:, 0].tolist() == [0, 1, 2, 3]
        assert request.dropouts == {1, 3}
        with pytest.raises(WireError, match="member ids 0..1"):
            ShardRoundRequest.from_updates(0, 0, {0: updates[0],
                                                  2: updates[2]}, set())

    def test_row_count_must_match_weights(self):
        rows = np.zeros((2, 4), dtype=np.uint64)
        with pytest.raises(WireError, match="does not match"):
            encode_message(ShardRoundRequest(0, 0, weights=[1], updates=rows), 1)

    def test_round_result_rebuilds_aggregation_result(self):
        transcript = Transcript()
        transcript.record(0, -1, "upload", 10)
        transcript.record(2, -1, "recovery", 4, is_key_sized=True)
        result = AggregationResult(
            aggregate=np.arange(10, dtype=np.uint64),
            survivors=[0, 2, 3],
            transcript=transcript,
            metrics=RoundMetrics(
                server_decode_ops=44,
                server_prg_elements=0,
                user_encode_ops=7,
                extra={"pool_level": 2.0, "amortized_encode_ops": 96.0},
            ),
        )
        stats = SessionStats(rounds=5, refills=2, pool_hits=4, pool_misses=1,
                             precomputed_rounds=8, refill_seconds=0.125)
        msg = ShardRoundResult.from_result(
            3, 17, result, stalled=True, pool_level=2, stats=stats
        )
        rid, back = decode_message(encode_message(msg, 9))
        assert rid == 9
        assert back.stalled and back.pool_level == 2
        assert back.stats == stats
        rebuilt = back.to_result()
        assert np.array_equal(rebuilt.aggregate, result.aggregate)
        assert rebuilt.survivors == result.survivors
        assert rebuilt.metrics.server_decode_ops == 44
        assert rebuilt.metrics.extra == result.metrics.extra
        assert len(rebuilt.transcript) == 2
        msg_a, msg_b = rebuilt.transcript.messages
        assert (msg_a.sender, msg_a.receiver, msg_a.phase) == (0, -1, "upload")
        assert msg_b.is_key_sized and msg_b.phase == "recovery"
        for phase in PHASES:
            assert rebuilt.transcript.elements(
                phase=phase
            ) == result.transcript.elements(phase=phase)

    def test_refill_request_none_and_explicit(self):
        for rounds in (None, 0, 5):
            _, back = decode_message(
                encode_message(RefillRequest(2, rounds), 1)
            )
            assert back == RefillRequest(2, rounds)

    def test_pool_snapshot_round_trips(self):
        snap = PoolSnapshot(
            shard_id=1, pool_level=3, pool_size=4, rounds_added=2,
            closed=True,
            stats=SessionStats(rounds=9, refill_seconds=0.5),
        )
        _, back = decode_message(encode_message(snap, 12))
        assert back == snap

    def test_shutdown_round_trips(self):
        _, back = decode_message(encode_message(Shutdown(), 3))
        assert isinstance(back, Shutdown)

    def test_session_setup_round_trips_specs_per_slot(self):
        from repro.service.transport import ShardSessionSpec

        specs = [
            ShardSessionSpec(
                protocol="lightsecagg", num_users=8, shard_dim=13,
                privacy=2, dropout_tolerance=2, pool_size=3, low_water=1,
                seed=(4, 0, s),
            )
            for s in range(2)
        ]
        setup = SessionSetup(entries=[(7, specs[0]), (3, specs[1])])
        rid, back = decode_message(encode_message(setup, 21))
        assert rid == 21
        # Canonical slot order on the wire; specs survive field-by-field.
        assert back.entries == [(3, specs[1]), (7, specs[0])]
        # Specs with negative seed parts (i64 on the wire) survive too.
        negative = ShardSessionSpec(
            protocol="naive", num_users=4, shard_dim=5, privacy=1,
            dropout_tolerance=1, pool_size=1, low_water=0, seed=(-3, 1),
        )
        _, back = decode_message(encode_message(SessionSetup([(0, negative)]), 1))
        assert back.entries == [(0, negative)]

    def test_setup_ack_teardown_and_ping(self):
        _, back = decode_message(encode_message(SetupAck([4, 1, 2]), 5))
        assert back == SetupAck([1, 2, 4])
        _, back = decode_message(encode_message(SessionTeardown([9, 0]), 6))
        assert back == SessionTeardown([0, 9])
        _, back = decode_message(encode_message(Ping(nonce=77), 7))
        assert back == Ping(nonce=77)

    @pytest.mark.parametrize("message", [SessionSetup([]), SetupAck([0])])
    def test_setup_frames_have_no_trailing_word(self, message):
        """Version 2 setup frames end after their entries / slots; the
        version-1 trailing u32 is refused even under a current header."""
        w = PayloadWriter()
        message._encode(w)
        w.put_u32(7)
        with pytest.raises(WireError, match="trailing bytes"):
            decode_message(b"".join(frame_segments(type(message).TYPE, 1, w)))

    def test_encode_segments_matches_encode_message(self):
        """The vectored-write path emits byte-identical frames."""
        msg = PoolSnapshot(
            shard_id=1, pool_level=2, pool_size=4, rounds_added=1,
            closed=False, stats=SessionStats(rounds=3),
        )
        assert b"".join(encode_segments(msg, 11)) == encode_message(msg, 11)


class TestFieldWords:
    """Field words cross the wire as ``<u4`` and nothing else: encoding
    refuses a word that does not fit rather than cutting it, and
    decoding refuses any other layout, framed or staged."""

    @staticmethod
    def _request_frame(updates: np.ndarray) -> bytes:
        """A hand-built round request frame carrying ``updates`` as-is."""
        w = PayloadWriter()
        w.put_u32(0)
        w.put_u64(1)
        w.put_array(np.ones(updates.shape[0], dtype="<u8"))
        w.put_array(updates)
        w.put_array(np.zeros(0, dtype="<u4"))  # dropouts
        return b"".join(frame_segments(ShardRoundRequest.TYPE, 1, w))

    @staticmethod
    def _result(aggregate) -> ShardRoundResult:
        return ShardRoundResult(
            shard_id=0, round_id=1, aggregate=aggregate, survivors=[0],
            transcript_table=np.zeros((0, 5), dtype=np.int64),
            metrics_counts=(0, 0, 0), metrics_extra={}, stalled=False,
            pool_level=0, stats=SessionStats(),
        )

    def test_rows_ride_and_decode_as_u4(self):
        rows = np.array([[0, 2**32 - 1]], dtype=np.uint64)
        frame = encode_message(ShardRoundRequest(0, 1, [1], rows), 1)
        assert frame == self._request_frame(rows.astype("<u4"))
        _, back = decode_message(frame)
        assert back.updates.dtype == FIELD_WORD
        assert back.updates.tolist() == rows.tolist()

    def test_hand_built_u8_rows_are_refused(self):
        frame = self._request_frame(np.array([[7, 8]], dtype="<u8"))
        with pytest.raises(WireError, match="updates must be 2-D <u4"):
            decode_message(frame)

    def test_one_dimensional_u4_rows_are_refused(self):
        frame = self._request_frame(np.array([7, 8], dtype="<u4"))
        with pytest.raises(WireError, match="updates must be 2-D <u4"):
            decode_message(frame)

    def test_word_over_u32_raises_instead_of_sending_its_low_bits(self):
        request = ShardRoundRequest.from_updates(
            0, 1, {0: np.array([2**32 + 7], dtype=np.uint64)}, set()
        )
        with pytest.raises(WireError, match=r"outside \[0, 2\*\*32\)"):
            encode_message(request, 1)
        with pytest.raises(WireError, match=r"outside \[0, 2\*\*32\)"):
            encode_message(
                self._result(np.array([2**32 + 7], dtype=np.uint64)), 1
            )

    def test_packed_keyword_is_accepted_and_ignored(self):
        """``packed=True`` still parses (benchmarks/e2e/probes.py passes
        it) and changes no byte of either frame."""
        updates = {0: np.arange(4, dtype=np.uint64)}
        plain = ShardRoundRequest.from_updates(0, 1, updates, set())
        shim = ShardRoundRequest.from_updates(0, 1, updates, set(), packed=True)
        assert encode_message(shim, 1) == encode_message(plain, 1)
        outcome = AggregationResult(
            aggregate=np.arange(4, dtype=np.uint64), survivors=[0],
            transcript=Transcript(), metrics=RoundMetrics(),
        )
        results = [
            ShardRoundResult.from_result(0, 1, outcome, False, 0,
                                         SessionStats(), **packed)
            for packed in ({}, {"packed": True})
        ]
        assert encode_message(results[0], 1) == encode_message(results[1], 1)

    def test_negative_and_non_integer_words_are_refused(self):
        for rows in (np.array([[-1]]), np.array([[1.5]])):
            with pytest.raises(WireError):
                encode_message(ShardRoundRequest(0, 1, [1], rows), 1)

    def test_framed_u8_aggregate_is_refused(self):
        forged = bytearray(encode_message(
            self._result(np.arange(6, dtype=np.uint64)), 1
        ))
        head = HEADER_SIZE + 4 + 8  # shard id, round id, then the array tag
        assert forged[head] == 1  # <u4
        # Re-tag six <u4 words as three <u8 words: same byte length.
        forged[head] = 2
        forged[head + 2 : head + 10] = (3).to_bytes(8, "little")
        with pytest.raises(WireError, match="aggregate must be 1-D <u4"):
            decode_message(bytes(forged))

    def test_staged_u8_aggregate_is_refused(self):
        segment = memoryview(bytearray(64))
        for dtype, ok in (("<u4", True), ("<u8", False)):
            ref = ShmArrayRef(name="seg", offset=0, shape=(4,), dtype=dtype)
            result = self._result(np.zeros(4, dtype=np.uint64))
            result.aggregate_ref = ref
            frame = encode_message(result, 1)
            if ok:
                _, back = decode_message(frame, shm=lambda name: segment)
                assert back.aggregate.dtype == FIELD_WORD
                assert back.aggregate_ref == ref
            else:
                with pytest.raises(WireError, match="aggregate must be"):
                    decode_message(frame, shm=lambda name: segment)


class _FakeHugeSegment:
    """Stands in for a >4GiB buffer without allocating one."""

    def __init__(self, nbytes: int):
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes


class TestU32LengthGuards:
    def test_payload_over_u32_max_raises_wire_error(self):
        w = PayloadWriter()
        w.segments.append(_FakeHugeSegment(MAX_PAYLOAD_BYTES + 1))
        with pytest.raises(
            WireError, match=f"{MAX_PAYLOAD_BYTES + 1} bytes exceeds the u32"
        ):
            frame_segments(1, 0, w)

    def test_payload_at_exactly_u32_max_passes_the_guard(self):
        """The boundary itself is legal; only the header pack is exercised
        (the fake segment would fail a real join, which never happens in
        frame_segments)."""
        w = PayloadWriter()
        w.segments.append(_FakeHugeSegment(MAX_PAYLOAD_BYTES))
        header, segment = frame_segments(2, 9, w)
        assert len(header) == HEADER_SIZE
        _, _, _, rid, length = __import__("struct").unpack("<2sBBQI", header)
        assert (rid, length) == (9, MAX_PAYLOAD_BYTES)
        assert segment is w.segments[0]

    def test_oversized_bytes_value_raises_wire_error(self):
        class _FakeHugeBytes(bytes):
            def __len__(self):
                return MAX_PAYLOAD_BYTES + 1

        w = PayloadWriter()
        with pytest.raises(WireError, match="u32 length prefix"):
            w.put_bytes(_FakeHugeBytes())
        assert w.segments == []  # nothing half-appended after the failure


class TestErrorFrames:
    @pytest.mark.parametrize(
        "exc", [ProtocolError("survivors below U"), DropoutError("too many")]
    )
    def test_known_exceptions_reraise_as_themselves(self, exc):
        frame = encode_message(ErrorFrame.from_exception(4, exc), 8)
        _, back = decode_message(frame)
        with pytest.raises(type(exc), match=str(exc)):
            back.raise_()

    def test_unknown_exception_becomes_transport_error(self):
        frame = encode_message(
            ErrorFrame.from_exception(0, ValueError("weird")), 1
        )
        _, back = decode_message(frame)
        with pytest.raises(TransportError, match="ValueError: weird"):
            back.raise_()

    def test_arbitrary_kind_cannot_smuggle_non_repro_types(self):
        """A malicious peer naming e.g. SystemExit still gets TransportError."""
        _, back = decode_message(
            encode_message(ErrorFrame(0, "SystemExit", "0"), 1)
        )
        with pytest.raises(TransportError):
            back.raise_()
