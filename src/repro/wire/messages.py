"""Typed messages of the shard wire protocol, version 5.

The message set covers everything the service layer sends between a
shard coordinator and the process hosting that shard's protocol session:

* :class:`ShardRoundRequest` / :class:`ShardRoundResult` — one weighted
  aggregate for one shard, the only compute request: the weights, the
  scattered update rows and the recovery dropouts out, the shard
  aggregate, survivors, transcript, and pool state back.  A synchronous
  round is the request weighted 1 on survivors and 0 on dropouts; a
  buffered drain carries staleness weights.
* :class:`RekeyRequest` — re-size a shard session's member set.
* :class:`RefillRequest` / :class:`PoolSnapshot` — top up a shard's
  offline pool; the snapshot doubles as the generic "current pool +
  session stats" report, answering refills and re-keys alike.
* :class:`ErrorFrame` — a remote exception, carried by name + message so
  the coordinator can re-raise the library's own exception types.
* :class:`Shutdown` — drain and close the link: the worker finishes a
  refill already in flight, closes every session the link hosts and
  acknowledges with a :class:`Shutdown` of its own.  It is how a
  coordinator closes every link it owns.
* :class:`SessionSetup` / :class:`SetupAck` — networked-worker
  lifecycle: a coordinator ships declarative
  :class:`~repro.service.transport.ShardSessionSpec` entries, each bound
  to a *slot* — the shard index — and the worker host builds the
  sessions locally (never unpickling live objects).  Every subsequent
  round/refill/rekey message addresses a slot via its ``shard_id``
  field.  Setup is also the *re-pin* path: after a reconnect the
  coordinator replays its ``SessionSetup`` so a restarted worker rebuilds
  the sessions from the specs, each re-pinned seed extended so the
  rebuilt pools hold fresh masks (``seed`` is variable-length on the
  wire, so this needs no new version).
* :class:`Ping` — connection supervision; the worker echoes it under the
  same request id, off the round-serving path, so heartbeats stay live
  while a slow round executes.

Encoding uses :mod:`repro.wire.format` primitives only — no pickling —
so frames are safe to accept from an untrusted peer and identical
whether the stream socket is a TCP connection or a local socketpair.
Both ends must share :data:`~repro.wire.format.WIRE_VERSION`.

Field words — update rows and aggregates — are
:data:`~repro.field.FIELD_WORD` (``<u4``, the pools' width) on every
shard hop and in memory: every modulus the field accepts is below
``2**32``.  Encoding narrows a wider array, refusing a word that does not
fit instead of cutting it to its low 32 bits.  Decoding refuses any
other layout and returns read-only views into the frame or the staged
region, except a staged aggregate, copied out of the region the next
round overwrites.

Every payload is deterministic given the message fields: id sets are
sorted on encode and rows keep their order, so two semantically equal
messages are byte-equal (property-tested), which is what lets the tests
pin "process-backed round == inline round" at the frame level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Type

import numpy as np

import repro.exceptions as _exceptions
from repro.exceptions import WireError
from repro.field import FIELD_WORD
from repro.protocols.base import (
    PHASES,
    AggregationResult,
    RoundMetrics,
    SessionStats,
    Transcript,
)
from repro.wire.format import (
    PayloadReader,
    PayloadWriter,
    ShmArrayRef,
    decode_frame,
    frame_segments,
    get_shm_ref,
    put_shm_ref,
)

_PHASE_INDEX = {phase: i for i, phase in enumerate(PHASES)}


def field_words(values, what: str = "field words") -> np.ndarray:
    """``values`` as :data:`FIELD_WORD`, refusing any that do not fit.

    A cast would keep a word's low 32 bits and send ``2**32 + 7`` as 7,
    a silently wrong aggregate, so a word outside ``[0, 2**32)`` or a
    non-integer array is a :class:`WireError` instead.
    """
    words = np.asarray(values)
    if words.dtype == FIELD_WORD:
        return words
    if not np.issubdtype(words.dtype, np.integer):
        raise WireError(f"{what} dtype {words.dtype} is not an integer")
    if words.size and (
        (words.dtype.kind == "i" and words.min() < 0)
        or words.max() > 0xFFFFFFFF
    ):
        raise WireError(
            f"{what} hold a word outside [0, 2**32): field words cross "
            f"the wire as {FIELD_WORD.str}"
        )
    return words.astype(FIELD_WORD)


def _decode_words(words: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """Decoded field words as the :data:`FIELD_WORD` view they arrived
    as; any other layout or rank is refused, not reinterpreted."""
    if words.ndim != ndim or words.dtype != FIELD_WORD:
        raise WireError(
            f"{what} must be {ndim}-D {FIELD_WORD.str}, got "
            f"{words.dtype.str} {words.shape}"
        )
    return words


def _put_id_set(w: PayloadWriter, ids) -> None:
    w.put_array(np.fromiter(sorted(ids), dtype=np.uint32, count=len(ids)))


def _get_id_set(r: PayloadReader) -> Set[int]:
    return set(int(i) for i in r.get_array())


def _put_stats(w: PayloadWriter, stats: SessionStats) -> None:
    w.put_u64(stats.rounds)
    w.put_u64(stats.refills)
    w.put_u64(stats.pool_hits)
    w.put_u64(stats.pool_misses)
    w.put_u64(stats.precomputed_rounds)
    w.put_f64(stats.refill_seconds)


def _get_stats(r: PayloadReader) -> SessionStats:
    return SessionStats(
        rounds=r.get_u64(),
        refills=r.get_u64(),
        pool_hits=r.get_u64(),
        pool_misses=r.get_u64(),
        precomputed_rounds=r.get_u64(),
        refill_seconds=r.get_f64(),
    )


@dataclass
class WorkerSpan:
    """A worker's own timing report for one traced shard round.

    Rides as the trailing-optional tail of :class:`ShardRoundResult`,
    emitted only when the request carried a nonzero ``trace_id``.
    ``queue_wait_seconds`` is the request's dwell between arrival and
    the start of compute; ``pid``/``host`` identify the process that
    actually ran the round — the coordinator turns this into a
    ``shard_compute[i]`` span tagged with the remote identity.
    """

    trace_id: int
    pid: int
    host: str
    queue_wait_seconds: float
    compute_start_unix: float
    compute_seconds: float


def _put_worker_span(w: PayloadWriter, ws: WorkerSpan) -> None:
    w.put_u64(ws.trace_id)
    w.put_u64(ws.pid)
    w.put_str(ws.host)
    w.put_f64(ws.queue_wait_seconds)
    w.put_f64(ws.compute_start_unix)
    w.put_f64(ws.compute_seconds)


def _get_worker_span(r: PayloadReader) -> WorkerSpan:
    return WorkerSpan(
        trace_id=r.get_u64(),
        pid=r.get_u64(),
        host=r.get_str(),
        queue_wait_seconds=r.get_f64(),
        compute_start_unix=r.get_f64(),
        compute_seconds=r.get_f64(),
    )


@dataclass
class ShardRoundRequest:
    """The one shard request: a weighted aggregate of ``B`` uploads.

    Row ``b`` of ``updates`` is one upload and ``weights[b]`` its public
    integer weight; the worker's session spends pooled mask slot ``b``
    on it, so row order is load-bearing and is never canonicalized.  A
    synchronous round is the request whose ``B = N`` rows are the
    members in id order, weighted 1 on survivors and 0 on dropouts (see
    :meth:`from_updates`); a buffered drain carries its deliveries and
    their staleness weights.  ``dropouts`` are the member slots missing
    from the recovery phase.  Answered with a :class:`ShardRoundResult`
    keyed by ``round_id``.
    """

    TYPE = 1

    shard_id: int
    round_id: int
    weights: np.ndarray  # (B,) non-negative integers
    updates: np.ndarray  # (B, shard_width) field words, row b = upload b
    dropouts: Set[int] = field(default_factory=set)
    # Set when ``updates`` is already staged in a shared-memory segment:
    # only the reference is framed.
    updates_ref: Optional[ShmArrayRef] = None
    # Where the worker should place its aggregate (staged requests); a
    # trailing-optional field of the payload.
    result_ref: Optional[ShmArrayRef] = None
    # Round-trace correlation id; trailing-optional and omitted when
    # zero.  A worker that receives a nonzero trace_id reports a
    # WorkerSpan on its result.
    trace_id: int = 0

    @classmethod
    def from_updates(
        cls,
        shard_id: int,
        round_id: int,
        updates: Dict[int, np.ndarray],
        dropouts: Set[int],
        # Ignored, as in from_result: benchmarks/e2e/probes.py passes it.
        packed: bool = False,
    ) -> "ShardRoundRequest":
        """A synchronous round's request: member ``i``'s update is row
        ``i``, weighted 0 if ``i`` dropped and 1 otherwise."""
        count = len(updates)
        if sorted(updates) != list(range(count)):
            raise WireError(
                f"round updates must be keyed by member ids 0..{count - 1}"
            )
        dropouts = set(dropouts)
        return cls(
            shard_id=shard_id,
            round_id=round_id,
            weights=np.array(
                [i not in dropouts for i in range(count)], dtype=np.uint64
            ),
            updates=np.stack([
                np.asarray(updates[i], dtype=np.uint64) for i in range(count)
            ]) if count else np.zeros((0, 0), dtype=np.uint64),
            dropouts=dropouts,
        )

    def _encode(self, w: PayloadWriter) -> None:
        weights = np.asarray(self.weights)
        updates = np.asarray(self.updates)
        if weights.ndim != 1:
            raise WireError(f"drain weights must be 1-D, got {weights.shape}")
        # A cast would turn 1.9 into 1 and -5 into 2**64 - 5: a silently
        # wrong weighted aggregate, so anything else is refused.
        if not np.issubdtype(weights.dtype, np.integer) or np.any(weights < 0):
            raise WireError(
                f"drain weights must be non-negative integers, got "
                f"{weights.dtype} {weights[:4].tolist()}"
            )
        if updates.ndim != 2 or updates.shape[0] != weights.size:
            raise WireError(
                f"updates matrix {updates.shape} does not match "
                f"{weights.size} weights"
            )
        w.put_u32(self.shard_id)
        w.put_u64(self.round_id)
        w.put_array(np.ascontiguousarray(weights, dtype=np.uint64))
        if self.updates_ref is not None:
            ref = self.updates_ref
            if tuple(ref.shape) != updates.shape:
                raise WireError(
                    f"shm ref shape {ref.shape} does not match updates "
                    f"matrix {updates.shape}"
                )
            w.put_shm_array(ref)
        else:
            w.put_array(field_words(updates, "updates"))
        _put_id_set(w, self.dropouts)
        if self.result_ref is not None:
            put_shm_ref(w, self.result_ref)
        if self.trace_id:
            w.put_u64(self.trace_id)

    @classmethod
    def _decode(cls, r: PayloadReader) -> "ShardRoundRequest":
        shard_id = r.get_u32()
        round_id = r.get_u64()
        weights = r.get_array()
        # The one weight layout the encoder sends; a peer's f8 or i8
        # weights are refused, not reinterpreted.
        if weights.ndim != 1 or weights.dtype != np.dtype("<u8"):
            raise WireError(
                f"drain weights must be 1-D <u8, got {weights.dtype.str} "
                f"{weights.shape}"
            )
        updates = _decode_words(r.get_array(), 2, "updates")
        if updates.shape[0] != weights.size:
            raise WireError(
                f"request carries {updates.shape} update matrix for "
                f"{weights.size} weights"
            )
        dropouts = _get_id_set(r)
        # Two optional tails share the frame end: a shm result ref and a
        # trace id.  An encoded shm ref is never 8 bytes (dtype + ndim +
        # dims + named segment + offset is always longer), so exactly 8
        # remaining bytes can only be a bare trace_id.
        result_ref = None
        trace_id = 0
        if r.remaining == 8:
            trace_id = r.get_u64()
        elif r.remaining:
            result_ref = get_shm_ref(r)
            if r.remaining:
                trace_id = r.get_u64()
        return cls(
            shard_id=shard_id,
            round_id=round_id,
            weights=weights,
            updates=updates,
            dropouts=dropouts,
            result_ref=result_ref,
            trace_id=trace_id,
        )


@dataclass
class ShardRoundResult:
    """One shard's round outcome, sufficient to rebuild the result.

    Carries the shard aggregate, survivors, the full per-round transcript
    (as an ``(M, 5)`` table of sender/receiver/phase/size/key-sized), the
    round metrics, and the session's post-round pool state and cumulative
    stats so the coordinator's per-shard bookkeeping matches the inline
    path without extra round trips.
    """

    TYPE = 2

    shard_id: int
    round_id: int
    aggregate: np.ndarray
    survivors: List[int]
    transcript_table: np.ndarray  # (M, 5) int64
    metrics_counts: Tuple[int, int, int]  # decode_ops, prg_elements, encode_ops
    metrics_extra: Dict[str, float]
    stalled: bool
    pool_level: int
    stats: SessionStats
    # Set when the worker answered a staged request: the aggregate is
    # already placed at ``aggregate_ref`` and only the reference is
    # framed.
    aggregate_ref: Optional[ShmArrayRef] = None
    # The worker's own timing report, present only when the request
    # carried a nonzero trace_id (trailing-optional on the wire).
    worker_span: Optional[WorkerSpan] = None

    @classmethod
    def from_result(
        cls,
        shard_id: int,
        round_id: int,
        result: AggregationResult,
        stalled: bool,
        pool_level: int,
        stats: SessionStats,
        packed: bool = False,  # ignored, see from_updates
        aggregate_ref: Optional[ShmArrayRef] = None,
        worker_span: Optional[WorkerSpan] = None,
    ) -> "ShardRoundResult":
        table = np.asarray(
            [
                (
                    m.sender,
                    m.receiver,
                    _PHASE_INDEX[m.phase],
                    m.size,
                    int(m.is_key_sized),
                )
                for m in result.transcript.messages
            ],
            dtype=np.int64,
        ).reshape(len(result.transcript.messages), 5)
        return cls(
            shard_id=shard_id,
            round_id=round_id,
            aggregate=np.ascontiguousarray(result.aggregate, dtype=np.uint64),
            survivors=list(result.survivors),
            transcript_table=table,
            metrics_counts=(
                result.metrics.server_decode_ops,
                result.metrics.server_prg_elements,
                result.metrics.user_encode_ops,
            ),
            metrics_extra=dict(result.metrics.extra),
            stalled=stalled,
            pool_level=pool_level,
            stats=stats,
            aggregate_ref=aggregate_ref,
            worker_span=worker_span,
        )

    def to_result(self) -> AggregationResult:
        transcript = Transcript()
        for sender, receiver, phase_idx, size, key_sized in self.transcript_table:
            transcript.record(
                int(sender),
                int(receiver),
                PHASES[int(phase_idx)],
                int(size),
                bool(key_sized),
            )
        metrics = RoundMetrics(
            server_decode_ops=int(self.metrics_counts[0]),
            server_prg_elements=int(self.metrics_counts[1]),
            user_encode_ops=int(self.metrics_counts[2]),
            extra=dict(self.metrics_extra),
        )
        return AggregationResult(
            aggregate=self.aggregate,
            survivors=list(self.survivors),
            transcript=transcript,
            metrics=metrics,
        )

    def _encode(self, w: PayloadWriter) -> None:
        w.put_u32(self.shard_id)
        w.put_u64(self.round_id)
        if self.aggregate_ref is not None:
            w.put_shm_array(self.aggregate_ref)
        else:
            w.put_array(field_words(self.aggregate, "aggregate"))
        w.put_array(np.asarray(self.survivors, dtype=np.uint32))
        w.put_array(np.ascontiguousarray(self.transcript_table, dtype=np.int64))
        for count in self.metrics_counts:
            w.put_u64(count)
        w.put_u32(len(self.metrics_extra))
        for key in sorted(self.metrics_extra):
            w.put_str(key)
            w.put_f64(self.metrics_extra[key])
        w.put_u8(int(self.stalled))
        w.put_u32(self.pool_level)
        _put_stats(w, self.stats)
        if self.worker_span is not None:
            _put_worker_span(w, self.worker_span)

    @classmethod
    def _decode(cls, r: PayloadReader) -> "ShardRoundResult":
        shard_id = r.get_u32()
        round_id = r.get_u64()
        # A staged aggregate is copied out of the segment region the
        # next round overwrites; the ref is kept for the coordinator's
        # staged-byte count.
        aggregate = _decode_words(r.get_array(), 1, "aggregate")
        aggregate_ref = r.last_shm_ref
        if aggregate_ref is not None:
            aggregate = aggregate.copy()
        survivors = [int(i) for i in r.get_array()]
        table = r.get_array()
        if table.ndim != 2 or (table.size and table.shape[1] != 5):
            raise WireError(f"bad transcript table shape {table.shape}")
        counts = tuple(r.get_u64() for _ in range(3))
        extra = {}
        for _ in range(r.get_u32()):
            key = r.get_str()
            extra[key] = r.get_f64()
        return cls(
            shard_id=shard_id,
            round_id=round_id,
            aggregate=aggregate,
            survivors=survivors,
            transcript_table=table.reshape(-1, 5),
            metrics_counts=counts,  # type: ignore[arg-type]
            metrics_extra=extra,
            stalled=bool(r.get_u8()),
            pool_level=r.get_u32(),
            stats=_get_stats(r),
            aggregate_ref=aggregate_ref,
            worker_span=_get_worker_span(r) if r.remaining else None,
        )


@dataclass
class RefillRequest:
    """Top up one shard's offline pool (``rounds=None`` = to pool size)."""

    TYPE = 3

    shard_id: int
    rounds: Optional[int] = None

    def _encode(self, w: PayloadWriter) -> None:
        w.put_u32(self.shard_id)
        w.put_i64(-1 if self.rounds is None else self.rounds)

    @classmethod
    def _decode(cls, r: PayloadReader) -> "RefillRequest":
        shard_id = r.get_u32()
        rounds = r.get_i64()
        return cls(shard_id=shard_id, rounds=None if rounds < 0 else rounds)


@dataclass
class PoolSnapshot:
    """One shard session's pool state and cumulative stats."""

    TYPE = 4

    shard_id: int
    pool_level: int
    pool_size: int
    rounds_added: int
    closed: bool
    stats: SessionStats

    def _encode(self, w: PayloadWriter) -> None:
        w.put_u32(self.shard_id)
        w.put_u32(self.pool_level)
        w.put_u32(self.pool_size)
        w.put_i64(self.rounds_added)
        w.put_u8(int(self.closed))
        _put_stats(w, self.stats)

    @classmethod
    def _decode(cls, r: PayloadReader) -> "PoolSnapshot":
        return cls(
            shard_id=r.get_u32(),
            pool_level=r.get_u32(),
            pool_size=r.get_u32(),
            rounds_added=r.get_i64(),
            closed=bool(r.get_u8()),
            stats=_get_stats(r),
        )


@dataclass
class ErrorFrame:
    """A remote exception: library exception name + message.

    :meth:`raise_` re-raises the named :mod:`repro.exceptions` type when
    it exists (so e.g. a worker-side ``ProtocolError`` surfaces as a
    ``ProtocolError`` to the coordinator's caller) and falls back to
    :class:`~repro.exceptions.TransportError` for anything unknown.
    """

    TYPE = 5

    shard_id: int
    kind: str
    message: str

    @classmethod
    def from_exception(cls, shard_id: int, exc: BaseException) -> "ErrorFrame":
        return cls(
            shard_id=shard_id, kind=type(exc).__name__, message=str(exc)
        )

    def raise_(self) -> None:
        exc_type = getattr(_exceptions, self.kind, None)
        if isinstance(exc_type, type) and issubclass(
            exc_type, _exceptions.ReproError
        ):
            raise exc_type(self.message)
        raise _exceptions.TransportError(
            f"shard {self.shard_id} worker failed with {self.kind}: "
            f"{self.message}"
        )

    def _encode(self, w: PayloadWriter) -> None:
        w.put_u32(self.shard_id)
        w.put_str(self.kind)
        w.put_str(self.message)

    @classmethod
    def _decode(cls, r: PayloadReader) -> "ErrorFrame":
        return cls(shard_id=r.get_u32(), kind=r.get_str(), message=r.get_str())


@dataclass
class RekeyRequest:
    """Re-key one slot's session for a new member count.

    Sent between drains when cohort membership changes; the worker's
    session rebuilds its protocol geometry and drops pooled material
    encoded for the old member set, answering with a
    :class:`PoolSnapshot` whose ``rounds_added`` is the (negated)
    number of invalidated pool entries.
    """

    TYPE = 13

    shard_id: int
    num_users: int

    def _encode(self, w: PayloadWriter) -> None:
        w.put_u32(self.shard_id)
        w.put_u32(self.num_users)

    @classmethod
    def _decode(cls, r: PayloadReader) -> "RekeyRequest":
        return cls(shard_id=r.get_u32(), num_users=r.get_u32())


def _put_spec(w: PayloadWriter, spec) -> None:
    """Encode one ShardSessionSpec field-by-field (never pickled)."""
    w.put_str(spec.protocol)
    w.put_u32(spec.num_users)
    w.put_u64(spec.shard_dim)
    w.put_u32(spec.privacy)
    w.put_u32(spec.dropout_tolerance)
    w.put_u32(spec.pool_size)
    w.put_u32(spec.low_water)
    w.put_u32(len(spec.seed))
    for part in spec.seed:
        w.put_i64(part)
    w.put_u64(spec.field_modulus)


def _get_spec(r: PayloadReader):
    # Lazy import: repro.service.transport itself imports repro.wire, so
    # binding the spec type at module load would be a cycle.
    from repro.service.transport import ShardSessionSpec

    protocol = r.get_str()
    num_users = r.get_u32()
    shard_dim = r.get_u64()
    privacy = r.get_u32()
    dropout_tolerance = r.get_u32()
    pool_size = r.get_u32()
    low_water = r.get_u32()
    seed = tuple(r.get_i64() for _ in range(r.get_u32()))
    return ShardSessionSpec(
        protocol=protocol,
        num_users=num_users,
        shard_dim=shard_dim,
        privacy=privacy,
        dropout_tolerance=dropout_tolerance,
        pool_size=pool_size,
        low_water=low_water,
        seed=seed,
        field_modulus=r.get_u64(),
    )


@dataclass
class SessionSetup:
    """Build (or re-pin) shard sessions on a worker host, one per slot.

    ``entries`` maps slots — the coordinator's shard indices — to the
    declarative specs the worker builds sessions from, and all later
    per-shard messages address slots through their ``shard_id`` field.
    Re-sending a slot already hosted *rebuilds* that slot's session from
    the spec — the reconnect re-pin semantics.
    """

    TYPE = 8

    entries: List[Tuple[int, object]] = field(default_factory=list)

    def _encode(self, w: PayloadWriter) -> None:
        w.put_u32(len(self.entries))
        for slot, spec in sorted(self.entries, key=lambda e: e[0]):
            w.put_u32(slot)
            _put_spec(w, spec)

    @classmethod
    def _decode(cls, r: PayloadReader) -> "SessionSetup":
        count = r.get_u32()
        return cls(entries=[(r.get_u32(), _get_spec(r)) for _ in range(count)])


@dataclass
class SetupAck:
    """Acknowledges a setup: the slots it pinned."""

    TYPE = 9

    slots: List[int] = field(default_factory=list)

    def _encode(self, w: PayloadWriter) -> None:
        w.put_array(np.fromiter(
            sorted(self.slots), dtype=np.uint32, count=len(self.slots)
        ))

    @classmethod
    def _decode(cls, r: PayloadReader) -> "SetupAck":
        return cls(slots=[int(s) for s in r.get_array()])


@dataclass
class Ping:
    """Connection heartbeat; echoed back verbatim under the request id."""

    TYPE = 11

    nonce: int = 0

    def _encode(self, w: PayloadWriter) -> None:
        w.put_u64(self.nonce)

    @classmethod
    def _decode(cls, r: PayloadReader) -> "Ping":
        return cls(nonce=r.get_u64())


@dataclass
class Shutdown:
    """Close every session the link hosts and end the link.

    A refill already in flight on the worker completes (and its material
    lands in the pool) before the shutdown is acknowledged.
    """

    TYPE = 7

    def _encode(self, w: PayloadWriter) -> None:  # no fields
        pass

    @classmethod
    def _decode(cls, r: PayloadReader) -> "Shutdown":
        return cls()


#: Retired message types, never reused: 6 (the snapshot request), 10
#: (the per-slot teardown) and 12 (the drain request).
WIRE_MESSAGES: Dict[int, Type] = {
    cls.TYPE: cls
    for cls in (
        ShardRoundRequest,
        ShardRoundResult,
        RefillRequest,
        PoolSnapshot,
        ErrorFrame,
        RekeyRequest,
        SessionSetup,
        SetupAck,
        Ping,
        Shutdown,
    )
}


def encode_segments(message, request_id: int = 0):
    """Encode one typed message as ``[header, *payload segments]``.

    The vectored-write twin of :func:`encode_message`: socket transports
    hand the list straight to ``sendmsg`` so array payloads go out with
    zero joins (see :func:`repro.wire.stream.send_segments`).
    """
    msg_type = getattr(type(message), "TYPE", None)
    if msg_type not in WIRE_MESSAGES:
        raise WireError(f"{type(message).__name__} is not a wire message")
    w = PayloadWriter()
    message._encode(w)
    return frame_segments(msg_type, request_id, w)


def encode_message(message, request_id: int = 0) -> bytes:
    """Encode one typed message into a complete wire frame."""
    return b"".join(encode_segments(message, request_id))


def decode_message(frame: bytes, shm=None):
    """Decode one frame into ``(request_id, message)``.

    ``shm`` (a ``name -> memoryview`` resolver, e.g.
    ``ShmRegistry.resolve``) enables shared-memory array refs; without
    it such frames raise :class:`WireError` instead of mis-decoding.
    """
    msg_type, request_id, reader = decode_frame(frame, shm=shm)
    cls = WIRE_MESSAGES.get(msg_type)
    if cls is None:
        raise WireError(f"unknown wire message type {msg_type}")
    message = cls._decode(reader)
    if reader.remaining:
        raise WireError(
            f"{cls.__name__} frame has {reader.remaining} trailing bytes"
        )
    return request_id, message
