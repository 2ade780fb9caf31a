"""Versioned binary wire format for shard transport messages.

The service layer's scatter/gather of shard requests and refills speaks
this format to ``repro shard-worker`` hosts over a stream socket: a TCP
connection, or a socketpair to a locally spawned host
(:class:`~repro.service.socket_transport.SocketTransport`); the inline
lane makes direct calls and frames nothing.  See
:mod:`repro.wire.format` for the frame layout, :mod:`repro.wire.messages`
for the message set, :mod:`repro.wire.stream` for byte-stream
reassembly and vectored writes, and :mod:`repro.wire.shm` for the
same-host shared-memory payload lane.

Field words cross every shard hop as little-endian ``<u4``
(:data:`~repro.field.FIELD_WORD`), framed or staged: same-host
transports may pass vector payloads by shared-memory reference
(:class:`~repro.wire.format.ShmArrayRef`) so element bytes never
transit the socket at all.  Peers must share
:data:`~repro.wire.format.WIRE_VERSION`; there is nothing else to agree.
"""

from repro.wire.format import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    WIRE_VERSION,
    PayloadReader,
    PayloadWriter,
    ShmArrayRef,
    decode_frame,
    frame_segments,
    pack_bits,
    packed_nbytes,
    unpack_bits,
)
from repro.wire.messages import (
    FIELD_WORD,
    WIRE_MESSAGES,
    WorkerSpan,
    ErrorFrame,
    Ping,
    PoolSnapshot,
    RefillRequest,
    RekeyRequest,
    SessionSetup,
    SessionTeardown,
    SetupAck,
    ShardRoundRequest,
    ShardRoundResult,
    Shutdown,
    decode_message,
    encode_message,
    encode_segments,
    field_words,
)
from repro.wire.shm import SEGMENT_PREFIX, SegmentArena, ShmRegistry
from repro.wire.stream import FrameAssembler, recv_frames, send_segments

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "WIRE_VERSION",
    "PayloadReader",
    "PayloadWriter",
    "ShmArrayRef",
    "decode_frame",
    "frame_segments",
    "pack_bits",
    "packed_nbytes",
    "unpack_bits",
    "FIELD_WORD",
    "WIRE_MESSAGES",
    "WorkerSpan",
    "ErrorFrame",
    "Ping",
    "PoolSnapshot",
    "RefillRequest",
    "RekeyRequest",
    "SessionSetup",
    "SessionTeardown",
    "SetupAck",
    "ShardRoundRequest",
    "ShardRoundResult",
    "Shutdown",
    "decode_message",
    "encode_message",
    "encode_segments",
    "field_words",
    "SEGMENT_PREFIX",
    "SegmentArena",
    "ShmRegistry",
    "FrameAssembler",
    "recv_frames",
    "send_segments",
]
