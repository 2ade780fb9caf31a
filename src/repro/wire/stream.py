"""Stream-side framing: reassembly from partial reads, vectored writes.

A byte stream (TCP socket, TLS channel, serial pipe) delivers frames in
arbitrary chunks: a ``recv`` may return half a header, three frames and
a torn fourth, or one byte.  :class:`FrameAssembler` turns that chunk
stream back into whole frames using the header's ``len`` field — the
reason the field exists — validating magic and version *eagerly*, as
soon as their bytes arrive, so a corrupt or incompatible peer is
rejected before it can desynchronize the stream.

The write side is the mirror image: :func:`send_segments` pushes a
frame's ``[header, *payload segments]`` list (see
:func:`repro.wire.format.frame_segments`) through ``socket.sendmsg`` —
a vectored write, so a multi-megabyte numpy payload is never joined
into one intermediate bytes object on its way out.
"""

from __future__ import annotations

import socket
import struct
from typing import List, Optional, Sequence, Union

from repro.exceptions import WireError
from repro.wire.format import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    WIRE_VERSION,
)

_LEN_AT = HEADER_SIZE - 4  # offset of the u32 payload length in the header
_U32 = struct.Struct("<I")

# recv chunk size for the socket helpers; large enough that multi-MB
# round frames take few syscalls, small enough to stay cache-friendly.
RECV_CHUNK = 1 << 20


class FrameAssembler:
    """Reassembles complete wire frames from arbitrary byte chunks.

    Feed it whatever the stream hands you; it returns every frame
    completed by that chunk, each as one contiguous ``bytes`` ready for
    :func:`repro.wire.decode_message`.  State between calls is just the
    trailing partial frame, so torn headers and payloads split at any
    byte boundary reassemble exactly (property-tested).

    Validation is eager and fatal: bad magic or an unsupported version
    raises :class:`WireError` as soon as those bytes are visible, and
    the assembler refuses further input — after a framing error the
    stream position is unknowable, so resynchronization would be a lie.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES):
        self._buffer = bytearray()
        self._max_payload = int(max_payload)
        self._corrupt = False

    def feed(self, data: Union[bytes, memoryview]) -> List[bytes]:
        """Absorb one chunk; return every frame it completed, in order."""
        if self._corrupt:
            raise WireError("frame stream already failed; reconnect")
        frames: List[bytes] = []
        if not self._buffer:
            data = self._take_direct(data, frames)
        self._buffer.extend(data)
        while True:
            frame = self._try_take_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _take_direct(
        self, data: Union[bytes, memoryview], frames: List[bytes]
    ) -> Union[bytes, memoryview]:
        """Slice complete, well-formed frames straight off ``data``.

        Only runs while the buffer is empty, so a multi-megabyte round
        frame arriving whole skips the bytearray staging copy.  Returns
        the unconsumed tail; anything suspicious (torn frame, bad
        prefix, oversized length) is left for the buffered path, which
        raises the same eager errors it always has.
        """
        view = memoryview(data).cast("B")
        offset = 0
        while len(view) - offset >= HEADER_SIZE:
            if (
                bytes(view[offset : offset + 2]) != MAGIC
                or view[offset + 2] != WIRE_VERSION
            ):
                break
            (length,) = _U32.unpack_from(view, offset + _LEN_AT)
            if length > self._max_payload:
                break
            end = offset + HEADER_SIZE + length
            if end > len(view):
                break
            frames.append(bytes(view[offset:end]))
            offset = end
        return view[offset:]

    def _try_take_frame(self) -> Optional[bytes]:
        buf = self._buffer
        # Eager prefix checks: magic at 2 bytes, version at 3 — a bad
        # peer fails here even if it never sends a whole header.
        if len(buf) >= 1 and not MAGIC.startswith(bytes(buf[:2])):
            self._fail(f"bad frame magic {bytes(buf[:2])!r}, expected {MAGIC!r}")
        if len(buf) >= 3 and buf[2] != WIRE_VERSION:
            self._fail(
                f"unsupported wire version {buf[2]}, this build speaks "
                f"{WIRE_VERSION}"
            )
        if len(buf) < HEADER_SIZE:
            return None
        (length,) = _U32.unpack_from(buf, _LEN_AT)
        if length > self._max_payload:
            self._fail(
                f"frame declares {length} payload bytes, over the "
                f"{self._max_payload}-byte limit"
            )
        total = HEADER_SIZE + length
        if len(buf) < total:
            return None
        # One copy: slicing the bytearray itself would copy the frame
        # once into a temporary and again into the bytes.  Both views
        # are released before the resize below, which exports forbid.
        with memoryview(buf) as view, view[:total] as head:
            frame = bytes(head)
        del buf[:total]
        return frame

    def _fail(self, message: str) -> None:
        self._corrupt = True
        raise WireError(message)


# ----------------------------------------------------------------------
# blocking-socket helpers
# ----------------------------------------------------------------------
def send_segments(
    sock: socket.socket, segments: Sequence[Union[bytes, memoryview]]
) -> int:
    """Vectored write of one frame's segments; returns bytes written.

    Loops over partial ``sendmsg`` completions by advancing the segment
    list in place (no join, no copy of unsent payload), chunking to at
    most 1024 iovecs per call to stay under any platform ``IOV_MAX``.
    """
    views = [memoryview(s).cast("B") for s in segments if len(s)]
    total = 0
    while views:
        sent = sock.sendmsg(views[:1024])
        total += sent
        while sent:
            if sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][sent:]
                sent = 0
    return total


def recv_frames(
    sock: socket.socket, assembler: FrameAssembler
) -> List[bytes]:
    """One blocking read; returns the frames it completed.

    An empty list means "keep calling"; EOF raises ``EOFError`` so
    callers distinguish a closed peer from a quiet one.
    """
    chunk = sock.recv(RECV_CHUNK)
    if not chunk:
        raise EOFError("peer closed the frame stream")
    return assembler.feed(chunk)
