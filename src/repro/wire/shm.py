"""Named shared-memory segments for same-host vector payload handoff.

How the ``process`` lane moves vectors: instead of pushing a 4 MB
update matrix through a pipe byte-by-byte, the coordinator stages it in a
:class:`SegmentArena` region and sends a frame carrying only a
``(name, offset, dtype, shape)`` reference
(:class:`~repro.wire.format.ShmArrayRef`).  The worker resolves the
name through its :class:`ShmRegistry` and maps the elements in place —
the vector bytes never transit the pipe at all.

Lifecycle is deliberately asymmetric:

* the **coordinator** creates segments and is the only party that ever
  ``unlink``\\ s them (on transport close, with a ``__del__`` backstop);
* **workers** only attach, and only to names under :data:`SEGMENT_PREFIX`
  — a closed namespace, so a malicious frame cannot make a worker map
  arbitrary system segments — and detach on shutdown.

A worker that dies mid-round therefore cannot leak ``/dev/shm`` entries:
the file belongs to the coordinator, which unlinks it regardless.
"""

from __future__ import annotations

import os
import secrets
import threading
from multiprocessing import shared_memory
from typing import Dict

import numpy as np

from repro.exceptions import TransportError, WireError
from repro.wire.format import ShmArrayRef

#: Every segment this module creates (and every name a registry will
#: agree to attach) starts with this prefix.
SEGMENT_PREFIX = "repro-shm-"


def _detach_quietly(shm: shared_memory.SharedMemory) -> None:
    """Best-effort detach that tolerates still-alive buffer exports.

    Numpy arrays handed out over ``shm.buf`` may outlive the teardown
    call (decoded messages, staged request views), in which case the
    mmap cannot be closed yet.  Neuter the object so ``__del__`` does
    not retry and let the mapping die with the process — unlinking,
    the part that actually prevents a ``/dev/shm`` leak, never needs
    the mapping closed.
    """
    try:
        shm.close()
    except BufferError:
        shm._buf = None  # the stdlib offers no safe detach; reclaim
        shm._mmap = None  # the mapping at process exit instead


class SegmentArena:
    """One coordinator-owned shared-memory segment.

    The arena is a flat byte range; callers carve it into fixed regions
    (one request + one response region per shard, in the transport's
    case), write arrays into :meth:`ndarray` views at chosen offsets,
    and send a :class:`ShmArrayRef` instead of the bytes.  Every page is
    reserved at construction, so an arena that exists can be written;
    one that ``/dev/shm`` cannot hold raises ``OSError`` and leaves no
    segment behind.
    """

    def __init__(self, size: int) -> None:
        self.name = f"{SEGMENT_PREFIX}{os.getpid():x}-{secrets.token_hex(4)}"
        self._shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=max(1, int(size))
        )
        # tmpfs allocates pages on first touch: reserve them all now, so
        # a /dev/shm too small for the segment raises OSError here rather
        # than SIGBUS at the first write to an unbacked page.
        try:
            os.posix_fallocate(self._shm._fd, 0, self._shm.size)
        except OSError:
            _detach_quietly(self._shm)
            self._shm.unlink()
            raise
        self._closed = False

    @property
    def size(self) -> int:
        return self._shm.size

    @property
    def buf(self) -> memoryview:
        if self._closed:
            raise TransportError(f"shm segment {self.name!r} already closed")
        return self._shm.buf

    def ndarray(
        self, offset: int, shape, dtype=np.uint64
    ) -> np.ndarray:
        """A writable array view over ``shape`` elements at ``offset``."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if len(shape) else 1
        end = offset + count * dtype.itemsize
        if end > self.size:
            raise TransportError(
                f"shm region [{offset}, {end}) overruns segment "
                f"{self.name!r} of {self.size} bytes"
            )
        return np.frombuffer(
            self.buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)

    def close(self) -> None:
        """Detach *and unlink* — the creator's teardown. Idempotent."""
        if self._closed:
            return
        self._closed = True
        _detach_quietly(self._shm)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __del__(self) -> None:  # backstop; explicit close() is the API
        try:
            self.close()
        except Exception:
            pass


class ShmRegistry:
    """Attach-side cache of named segments, for frame decode.

    Bound methods double as the ``shm`` resolver for
    :func:`repro.wire.decode_message`: ``registry.resolve`` maps a
    segment name to its buffer, attaching (and caching) on first use.
    ``close()`` detaches everything — it never unlinks, because the
    registry never owns.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._local: Dict[str, "SegmentArena"] = {}
        self._lock = threading.Lock()

    def add_local(self, arena: SegmentArena) -> None:
        """Short-circuit resolution for a segment this process created
        (no second attachment, no double resource-tracker entry)."""
        with self._lock:
            self._local[arena.name] = arena

    def resolve(self, name: str) -> memoryview:
        if not name.startswith(SEGMENT_PREFIX):
            raise WireError(
                f"refusing to attach shm segment {name!r}: outside the "
                f"{SEGMENT_PREFIX!r} namespace"
            )
        with self._lock:
            arena = self._local.get(name)
            if arena is not None:
                return arena.buf
            segment = self._segments.get(name)
            if segment is None:
                try:
                    segment = shared_memory.SharedMemory(name=name)
                except FileNotFoundError:
                    raise WireError(
                        f"shm segment {name!r} does not exist (torn down "
                        f"or never created)"
                    ) from None
                # Attaching registers the name with the resource tracker
                # (bpo-38119).  Spawned hosts share the coordinator's
                # tracker, whose entry for it the creator's unlink
                # clears.  Never unregister here: the entry is one set
                # member for every sibling host, so a second unregister
                # raises KeyError inside the tracker.
                self._segments[name] = segment
            return segment.buf

    def ndarray(self, ref: ShmArrayRef) -> np.ndarray:
        """A writable view over ``ref``'s region (for placing results)."""
        buf = self.resolve(ref.name)
        end = ref.offset + ref.nbytes
        if end > len(buf):
            raise WireError(
                f"shm region [{ref.offset}, {end}) overruns segment "
                f"{ref.name!r} of {len(buf)} bytes"
            )
        return np.frombuffer(
            buf, dtype=np.dtype(ref.dtype), count=ref.count,
            offset=ref.offset,
        ).reshape(ref.shape)

    def close(self) -> None:
        """Detach every cached segment (attachments only; no unlinks)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._local.clear()
        for segment in segments:
            try:
                _detach_quietly(segment)
            except OSError:
                pass
