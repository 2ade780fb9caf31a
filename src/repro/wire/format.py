"""Low-level framing and payload primitives for the shard wire protocol.

Every message that crosses a shard-transport boundary travels as one
*frame*::

    | magic "LW" | version u8 | msg_type u8 | request_id u64 | len u32 | payload |

All integers are little-endian.  ``request_id`` is a caller-chosen
correlation id: a transport multiplexing several outstanding requests
over one connection (e.g. an online round racing a background refill)
matches each response frame to its request by this id, so frames may
arrive out of order.  ``len`` is the payload length in bytes, which lets
a stream reader recover frame boundaries without parsing the payload.

Payloads are built from a small set of typed primitives
(:class:`PayloadWriter` / :class:`PayloadReader`).  Numpy arrays are the
hot path: the writer appends the array's buffer as a memoryview (no
serialization pass, one copy total at the final join) and the reader
returns ``np.frombuffer`` views straight into the received frame.
Decoded arrays are therefore read-only; callers that mutate must copy.

The bit-packing kernel (:func:`pack_bits` / :func:`unpack_bits`) packs
unsigned values at a declared sub-word width ``b`` (1..64): element
``i`` occupies bits ``[i*b, (i+1)*b)`` of one LSB-first little-endian
bit stream, ``ceil(n*b/8)`` bytes in all.  Eight elements — a *group*
— are therefore exactly ``b`` bytes, and the kernel works group-wise
on machine words: a group is ``ceil(b/8)`` aligned u64 limbs, built or
read by eight shift/or passes over a cache-sized block of groups, then
copied to or from the dense stream ``b`` bytes per group.  It costs a
few word-wide passes over the data and its scratch is bounded by the
block, not the array.  Frames never carry packed arrays; the kernel
serves callers that frame the ``(bits, count)`` themselves, such as
the HTTP control plane's ``packed`` vector encoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import WireError

MAGIC = b"LW"
# The one compatibility gate: peers must share it, and a frame stamped
# with any other version is refused at its header.  Bump it on any
# change to a message's layout.
WIRE_VERSION = 4

# The frame header's ``len`` field is a u32, so no payload (and no
# length-prefixed bytes/str primitive) may exceed this many bytes.
MAX_PAYLOAD_BYTES = 0xFFFFFFFF

# magic(2) version(1) msg_type(1) request_id(8) payload_len(4)
_HEADER = struct.Struct("<2sBBQI")
HEADER_SIZE = _HEADER.size

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

# Wire dtype codes.  A closed set keeps decode safe: no pickling, no
# arbitrary dtype strings from the peer.  The keys are spelled as
# explicit little-endian layouts, not native dtypes: wire arrays are
# little-endian by definition, and building the whitelist from native
# dtypes would make a big-endian host silently emit byte-swapped
# payloads that every little-endian peer mis-reads.
_DTYPE_CODES = {
    np.dtype("|u1"): 0,
    np.dtype("<u4"): 1,
    np.dtype("<u8"): 2,
    np.dtype("<i8"): 3,
    np.dtype("<f8"): 4,
}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}

# Array tag layout: the low 6 bits carry the dtype code, and one flag
# bit marks an array whose elements live elsewhere; every other flag
# bit is refused.
_SHM_FLAG = 0x40  # elements live in a named shared-memory segment
_CODE_MASK = 0x3F


def _dtype_code(dtype: np.dtype) -> int:
    """Map a dtype onto its wire code, with a typed rejection.

    Big-endian layouts of otherwise supported types get a pointed error:
    they would round-trip with silently swapped bytes if waved through.
    """
    code = _DTYPE_CODES.get(dtype)
    if code is not None:
        return code
    if dtype.byteorder == ">" and dtype.newbyteorder("<") in _DTYPE_CODES:
        raise WireError(
            f"big-endian dtype {dtype.str} is not wire-encodable: wire "
            f"arrays are little-endian; convert with "
            f".astype('{dtype.newbyteorder('<').str}') first"
        )
    raise WireError(
        f"dtype {dtype} is not wire-encodable; supported: "
        f"{sorted(str(d) for d in _DTYPE_CODES)}"
    )


@dataclass(frozen=True)
class ShmArrayRef:
    """Where an array's elements live inside a shared-memory segment.

    A frame carrying a ref instead of element bytes stays a few dozen
    bytes no matter how large the array: the peer resolves ``name`` to
    an attached segment and maps ``shape`` elements of ``dtype`` at
    ``offset`` — the same-host zero-copy lane.
    """

    name: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str = "<u8"  # numpy dtype string; must be wire-encodable

    @property
    def count(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @property
    def nbytes(self) -> int:
        return self.count * np.dtype(self.dtype).itemsize


# Packed kernel (stream layout: module docstring).  A group's 8 elements
# sit in one row of ``ceil(bits/8)`` little-endian u64 limbs whose first
# ``bits`` bytes are the group's bytes on the wire: element ``j`` starts
# at bit ``j*bits`` of the row, i.e. in limb ``j*bits // 64`` at shift
# ``j*bits % 64``, and spills its high bits into the next limb when it
# straddles a limb boundary.
_GROUP = 8
# Groups per block (~32k elements): limb scratch and the per-pass
# temporaries stay cache-sized however large the array is.
_BLOCK_GROUPS = 4096


def _lanes(bits: int) -> List[Tuple[int, int, int]]:
    """``(limb, shift, spill)`` for each of a group's 8 elements.

    ``spill`` is the right shift that drops the element's high bits
    into ``limb + 1``, or 0 when the element sits inside one limb.
    """
    lanes = []
    for j in range(_GROUP):
        limb, shift = divmod(j * bits, 64)
        lanes.append((limb, shift, 64 - shift if shift + bits > 64 else 0))
    return lanes


def _pack_groups(values: np.ndarray, bits: int, out: np.ndarray) -> None:
    """Pack ``values`` (groups, 8) of ``<u8`` into ``out`` (groups, bits)
    bytes, block by block."""
    lanes = _lanes(bits)
    limbs_per_group = (bits + 7) // 8
    for start in range(0, values.shape[0], _BLOCK_GROUPS):
        block = values[start : start + _BLOCK_GROUPS]
        limbs = np.zeros((block.shape[0], limbs_per_group), dtype="<u8")
        for j, (limb, shift, spill) in enumerate(lanes):
            column = block[:, j]
            limbs[:, limb] |= column << np.uint64(shift)
            if spill:
                limbs[:, limb + 1] |= column >> np.uint64(spill)
        out[start : start + _BLOCK_GROUPS] = limbs.view(np.uint8)[:, :bits]


def _unpack_groups(packed: np.ndarray, bits: int, out: np.ndarray) -> None:
    """Inverse of :func:`_pack_groups`: ``packed`` (groups, bits) bytes
    into ``out`` (groups, 8) of uint64."""
    lanes = _lanes(bits)
    limbs_per_group = (bits + 7) // 8
    mask = np.uint64((1 << bits) - 1)
    for start in range(0, packed.shape[0], _BLOCK_GROUPS):
        block = packed[start : start + _BLOCK_GROUPS]
        rows = np.zeros((block.shape[0], 8 * limbs_per_group), dtype=np.uint8)
        rows[:, :bits] = block
        limbs = rows.view("<u8")
        for j, (limb, shift, spill) in enumerate(lanes):
            column = limbs[:, limb] >> np.uint64(shift)
            if spill:
                column |= limbs[:, limb + 1] << np.uint64(spill)
            column &= mask
            out[start : start + _BLOCK_GROUPS, j] = column


def _pack_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """Bit-pack 1-D unsigned values (< ``2**bits``) LSB-first.

    The packed size is exactly ``ceil(n*bits/8)`` bytes regardless of
    the source dtype width.  Whole groups are packed straight into the
    output; a trailing partial group is zero-padded to 8 elements and
    its unused bytes dropped.
    """
    le = np.ascontiguousarray(values, dtype="<u8")
    out = np.empty(packed_nbytes(le.size, bits), dtype=np.uint8)
    groups, tail = divmod(le.size, _GROUP)
    whole = groups * bits
    _pack_groups(
        le[: groups * _GROUP].reshape(groups, _GROUP),
        bits,
        out[:whole].reshape(groups, bits),
    )
    if tail:
        last = np.zeros((1, _GROUP), dtype="<u8")
        last[0, :tail] = le[groups * _GROUP :]
        packed = np.empty((1, bits), dtype=np.uint8)
        _pack_groups(last, bits, packed)
        out[whole:] = packed[0, : out.size - whole]
    return out


def _unpack_bits(raw: memoryview, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`: ``count`` values as uint64.

    The result is freshly allocated (it never aliases ``raw``); pad
    bits after the last element are ignored.
    """
    stream = np.frombuffer(raw, dtype=np.uint8)
    out = np.empty(count, dtype=np.uint64)
    groups, tail = divmod(count, _GROUP)
    whole = groups * bits
    _unpack_groups(
        stream[:whole].reshape(groups, bits),
        bits,
        out[: groups * _GROUP].reshape(groups, _GROUP),
    )
    if tail:
        last = np.zeros((1, bits), dtype=np.uint8)
        last[0, : stream.size - whole] = stream[whole:]
        values = np.empty((1, _GROUP), dtype=np.uint64)
        _unpack_groups(last, bits, values)
        out[groups * _GROUP :] = values[0, :tail]
    return out


def packed_nbytes(count: int, bits: int) -> int:
    """Element bytes a packed array of ``count`` ``bits``-wide values needs."""
    return (count * bits + 7) // 8


def pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Public bit-packing: 1-D unsigned values at ``bits`` per element.

    For callers that carry the ``(bits, count)`` framing themselves —
    the HTTP control plane's base64 vector encoding, where both sides
    already know the field width and the model dimension.  Raises
    :class:`WireError` when a value does not fit the declared width.
    """
    flat = np.ascontiguousarray(np.asarray(values), dtype="<u8").reshape(-1)
    bits = int(bits)
    if not 1 <= bits <= 64:
        raise WireError(f"bit width must be in [1, 64], got {bits}")
    if flat.size:
        needed = max(1, int(flat.max()).bit_length())
        if needed > bits:
            raise WireError(
                f"values need {needed} bits but the declared width is "
                f"{bits}"
            )
    return _pack_bits(flat, bits).tobytes()


def unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``count`` uint64 values from bytes."""
    bits, count = int(bits), int(count)
    if not 1 <= bits <= 64:
        raise WireError(f"bit width must be in [1, 64], got {bits}")
    expected = packed_nbytes(count, bits)
    if len(data) != expected:
        raise WireError(
            f"packed payload is {len(data)} bytes; {count} values at "
            f"{bits} bits need exactly {expected}"
        )
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    return _unpack_bits(memoryview(data), bits, count)


class PayloadWriter:
    """Accumulates payload primitives as a list of buffer segments.

    Array data is appended as a memoryview over the array's own buffer,
    so building a payload never serializes or copies element data; the
    single copy happens when the frame is joined
    (:func:`repro.wire.messages.encode_message`) or in the socket layer,
    for transports that support vectored writes of :attr:`segments`.
    """

    def __init__(self) -> None:
        self.segments: List[Union[bytes, memoryview]] = []

    # -- scalar primitives ---------------------------------------------
    def put_u8(self, value: int) -> None:
        self.segments.append(_U8.pack(value))

    def put_u32(self, value: int) -> None:
        self.segments.append(_U32.pack(value))

    def put_u64(self, value: int) -> None:
        self.segments.append(_U64.pack(value))

    def put_i64(self, value: int) -> None:
        self.segments.append(_I64.pack(value))

    def put_f64(self, value: float) -> None:
        self.segments.append(_F64.pack(value))

    def put_bytes(self, data: bytes) -> None:
        if len(data) > MAX_PAYLOAD_BYTES:
            raise WireError(
                f"bytes value of {len(data)} bytes exceeds the u32 length "
                f"prefix (max {MAX_PAYLOAD_BYTES})"
            )
        self.put_u32(len(data))
        self.segments.append(data)

    def put_str(self, text: str) -> None:
        self.put_bytes(text.encode("utf-8"))

    # -- arrays ---------------------------------------------------------
    def put_array(self, array: np.ndarray) -> None:
        """Append one numpy array: dtype code, shape, raw C-order bytes."""
        array = np.asarray(array)
        code = _dtype_code(array.dtype)
        if array.ndim > 255:
            raise WireError(f"array rank {array.ndim} exceeds wire limit")
        contiguous = np.ascontiguousarray(array)
        self.put_u8(code)
        self.put_u8(contiguous.ndim)
        for dim in contiguous.shape:
            self.put_u64(dim)
        if contiguous.size:
            self.segments.append(memoryview(contiguous).cast("B"))

    def put_shm_array(self, ref: ShmArrayRef) -> None:
        """Append an array *by reference* into a shared-memory segment.

        The element bytes must already sit in the named segment; only
        the (dtype, shape, name, offset) record crosses the wire.  A
        reader without an shm resolver rejects the frame, so refs never
        leak onto a transport that cannot honor them.
        """
        code = _dtype_code(np.dtype(ref.dtype))
        if len(ref.shape) > 255:
            raise WireError(f"array rank {len(ref.shape)} exceeds wire limit")
        self.put_u8(_SHM_FLAG | code)
        self.put_u8(len(ref.shape))
        for dim in ref.shape:
            self.put_u64(dim)
        self.put_str(ref.name)
        self.put_u64(ref.offset)

    @property
    def nbytes(self) -> int:
        """Total payload size, computed without joining the segments."""
        return sum(len(segment) for segment in self.segments)


class PayloadReader:
    """Sequential reader over one frame's payload memoryview.

    ``shm`` is an optional resolver mapping a shared-memory segment name
    to its buffer (``Callable[[str], memoryview]``); only readers on a
    same-host transport provide one, so frames carrying shm array refs
    fail loudly anywhere else.
    """

    def __init__(
        self,
        view: memoryview,
        shm: Optional[Callable[[str], memoryview]] = None,
    ) -> None:
        self._view = view
        self._offset = 0
        self._shm = shm
        #: The ref behind the most recent :meth:`get_array` when that
        #: array came from a shared-memory segment, else ``None``.
        #: Decoders that must know an array aliases segment memory (and
        #: so will be overwritten on region reuse) read this instead of
        #: re-parsing the tag.
        self.last_shm_ref: Optional[ShmArrayRef] = None

    def _take(self, nbytes: int) -> memoryview:
        end = self._offset + nbytes
        if end > len(self._view):
            raise WireError(
                f"truncated payload: wanted {nbytes} bytes at offset "
                f"{self._offset}, have {len(self._view) - self._offset}"
            )
        chunk = self._view[self._offset : end]
        self._offset = end
        return chunk

    # -- scalar primitives ---------------------------------------------
    def get_u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def get_u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def get_u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def get_i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def get_f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def get_bytes(self) -> bytes:
        return bytes(self._take(self.get_u32()))

    def get_str(self) -> str:
        return self.get_bytes().decode("utf-8")

    # -- arrays ---------------------------------------------------------
    def get_array(self) -> np.ndarray:
        """Read one array: a zero-copy read-only view into the frame,
        or, for an shm ref, into the named segment."""
        self.last_shm_ref = None
        tag = self.get_u8()
        code = tag & _CODE_MASK
        flags = tag & ~_CODE_MASK
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise WireError(f"unknown wire dtype code {code}")
        ndim = self.get_u8()
        shape = tuple(self.get_u64() for _ in range(ndim))
        count = 1
        for dim in shape:
            count *= dim
        if flags == 0:
            raw = self._take(count * dtype.itemsize)
            return np.frombuffer(raw, dtype=dtype).reshape(shape)
        if flags == _SHM_FLAG:
            return self._take_shm(dtype, shape, count)
        raise WireError(f"unknown array tag flags 0x{flags:02x}")

    def _take_shm(
        self, dtype: np.dtype, shape: Tuple[int, ...], count: int
    ) -> np.ndarray:
        name = self.get_str()
        offset = self.get_u64()
        if self._shm is None:
            raise WireError(
                f"frame references shared-memory segment {name!r} but "
                f"this reader has no shm resolver"
            )
        buf = self._shm(name)
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(buf):
            raise WireError(
                f"shm array [{offset}, {offset + nbytes}) overruns "
                f"segment {name!r} of {len(buf)} bytes"
            )
        array = np.frombuffer(
            buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        array.setflags(write=False)
        self.last_shm_ref = ShmArrayRef(
            name=name, offset=offset, shape=shape, dtype=dtype.str
        )
        return array

    @property
    def remaining(self) -> int:
        return len(self._view) - self._offset


def put_shm_ref(w: "PayloadWriter", ref: ShmArrayRef) -> None:
    """Encode an :class:`ShmArrayRef` as a plain record (not an array).

    Used for fields that must stay references on decode — e.g. a round
    request telling the worker *where to write* its aggregate.
    """
    w.put_u8(_dtype_code(np.dtype(ref.dtype)))
    w.put_u8(len(ref.shape))
    for dim in ref.shape:
        w.put_u64(dim)
    w.put_str(ref.name)
    w.put_u64(ref.offset)


def get_shm_ref(r: "PayloadReader") -> ShmArrayRef:
    """Decode the record written by :func:`put_shm_ref`."""
    code = r.get_u8()
    dtype = _CODE_DTYPES.get(code)
    if dtype is None:
        raise WireError(f"unknown wire dtype code {code}")
    ndim = r.get_u8()
    shape = tuple(r.get_u64() for _ in range(ndim))
    return ShmArrayRef(
        name=r.get_str(), offset=r.get_u64(), shape=shape, dtype=dtype.str
    )


def frame_segments(
    msg_type: int, request_id: int, payload: PayloadWriter
) -> List[Union[bytes, memoryview]]:
    """One frame as ``[header, *payload segments]``, ready for a vectored
    write (``socket.sendmsg``) with no join of the payload buffers.

    The u32 ``len`` header field is validated here — the one choke point
    both the joining and the vectored encode paths go through — so an
    oversized payload surfaces as a typed :class:`WireError` instead of a
    raw ``struct.error`` (or, worse, a silently mis-framed stream).
    """
    nbytes = payload.nbytes
    if nbytes > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"payload of {nbytes} bytes exceeds the u32 frame length "
            f"field (max {MAX_PAYLOAD_BYTES})"
        )
    header = _HEADER.pack(MAGIC, WIRE_VERSION, msg_type, request_id, nbytes)
    return [header, *payload.segments]


def decode_frame(
    data: bytes,
    shm: Optional[Callable[[str], memoryview]] = None,
) -> Tuple[int, int, PayloadReader]:
    """Split one frame into ``(msg_type, request_id, payload reader)``.

    Validates magic, version, and the length prefix; a frame whose
    declared payload length disagrees with the buffer is rejected rather
    than silently mis-parsed.  ``shm`` is forwarded to the reader so
    same-host transports can resolve shared-memory array refs.
    """
    if len(data) < HEADER_SIZE:
        raise WireError(
            f"frame too short for header: {len(data)} < {HEADER_SIZE} bytes"
        )
    view = memoryview(data)
    magic, version, msg_type, request_id, length = _HEADER.unpack(
        view[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}, expected {MAGIC!r}")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version}, this build speaks "
            f"{WIRE_VERSION}"
        )
    payload = view[HEADER_SIZE:]
    if len(payload) != length:
        raise WireError(
            f"frame length mismatch: header declares {length} payload "
            f"bytes, buffer carries {len(payload)}"
        )
    return msg_type, request_id, PayloadReader(payload, shm=shm)
